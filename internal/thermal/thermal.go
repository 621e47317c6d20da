// Package thermal is a compact RC thermal model in the spirit of HotSpot
// (the paper's thermal simulator).
//
// The network is built from a floorplan.Die — a single-core evaluation
// passes a one-core die — with one node per (core, structure) block,
// flat index core·NumStructures + structure, plus one heat spreader and
// one heat sink shared by the whole die:
//
//	block i --Rv(i)--> spreader --Rsp--> sink --Rconv--> ambient
//	block i --Rlat(i,j)--> block j        (shared-edge neighbours)
//
// Vertical resistances follow conduction through the die and thermal
// interface (t/(k·A)); lateral resistances follow conduction along the
// die between block centres through the shared edge cross-section, both
// within a core and across tile seams.
//
// The paper's two-pass heat-sink initialisation (Section 6.3) is the
// only operating mode: the sink's RC time constant (~minutes) is far
// larger than a simulated run, so a first pass measures average power,
// SinkSteadyTemp converts it to the sink's steady temperature, and the
// second pass runs with the sink pinned there. QuasiSteady then gives
// per-block temperatures for an interval, which is valid because block
// time constants (~ms) are far below the interval lengths RAMP samples.
//
// The pinned-sink conductance matrix never changes after construction —
// only the power vector and the sink temperature (the right-hand side)
// do — so New LU-factorizes it once (partial pivoting) and every solve
// is a pair of O(n²) triangular substitutions with no matrix assembly
// and no heap allocation. See DESIGN.md §7.
package thermal

import (
	"fmt"
	"math"

	"ramp/internal/check"
	"ramp/internal/floorplan"
	"ramp/internal/obs"
	"ramp/internal/power"
)

// numNodes is the node count of a one-core die: blocks + spreader +
// sink. QuasiSteady's scratch lives in fixed-size stack arrays of this
// length so concurrent one-core solves never touch the heap.
const numNodes = int(floorplan.NumStructures) + 2

// Params holds the physical constants of the package stack.
type Params struct {
	DieThicknessM  float64 // silicon die thickness
	KSiliconWmK    float64 // silicon thermal conductivity
	RVertExtraKWm2 float64 // extra vertical resistance (TIM), K·m²/W

	SpreaderRKW float64 // spreader -> sink resistance
	SinkRKW     float64 // sink -> ambient (convection) resistance

	AmbientK float64
}

// DefaultParams returns HotSpot-like constants for the paper's package:
// a 0.5 mm die, copper spreader, and a sink sized so the hottest
// application peaks near 400 K, as in Section 7.1.
func DefaultParams(ambientK float64) Params {
	return Params{
		DieThicknessM:  0.5e-3,
		KSiliconWmK:    100,
		RVertExtraKWm2: 8.0e-6,
		SpreaderRKW:    0.12,
		SinkRKW:        0.60,
		AmbientK:       ambientK,
	}
}

// DieParams returns package constants for an n-core die: the silicon
// stack is unchanged (per-block vertical resistance already scales with
// block area), but the spreader and sink grow with the die — n times
// the heat flows through them, so their resistances drop by the core
// count. DieParams(ambientK, 1) is exactly DefaultParams(ambientK).
func DieParams(ambientK float64, nCores int) Params {
	p := DefaultParams(ambientK)
	if nCores > 1 {
		f := float64(nCores)
		p.SpreaderRKW /= f
		p.SinkRKW /= f
	}
	return p
}

// Model is the assembled RC network of a die with its pre-factorized
// pinned-sink system.
type Model struct {
	p       Params
	nb      int       // die blocks: cores · NumStructures
	quasi   lu        // (nb+1)-node system: blocks + spreader, sink pinned
	gToSink []float64 // per-node conductance into the pinned sink (RHS assembly)
	sb, sx  []float64 // QuasiSteadyInto scratch (model-owned)

	// solves counts linear-system solves (observability; nil = uncounted).
	solves *obs.Counter
}

// New assembles the thermal network of a die and factorizes its
// pinned-sink system.
func New(die *floorplan.Die, p Params) (*Model, error) {
	g, err := assembleNetwork(die, p)
	if err != nil {
		return nil, err
	}
	nb := die.NumBlocks()
	n := nb + 2
	// The sink row and column are removed (pinned temperature);
	// conductances into the sink stay on the diagonal and feed the RHS.
	nq := n - 1
	sink := n - 1
	qa := make([]float64, nq*nq)
	gToSink := make([]float64, nq)
	for i := 0; i < nq; i++ {
		for j := 0; j < nq; j++ {
			if gv := g[i*n+j]; i != j && gv != 0 {
				qa[i*nq+i] += gv
				qa[i*nq+j] -= gv
			}
		}
		gToSink[i] = g[i*n+sink]
		qa[i*nq+i] += gToSink[i]
	}
	m := &Model{p: p, nb: nb, gToSink: gToSink}
	if err := m.quasi.factorize(nq, qa); err != nil {
		return nil, err
	}
	scratch := make([]float64, 2*nq)
	m.sb, m.sx = scratch[:nq:nq], scratch[nq:]
	return m, nil
}

// MustNew is New, panicking on bad parameters.
func MustNew(die *floorplan.Die, p Params) *Model {
	m, err := New(die, p)
	if err != nil {
		panic(err)
	}
	return m
}

// assembleNetwork builds the conductance graph of a die: the symmetric
// row-major n×n matrix of pairwise conductances between the n =
// NumBlocks + 2 nodes, with the spreader at n-2 and the sink at n-1.
func assembleNetwork(die *floorplan.Die, p Params) ([]float64, error) {
	if p.DieThicknessM <= 0 || p.KSiliconWmK <= 0 || p.SinkRKW <= 0 || p.SpreaderRKW <= 0 {
		return nil, fmt.Errorf("thermal: non-positive physical parameter: %+v", p)
	}
	nb := die.NumBlocks()
	n := nb + 2
	g := make([]float64, n*n)
	link := func(a, b int, gv float64) {
		g[a*n+b] += gv
		g[b*n+a] += gv
	}
	spreader := nb
	sink := nb + 1

	for i := 0; i < nb; i++ {
		core, s := die.CoreOf(i)
		areaM2 := die.AreaMM2(core, s) * 1e-6
		// Vertical: die conduction plus TIM, block -> spreader.
		r := p.DieThicknessM/(p.KSiliconWmK*areaM2) + p.RVertExtraKWm2/areaM2
		link(i, spreader, 1/r)
	}
	// Lateral conduction between adjacent blocks — intra-core and across
	// tile seams alike.
	for _, adj := range die.Adjacencies() {
		sharedM := adj.SharedMM * 1e-3
		distM := adj.CenterDist * 1e-3
		if distM <= 0 {
			continue
		}
		link(die.Index(adj.CoreA, adj.A), die.Index(adj.CoreB, adj.B),
			p.KSiliconWmK*p.DieThicknessM*sharedM/distM)
	}
	link(spreader, sink, 1/p.SpreaderRKW)
	return g, nil
}

// CountSolves attaches a counter incremented once per linear-system
// solve. The counter is atomic, so counting stays safe under concurrent
// solves; a nil counter (the default) makes the increment a no-op.
func (m *Model) CountSolves(c *obs.Counter) { m.solves = c }

// SinkSteadyTemp returns the sink temperature reached under a constant
// total die power (the first pass of the paper's two-pass
// initialisation).
func (m *Model) SinkSteadyTemp(totalPowerW float64) float64 {
	return m.p.AmbientK + totalPowerW*m.p.SinkRKW
}

// QuasiSteady solves the block temperatures of a one-core model with
// the sink pinned at sinkTempK. This is the second-pass operating mode:
// block and spreader time constants are milliseconds, far below RAMP's
// sampling interval, so each interval sees its steady temperatures; the
// sink integrates over the whole run.
//
// This is the innermost call of every evaluation (once per leakage
// iteration per epoch). Its scratch lives on the stack, so one model
// serves concurrent evaluation workers.
//
//ramp:hot
func (m *Model) QuasiSteady(blockPower power.Vector, sinkTempK float64) power.Vector {
	if m.nb != int(floorplan.NumStructures) {
		panic("thermal: QuasiSteady needs a one-core model; use QuasiSteadyInto")
	}
	var b, x [numNodes - 1]float64
	m.solve(x[:], b[:], blockPower[:], sinkTempK)
	return power.Vector(x[:floorplan.NumStructures])
}

// QuasiSteadyInto is QuasiSteady for any die: blockPower and out hold
// one value per block in the flat Die.Index layout. The scratch is the
// model's, so solves must not run concurrently on one Model.
//
//ramp:hot
func (m *Model) QuasiSteadyInto(out []float64, blockPower []float64, sinkTempK float64) {
	if len(out) != m.nb || len(blockPower) != m.nb {
		panic(fmt.Sprintf("thermal: solve needs %d-block slices, got out=%d power=%d",
			m.nb, len(out), len(blockPower)))
	}
	m.solve(m.sx, m.sb, blockPower, sinkTempK)
	copy(out, m.sx[:m.nb])
}

// solve writes the block and spreader temperatures for the given block
// powers and pinned sink into x, using b as right-hand-side scratch.
//
//ramp:hot
func (m *Model) solve(x, b, blockPower []float64, sinkTempK float64) {
	for i := range b {
		b[i] = m.gToSink[i] * sinkTempK
	}
	for i := 0; i < m.nb; i++ {
		b[i] += blockPower[i]
	}
	m.quasi.solveInto(x, b)
	m.solves.Inc()
	for i := 0; i < m.nb; i++ {
		// A block temperature outside plausible silicon range means the
		// power input or the pinned sink temperature carried a unit bug.
		check.TempK("thermal.QuasiSteady", x[i])
	}
}

// MaxCoreTemp returns the hottest block temperature of one core within
// a flat per-block temperature slice.
func (m *Model) MaxCoreTemp(temps []float64, core int) float64 {
	lo := core * int(floorplan.NumStructures) // Die.Index(core, 0)
	_, maxT := MaxBlock(power.Vector(temps[lo : lo+int(floorplan.NumStructures)]))
	return maxT
}

// MaxBlock returns the hottest block and its temperature.
//
//ramp:hot
func MaxBlock(t power.Vector) (floorplan.Structure, float64) {
	best := floorplan.Structure(0)
	maxT := math.Inf(-1)
	for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
		if t[s] > maxT {
			maxT = t[s]
			best = s
		}
	}
	return best, maxT
}

// lu is an LU factorization with partial pivoting of a dense row-major
// matrix: unit-lower multipliers below the diagonal, U on and above it.
// The thermal system is factorized once and solved millions of times,
// so solveInto is written to be allocation-free.
type lu struct {
	n   int
	a   []float64 // factors, row-major n×n (owns the backing array)
	piv []int     // piv[k]: row swapped with row k at elimination step k
}

// factorize computes the factorization of the n×n matrix a in place,
// taking ownership of a.
func (f *lu) factorize(n int, a []float64) error {
	f.n = n
	f.a = a
	f.piv = make([]int, n)
	for col := 0; col < n; col++ {
		// Partial pivot: largest remaining entry in this column.
		p := col
		pmax := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > pmax {
				pmax = v
				p = r
			}
		}
		if pmax == 0 {
			return fmt.Errorf("thermal: singular conductance matrix")
		}
		f.piv[col] = p
		if p != col {
			// Swap whole rows; L multipliers travel with their row.
			for k := 0; k < n; k++ {
				a[col*n+k], a[p*n+k] = a[p*n+k], a[col*n+k]
			}
		}
		pivInv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			mult := a[r*n+col] * pivInv
			a[r*n+col] = mult
			if mult == 0 {
				continue
			}
			for k := col + 1; k < n; k++ {
				a[r*n+k] -= mult * a[col*n+k]
			}
		}
	}
	return nil
}

// solveInto writes A⁻¹·b into x (len n each) with two triangular
// substitutions. It performs no allocation; b is not modified unless x
// aliases it.
//
//ramp:hot
func (f *lu) solveInto(x, b []float64) {
	n := f.n
	a := f.a
	copy(x, b)
	for k := 0; k < n; k++ {
		if p := f.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution against unit-lower L.
	for r := 1; r < n; r++ {
		s := x[r]
		for k := 0; k < r; k++ {
			s -= a[r*n+k] * x[k]
		}
		x[r] = s
	}
	// Back substitution against U.
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for k := r + 1; k < n; k++ {
			s -= a[r*n+k] * x[k]
		}
		x[r] = s / a[r*n+r]
	}
}
