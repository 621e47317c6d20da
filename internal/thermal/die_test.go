package thermal

import (
	"math"
	"testing"

	"ramp/internal/floorplan"
	"ramp/internal/power"
)

// singleCoreNetwork assembles the conductance matrix of one bare
// floorplan straight from its own blocks and adjacency list — no die
// tiling, no flat addressing — as the reference for a one-core die.
func singleCoreNetwork(fp *floorplan.Floorplan, p Params) []float64 {
	const n = numNodes
	g := make([]float64, n*n)
	spreader, sink := n-2, n-1
	for s := 0; s < int(floorplan.NumStructures); s++ {
		areaM2 := fp.AreaMM2(floorplan.Structure(s)) * 1e-6
		gv := 1 / (p.DieThicknessM/(p.KSiliconWmK*areaM2) + p.RVertExtraKWm2/areaM2)
		g[s*n+spreader] += gv
		g[spreader*n+s] += gv
	}
	for _, adj := range fp.Adjacencies() {
		gl := p.KSiliconWmK * p.DieThicknessM * (adj.SharedMM * 1e-3) / (adj.CenterDist * 1e-3)
		a, b := int(adj.A), int(adj.B)
		g[a*n+b] += gl
		g[b*n+a] += gl
	}
	g[spreader*n+sink] += 1 / p.SpreaderRKW
	g[sink*n+spreader] += 1 / p.SpreaderRKW
	return g
}

// TestDieModelN1MatchesModel pins the one-core die to the single
// floorplan it tiles: the assembled network is bit-identical to the
// bare floorplan's, and the flat-layout QuasiSteadyInto returns exactly
// what QuasiSteady does.
func TestDieModelN1MatchesModel(t *testing.T) {
	die, p := oneCore()
	got, _ := network(t, die, p)
	want := singleCoreNetwork(die.Base, p)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("g[%d][%d]: die %v, floorplan %v", i/numNodes, i%numNodes, got[i], want[i])
		}
	}

	m := MustNew(die, p)
	var pw power.Vector
	for s := range pw {
		pw[s] = 0.8 + 0.3*float64(s)
	}
	sinkT := 345.0
	wantQ := m.QuasiSteady(pw, sinkT)
	gotQ := make([]float64, die.NumBlocks())
	m.QuasiSteadyInto(gotQ, pw[:], sinkT)
	for s := range wantQ {
		if gotQ[s] != wantQ[s] {
			t.Fatalf("block %d: QuasiSteadyInto %v, QuasiSteady %v", s, gotQ[s], wantQ[s])
		}
	}
}

// TestDieModelDenseOracle checks the LU fast path on a genuinely tiled
// system (N=4, 45 unknowns) against the dense Gaussian-elimination
// oracle.
func TestDieModelDenseOracle(t *testing.T) {
	die := floorplan.MustNewDie(floorplan.R10000Like(), 4)
	p := DieParams(318.15, 4)
	m := MustNew(die, p)

	bp := make([]float64, die.NumBlocks())
	for i := range bp {
		bp[i] = 0.5 + 0.07*float64(i%11) + 0.4*float64(i/11)
	}
	sinkT := 352.0
	want := oracleQuasi(t, die, p, bp, sinkT)
	got := make([]float64, die.NumBlocks())
	m.QuasiSteadyInto(got, bp, sinkT)
	for i := range got {
		if diff := math.Abs(got[i] - want[i]); diff > 1e-9 {
			t.Fatalf("quasi block %d: LU %v, dense %v (diff %g)", i, got[i], want[i], diff)
		}
	}
}

// TestDieModelCrossCoreCoupling checks that tile-seam conductances are
// real: on a 1×2 die with only core 0 powered, core 1's blocks rise
// above the pinned sink temperature (heat arrives laterally through the
// seam), and the powered core runs hotter than the idle one.
func TestDieModelCrossCoreCoupling(t *testing.T) {
	die := floorplan.MustNewDie(floorplan.R10000Like(), 2)
	m := MustNew(die, DieParams(318.15, 2))

	bp := make([]float64, die.NumBlocks())
	for s := 0; s < int(floorplan.NumStructures); s++ {
		bp[s] = 2.0 // core 0 busy, core 1 idle
	}
	sinkT := 340.0
	temps := make([]float64, die.NumBlocks())
	m.QuasiSteadyInto(temps, bp, sinkT)

	hot := m.MaxCoreTemp(temps, 0)
	idleMax := m.MaxCoreTemp(temps, 1)
	idleMin := temps[die.Index(1, 0)]
	for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
		if v := temps[die.Index(1, s)]; v < idleMin {
			idleMin = v
		}
	}
	if hot <= idleMax {
		t.Fatalf("powered core (%.3f K) not hotter than idle core (%.3f K)", hot, idleMax)
	}
	if idleMin <= sinkT {
		t.Fatalf("idle core at %.6f K did not rise above pinned sink %.1f K — no cross-core coupling", idleMin, sinkT)
	}
}

// TestDieModelQuasiSteadyAllocFree pins the hot-path contract: a
// QuasiSteadyInto solve performs zero heap allocations.
func TestDieModelQuasiSteadyAllocFree(t *testing.T) {
	die := floorplan.MustNewDie(floorplan.R10000Like(), 4)
	m := MustNew(die, DieParams(318.15, 4))
	bp := make([]float64, die.NumBlocks())
	for i := range bp {
		bp[i] = 1.0
	}
	out := make([]float64, die.NumBlocks())
	allocs := testing.AllocsPerRun(100, func() {
		m.QuasiSteadyInto(out, bp, 350.0)
	})
	if allocs != 0 {
		t.Fatalf("QuasiSteadyInto allocates %.1f times per solve, want 0", allocs)
	}
}

// TestDieParamsN1 pins DieParams(ambient, 1) == DefaultParams(ambient):
// the single-core package is unchanged by the manycore scaling.
func TestDieParamsN1(t *testing.T) {
	if DieParams(318.15, 1) != DefaultParams(318.15) {
		t.Fatal("DieParams(·, 1) differs from DefaultParams")
	}
	p4 := DieParams(318.15, 4)
	d := DefaultParams(318.15)
	if p4.SinkRKW != d.SinkRKW/4 || p4.SpreaderRKW != d.SpreaderRKW/4 {
		t.Fatalf("DieParams(·, 4) scaling wrong: %+v", p4)
	}
	if p4.DieThicknessM != d.DieThicknessM || p4.KSiliconWmK != d.KSiliconWmK {
		t.Fatal("DieParams must not touch the silicon stack")
	}
}
