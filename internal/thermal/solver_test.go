package thermal

import (
	"math"
	"math/rand"
	"testing"

	"ramp/internal/floorplan"
	"ramp/internal/power"
)

// The production solve runs against a matrix factorized once at New
// time. These tests check it against one-shot Gaussian elimination (the
// dense oracle below) over the same production-assembled network, and
// the physics tests use the oracle's full-network steady state — the
// sink connected to ambient instead of pinned — as their reference.

// dense is a one-shot Gaussian-elimination solver, independent of the
// production lu.
type dense struct {
	n int
	a []float64 // row-major n x n
}

func newDense(n int) *dense {
	return &dense{n: n, a: make([]float64, n*n)}
}

func (d *dense) add(i, j int, v float64) {
	d.a[i*d.n+j] += v
}

// solve solves d·x = b, destroying d and b.
func (d *dense) solve(b []float64) []float64 {
	n := d.n
	a := d.a
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		pmax := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > pmax {
				pmax = v
				p = r
			}
		}
		if pmax == 0 {
			panic("thermal: singular conductance matrix")
		}
		if p != col {
			for k := 0; k < n; k++ {
				a[col*n+k], a[p*n+k] = a[p*n+k], a[col*n+k]
			}
			b[col], b[p] = b[p], b[col]
		}
		pivInv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * pivInv
			if f == 0 {
				continue
			}
			a[r*n+col] = 0
			for k := col + 1; k < n; k++ {
				a[r*n+k] -= f * a[col*n+k]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for k := r + 1; k < n; k++ {
			s -= a[r*n+k] * x[k]
		}
		x[r] = s / a[r*n+r]
	}
	return x
}

// network returns the production conductance matrix of die and its
// node count.
func network(t *testing.T, die *floorplan.Die, p Params) ([]float64, int) {
	t.Helper()
	g, err := assembleNetwork(die, p)
	if err != nil {
		t.Fatal(err)
	}
	return g, die.NumBlocks() + 2
}

// laplacian returns the conductance Laplacian of the first dim nodes of
// the n-node network g: every conductance lands on its row's diagonal,
// but only those between kept nodes appear off the diagonal.
func laplacian(g []float64, n, dim int) *dense {
	d := newDense(dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < n; j++ {
			if gv := g[i*n+j]; j != i && gv != 0 {
				d.add(i, i, gv)
				if j < dim {
					d.add(i, j, -gv)
				}
			}
		}
	}
	return d
}

// oracleSteady solves the full network — sink connected to ambient —
// for constant per-block power and returns every node temperature:
// blocks, then spreader, then sink.
func oracleSteady(t *testing.T, die *floorplan.Die, p Params, blockPower []float64) []float64 {
	g, n := network(t, die, p)
	d := laplacian(g, n, n)
	d.add(n-1, n-1, 1/p.SinkRKW)
	b := make([]float64, n)
	copy(b, blockPower)
	b[n-1] = p.AmbientK / p.SinkRKW
	return d.solve(b)
}

// oracleQuasi solves the network with the sink pinned at sinkK and
// returns the block and spreader temperatures.
func oracleQuasi(t *testing.T, die *floorplan.Die, p Params, blockPower []float64, sinkK float64) []float64 {
	g, n := network(t, die, p)
	nq := n - 1
	d := laplacian(g, n, nq)
	b := make([]float64, nq)
	copy(b, blockPower)
	for i := 0; i < nq; i++ {
		b[i] += g[i*n+n-1] * sinkK
	}
	return d.solve(b)
}

// randomPower draws a power vector with per-block draws spanning idle to
// well above budget, so pivoting sees varied right-hand sides.
func randomPower(rng *rand.Rand) power.Vector {
	var pw power.Vector
	for i := range pw {
		pw[i] = 8 * rng.Float64()
	}
	return pw
}

func TestPrefactorizedQuasiSteadyMatchesGaussianElimination(t *testing.T) {
	die, p := oneCore()
	m := MustNew(die, p)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		pw := randomPower(rng)
		sinkK := 320 + 80*rng.Float64()
		got := m.QuasiSteady(pw, sinkK)
		want := oracleQuasi(t, die, p, pw[:], sinkK)
		for s := range got {
			if d := math.Abs(got[s] - want[s]); d > 1e-9 {
				t.Fatalf("trial %d block %d: LU %v vs GE %v (|Δ| = %v)", trial, s, got[s], want[s], d)
			}
		}
	}
}

// TestPrefactorizedSteadyStateMatchesGaussianElimination checks the
// paper's two-pass composition against the full network: pinning the
// sink at SinkSteadyTemp(total power) and solving quasi-steady gives
// the full-network steady state, for any power map.
func TestPrefactorizedSteadyStateMatchesGaussianElimination(t *testing.T) {
	die, p := oneCore()
	m := MustNew(die, p)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		pw := randomPower(rng)
		got := m.QuasiSteady(pw, m.SinkSteadyTemp(pw.Sum()))
		want := oracleSteady(t, die, p, pw[:])
		for s := range got {
			if d := math.Abs(got[s] - want[s]); d > 1e-9 {
				t.Fatalf("trial %d block %d: two-pass %v vs GE %v (|Δ| = %v)", trial, s, got[s], want[s], d)
			}
		}
	}
}

func TestQuasiSteadyDoesNotAllocate(t *testing.T) {
	m := MustNew(oneCore())
	pw := power.Uniform(2.5)
	allocs := testing.AllocsPerRun(100, func() {
		m.QuasiSteady(pw, 340)
	})
	if allocs != 0 {
		t.Fatalf("QuasiSteady allocates %v objects per call, want 0", allocs)
	}
}
