package thermal

import (
	"fmt"
	"math"
	"testing"

	"ramp/internal/floorplan"
	"ramp/internal/power"
)

const ambientK = 313

// oneCore returns the single-core die and package of a standard
// evaluation.
func oneCore() (*floorplan.Die, Params) {
	return floorplan.MustNewDie(floorplan.R10000Like(), 1), DefaultParams(ambientK)
}

// forDies runs a physics check on a one-core and a four-core die, each
// with its scaled package (DieParams).
func forDies(t *testing.T, check func(t *testing.T, die *floorplan.Die, p Params)) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			check(t, floorplan.MustNewDie(floorplan.R10000Like(), n), DieParams(ambientK, n))
		})
	}
}

// uniform returns per-block power w on every block of die.
func uniform(die *floorplan.Die, w float64) []float64 {
	bp := make([]float64, die.NumBlocks())
	for i := range bp {
		bp[i] = w
	}
	return bp
}

func TestZeroPowerIsAmbient(t *testing.T) {
	forDies(t, func(t *testing.T, die *floorplan.Die, p Params) {
		for i, temp := range oracleSteady(t, die, p, uniform(die, 0)) {
			if math.Abs(temp-ambientK) > 1e-6 {
				t.Fatalf("node %d at %v K with zero power", i, temp)
			}
		}
	})
}

func TestSinkTempEnergyConservation(t *testing.T) {
	forDies(t, func(t *testing.T, die *floorplan.Die, p Params) {
		// In steady state all generated heat flows through the sink's
		// convection resistance, which DieParams divides by the core
		// count: T_sink = T_amb + P_total · R_sink / N.
		bp := uniform(die, 2.0) // 22 W per core
		total := 2.0 * float64(len(bp))
		want := ambientK + total*DefaultParams(ambientK).SinkRKW/float64(die.NCores)
		temps := oracleSteady(t, die, p, bp)
		if sink := temps[len(temps)-1]; math.Abs(sink-want) > 1e-6 {
			t.Fatalf("sink temp = %v, want %v", sink, want)
		}
		if got := MustNew(die, p).SinkSteadyTemp(total); math.Abs(got-want) > 1e-9 {
			t.Fatalf("SinkSteadyTemp = %v, want %v", got, want)
		}
	})
}

func TestTemperatureOrdering(t *testing.T) {
	forDies(t, func(t *testing.T, die *floorplan.Die, p Params) {
		temps := oracleSteady(t, die, p, uniform(die, 2.0))
		sink := temps[len(temps)-1]
		spreader := temps[len(temps)-2]
		if !(spreader > sink && sink > ambientK) {
			t.Fatalf("ordering broken: spreader %v sink %v", spreader, sink)
		}
		for i := 0; i < die.NumBlocks(); i++ {
			if temps[i] <= spreader {
				c, s := die.CoreOf(i)
				t.Fatalf("powered block %d/%v cooler than spreader", c, s)
			}
		}
	})
}

func TestPowerDensityDrivesHotspots(t *testing.T) {
	forDies(t, func(t *testing.T, die *floorplan.Die, p Params) {
		// Equal power into a small block vs a large one: the small block
		// (higher density) must run hotter.
		bp := uniform(die, 0)
		agu, l1d := die.Index(0, floorplan.AGU), die.Index(0, floorplan.L1D)
		bp[agu] = 3 // 0.81 mm^2
		bp[l1d] = 3 // 4.05 mm^2
		temps := oracleSteady(t, die, p, bp)
		if temps[agu] <= temps[l1d] {
			t.Fatalf("denser block not hotter: AGU %v (%.2fmm2) vs L1D %v (%.2fmm2)",
				temps[agu], die.AreaMM2(0, floorplan.AGU), temps[l1d], die.AreaMM2(0, floorplan.L1D))
		}
	})
}

func TestLateralCouplingWarmsNeighbours(t *testing.T) {
	forDies(t, func(t *testing.T, die *floorplan.Die, p Params) {
		bp := uniform(die, 0)
		bp[die.Index(0, floorplan.IntALU)] = 10
		temps := oracleSteady(t, die, p, bp)
		// AGU is adjacent to IntALU; BPred is across the core.
		agu, bpred := temps[die.Index(0, floorplan.AGU)], temps[die.Index(0, floorplan.BPred)]
		if agu <= bpred {
			t.Fatalf("adjacent block not warmer: AGU %v vs BPred %v", agu, bpred)
		}
	})
}

func TestMoreCoolingLowersTemps(t *testing.T) {
	forDies(t, func(t *testing.T, die *floorplan.Die, p Params) {
		better := p
		better.SinkRKW = p.SinkRKW / 2
		bp := uniform(die, 3)
		t1 := oracleSteady(t, die, p, bp)
		t2 := oracleSteady(t, die, better, bp)
		for i := range t1 {
			if t2[i] >= t1[i] {
				t.Fatalf("better sink did not cool node %d: %v vs %v", i, t2[i], t1[i])
			}
		}
	})
}

// TestQuasiSteadyMatchesSteadyState pins the second pass: with the sink
// pinned at its full-network steady temperature, the production solve
// reproduces the full-network block temperatures.
func TestQuasiSteadyMatchesSteadyState(t *testing.T) {
	forDies(t, func(t *testing.T, die *floorplan.Die, p Params) {
		bp := uniform(die, 2.5)
		full := oracleSteady(t, die, p, bp)
		got := make([]float64, die.NumBlocks())
		MustNew(die, p).QuasiSteadyInto(got, bp, full[len(full)-1])
		for i := range got {
			if math.Abs(got[i]-full[i]) > 1e-6 {
				t.Fatalf("block %d: quasi %v vs full %v", i, got[i], full[i])
			}
		}
	})
}

func TestNewRejectsBadParams(t *testing.T) {
	die, p := oneCore()
	p.SinkRKW = 0
	if _, err := New(die, p); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestMaxBlock(t *testing.T) {
	var v power.Vector
	v[floorplan.FPU] = 400
	v[floorplan.L1I] = 350
	s, temp := MaxBlock(v)
	if s != floorplan.FPU || temp != 400 {
		t.Fatalf("MaxBlock = %v %v", s, temp)
	}
}
