package ramp_test

// Golden equivalence for the manycore path, end to end at N=1: the
// flat-layout QuasiSteadyInto solve the scheduler uses reproduces the
// evaluation's QuasiSteady solves bit for bit on real evaluation data
// (so the results under results/golden/ are exactly what the die path
// computes), and a one-core DieEngine reproduces a real evaluation's
// Assessment byte for byte.
import (
	"testing"

	"ramp/internal/core"
	"ramp/internal/exp"
	"ramp/internal/floorplan"
	"ramp/internal/power"
	"ramp/internal/thermal"
	"ramp/internal/trace"
)

func TestGoldenDieEquivalence(t *testing.T) {
	env := exp.NewEnv(exp.QuickOptions())
	qual := env.Qualification(400)
	app := trace.Bzip2()
	res, err := env.Evaluate(app, env.Base, qual)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) == 0 {
		t.Fatal("evaluation returned no epoch rows")
	}

	die := floorplan.MustNewDie(env.FP, 1)

	// Thermal: re-solving every epoch's stored power through the flat
	// die layout of a one-core model matches the evaluation's solves
	// bitwise.
	dm := thermal.MustNew(die, thermal.DieParams(env.Tech.AmbientK, 1))
	out := make([]float64, die.NumBlocks())
	for i := range res.Epochs {
		row := &res.Epochs[i]
		want := env.Thermal.QuasiSteady(row.PowerW, res.SinkK)
		dm.QuasiSteadyInto(out, row.PowerW[:], res.SinkK)
		for s := range want {
			if out[s] != want[s] {
				t.Fatalf("epoch %d block %d: die solve %v, model solve %v", i, s, out[s], want[s])
			}
		}
	}

	// RAMP: replaying the evaluation's epoch rows through a one-core
	// DieEngine reproduces the evaluation's own Assessment byte for byte
	// (same accumulation order, same budget — TargetFIT/1 is exact).
	de := core.MustNewDieEngine(die, env.Params, qual)
	on := power.OnFractions(env.Base, env.Base)
	for i := range res.Epochs {
		row := &res.Epochs[i]
		iv := core.Interval{DurationSec: row.Sim.TimeSec}
		for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
			iv.Structures[s] = core.Conditions{
				TempK:      row.TempK[s],
				VddV:       env.Base.VddV,
				FreqHz:     env.Base.FreqHz,
				Activity:   row.Sim.Activity[s],
				OnFraction: on[s],
			}
		}
		if err := de.ObserveCore(0, iv); err != nil {
			t.Fatal(err)
		}
	}
	da, err := de.Assess()
	if err != nil {
		t.Fatal(err)
	}
	if da.Cores[0] != res.Assessment {
		t.Fatalf("one-core die assessment differs from the evaluation's:\n die:  %+v\n eval: %+v",
			da.Cores[0], res.Assessment)
	}
	if da.ChipFIT != res.Assessment.TotalFIT || da.MinCoreMTTFYears != res.Assessment.MTTFYears {
		t.Fatalf("chip rollup differs from single-core totals: %+v", da)
	}
}
