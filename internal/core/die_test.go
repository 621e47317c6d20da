package core

import (
	"math"
	"testing"

	"ramp/internal/floorplan"
)

func dieInterval(tempK float64) Interval {
	iv := Interval{DurationSec: 3.0}
	for s := range iv.Structures {
		iv.Structures[s] = conds(tempK + 0.5*float64(s))
	}
	return iv
}

// TestDieEngineN1MatchesEngine pins the tentpole contract: a one-core
// DieEngine is the plain Engine bit for bit — same budget (TargetFIT/1
// is the identical float), same accumulators, same assessment.
func TestDieEngineN1MatchesEngine(t *testing.T) {
	fp := floorplan.R10000Like()
	e := mustNewEngine(t, fp, params(), qual())
	d := mustNewDieEngine(t, floorplan.MustNewDie(fp, 1), params(), qual())

	be, bd := e.Budget(), d.Core(0).Budget()
	if be.Alloc != bd.Alloc || be.QualRate != bd.QualRate {
		t.Fatal("N=1 die budget differs from single-core budget")
	}

	for _, temp := range []float64{345, 360, 372.5} {
		iv := dieInterval(temp)
		if err := e.Observe(iv); err != nil {
			t.Fatal(err)
		}
		if err := d.ObserveCore(0, iv); err != nil {
			t.Fatal(err)
		}
	}
	want := mustAssess(t, e)
	got, err := d.Assess()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cores) != 1 || got.Cores[0] != want {
		t.Fatalf("N=1 die assessment differs:\n die  %+v\n core %+v", got.Cores[0], want)
	}
	if got.ChipFIT != want.TotalFIT || got.ChipMTTFYears != want.MTTFYears ||
		got.MinCoreMTTFYears != want.MTTFYears || got.MaxTempK != want.MaxTempK {
		t.Fatalf("N=1 chip rollup differs: %+v vs %+v", got, want)
	}
	if e.WearFITSeconds() != d.CoreWear(0) {
		t.Fatal("N=1 wear accumulator differs")
	}
}

// TestDieEngineBudgetSplit checks the per-core qualification split: each
// core's budget is the chip budget divided by n, so the SOFR total at
// qualification conditions still meets the chip TargetFIT.
func TestDieEngineBudgetSplit(t *testing.T) {
	fp := floorplan.R10000Like()
	n := 4
	d := mustNewDieEngine(t, floorplan.MustNewDie(fp, n), params(), qual())
	chip := mustNewEngine(t, fp, params(), qual())

	var sum float64
	for k := 0; k < n; k++ {
		b := d.Core(k).Budget()
		for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
			for _, m := range Mechanisms() {
				if want := chip.Budget().Alloc[s][m] / float64(n); math.Abs(b.Alloc[s][m]-want) > 1e-12 {
					t.Fatalf("core %d alloc[%v][%v] = %v, want %v", k, s, m, b.Alloc[s][m], want)
				}
				sum += b.Alloc[s][m]
			}
		}
	}
	if math.Abs(sum-qual().TargetFIT) > 1e-9 {
		t.Fatalf("per-core budgets sum to %v FIT, want %v", sum, qual().TargetFIT)
	}
}

// TestDieEngineSOFR checks the chip combination: ChipFIT is the sum of
// per-core totals (series failure system), the worst core sets
// MinCoreMTTFYears, and per-core wear accumulates independently.
func TestDieEngineSOFR(t *testing.T) {
	fp := floorplan.R10000Like()
	d := mustNewDieEngine(t, floorplan.MustNewDie(fp, 4), params(), qual())

	temps := []float64{350, 365, 380, 340} // core 2 runs hottest
	for e := 0; e < 5; e++ {
		for k := 0; k < 4; k++ {
			if err := d.ObserveCore(k, dieInterval(temps[k])); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, err := d.Assess()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, ca := range a.Cores {
		sum += ca.TotalFIT
	}
	if math.Abs(a.ChipFIT-sum) > 1e-12*sum {
		t.Fatalf("ChipFIT %v != sum of core FITs %v", a.ChipFIT, sum)
	}
	if a.WorstCore != 2 {
		t.Fatalf("worst core %d, want the hottest (2)", a.WorstCore)
	}
	if a.MinCoreMTTFYears != a.Cores[2].MTTFYears {
		t.Fatal("MinCoreMTTFYears not the worst core's MTTF")
	}
	if !(d.CoreWear(2) > d.CoreWear(3)) {
		t.Fatal("hotter core accumulated less wear")
	}
	if a.ChipMTTFYears >= a.MinCoreMTTFYears {
		t.Fatal("chip SOFR MTTF must be below the best single core's")
	}

	// Assessing an unobserved die fails per-core.
	d2 := mustNewDieEngine(t, floorplan.MustNewDie(fp, 2), params(), qual())
	if _, err := d2.Assess(); err == nil {
		t.Fatal("Assess on unobserved die should fail")
	}
}

// TestObserveCoreAllocFree pins the per-core observe hot path: zero heap
// allocations per interval.
func TestObserveCoreAllocFree(t *testing.T) {
	d := mustNewDieEngine(t, floorplan.MustNewDie(floorplan.R10000Like(), 4), params(), qual())
	iv := dieInterval(355)
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.ObserveCore(1, iv); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ObserveCore allocates %.1f times per interval, want 0", allocs)
	}
}
