package core

import (
	"testing"

	"ramp/internal/floorplan"
	"ramp/internal/obs"
)

// TestObserveTimedBitwiseIdentical proves the per-mechanism FIT timers
// are observational only: an engine with timers attached (mechanism-major
// Observe) produces a bitwise-identical assessment to the untimed
// structure-major engine over the same interval stream.
func TestObserveTimedBitwiseIdentical(t *testing.T) {
	fp := floorplan.R10000Like()
	plain := mustNewEngine(t, fp, params(), qual())
	timed := mustNewEngine(t, fp, params(), qual())
	timed.SetTimers(NewFITTimers(obs.NewRegistry()))

	// A varied interval stream: temperatures, activities and durations
	// all change so every fitSum slot accumulates several distinct values.
	for i := 0; i < 7; i++ {
		iv := Interval{DurationSec: 0.5 + 0.13*float64(i)}
		for s := range iv.Structures {
			iv.Structures[s] = Conditions{
				TempK:      345 + 3.7*float64(i) + 1.9*float64(s),
				VddV:       1.0 + 0.01*float64(i%3),
				FreqHz:     4e9 - 1e8*float64(i%4),
				Activity:   0.1 + 0.05*float64((i+s)%10),
				OnFraction: 1 - 0.03*float64(s%5),
			}
		}
		if err := plain.Observe(iv); err != nil {
			t.Fatal(err)
		}
		if err := timed.Observe(iv); err != nil {
			t.Fatal(err)
		}
	}
	pa := mustAssess(t, plain)
	ta := mustAssess(t, timed)
	if pa != ta {
		t.Errorf("timed assessment diverges from untimed:\nplain: %+v\ntimed: %+v", pa, ta)
	}
}

// TestFITTimersAccumulate checks the timers actually record time and
// survive Reset.
func TestFITTimersAccumulate(t *testing.T) {
	reg := obs.NewRegistry()
	e := mustNewEngine(t, floorplan.R10000Like(), params(), qual())
	e.SetTimers(NewFITTimers(reg))
	iv := Interval{DurationSec: 1}
	for s := range iv.Structures {
		iv.Structures[s] = conds(360)
	}
	for i := 0; i < 50; i++ {
		if err := e.Observe(iv); err != nil {
			t.Fatal(err)
		}
	}
	mustAssess(t, e)
	for _, name := range []string{
		"core_fit_compute_ns_em", "core_fit_compute_ns_sm",
		"core_fit_compute_ns_tddb", "core_fit_compute_ns_tc",
	} {
		if reg.Counter(name).Value() <= 0 {
			t.Errorf("%s recorded no time", name)
		}
	}
	e.Reset()
	before := reg.Counter("core_fit_compute_ns_em").Value()
	if err := e.Observe(iv); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("core_fit_compute_ns_em").Value() <= before {
		t.Error("timers detached by Reset")
	}
}

func TestNewFITTimersNilRegistry(t *testing.T) {
	if NewFITTimers(nil) != nil {
		t.Error("nil registry should produce nil timers (untimed fast path)")
	}
}
