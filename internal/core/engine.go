package core

import (
	"fmt"
	"math"
	"time"

	"ramp/internal/check"
	"ramp/internal/floorplan"
)

// Interval is one observation the engine folds into the application's
// FIT value: a duration (used only as an averaging weight) and each
// structure's operating conditions during it.
type Interval struct {
	DurationSec float64
	Structures  [floorplan.NumStructures]Conditions
}

// Engine computes application-level FIT values (Section 3.6): it
// evaluates instantaneous per-structure, per-mechanism FIT at every
// observed interval and averages over time; thermal cycling instead uses
// the run-average temperature, so it is evaluated once at the end.
//
// An Engine is the simulation-side realisation of RAMP; in hardware the
// same computation would be driven by temperature sensors and activity
// counters (Section 3).
type Engine struct {
	params Params
	budget *Budget
	timers *FITTimers // per-mechanism timing, nil = untimed fast path

	timeSum float64
	fitSum  [floorplan.NumStructures][3]float64 // EM, SM, TDDB time-weighted
	tempSum [floorplan.NumStructures]float64    // time-weighted temperature
	onSum   [floorplan.NumStructures]float64    // time-weighted on-fraction
	maxTemp float64
	n       int
}

// NewEngine builds an engine for a floorplan, parameter set and
// qualification point.
func NewEngine(fp *floorplan.Floorplan, p Params, q Qualification) (*Engine, error) {
	b, err := NewBudget(fp, p, q)
	if err != nil {
		return nil, err
	}
	return &Engine{params: p, budget: b}, nil
}

// Budget exposes the engine's qualification budget.
func (e *Engine) Budget() *Budget { return e.budget }

// Params exposes the engine's device-model constants.
func (e *Engine) Params() Params { return e.params }

// Observe folds one interval into the running averages.
//
//ramp:hot
func (e *Engine) Observe(iv Interval) error {
	if iv.DurationSec <= 0 {
		return fmt.Errorf("core: non-positive interval duration %v", iv.DurationSec)
	}
	w := iv.DurationSec
	for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
		c := iv.Structures[s]
		if c.TempK <= 0 {
			return fmt.Errorf("core: non-positive temperature for %v", s)
		}
		// The error above rejects the impossible; the debug checks also
		// reject the implausible (Celsius leaks, [0,1] violations).
		check.TempK("core.Engine.Observe", c.TempK)
		check.Probability("core.Engine.Observe.Activity", c.Activity)
		check.Probability("core.Engine.Observe.OnFraction", c.OnFraction)
	}
	if e.timers != nil {
		// Mechanism-major so each model's evaluation times as one block;
		// every fitSum slot receives the same additions in the same order
		// as the loop below, so the sums stay bitwise identical.
		e.observeTimed(iv, w)
		e.timeSum += w
		e.n++
		return nil
	}
	for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
		c := iv.Structures[s]
		e.fitSum[s][EM] += w * e.budget.InstantFIT(e.params, s, EM, c)
		e.fitSum[s][SM] += w * e.budget.InstantFIT(e.params, s, SM, c)
		e.fitSum[s][TDDB] += w * e.budget.InstantFIT(e.params, s, TDDB, c)
		e.tempSum[s] += w * c.TempK
		e.onSum[s] += w * c.OnFraction
		if c.TempK > e.maxTemp {
			e.maxTemp = c.TempK
		}
	}
	e.timeSum += w
	e.n++
	return nil
}

// Reset clears all accumulated observations (timers stay attached).
func (e *Engine) Reset() {
	*e = Engine{params: e.params, budget: e.budget, timers: e.timers}
}

// Assessment is the engine's verdict for the observed run.
type Assessment struct {
	// FIT by structure and mechanism (time-averaged; TC from the
	// run-average temperature).
	FIT [floorplan.NumStructures][NumMechanisms]float64

	TotalFIT  float64
	MTTFHours float64
	MTTFYears float64

	AvgTempK [floorplan.NumStructures]float64
	MaxTempK float64

	Intervals int
	TimeSec   float64
}

// ByMechanism sums the assessment's FIT per mechanism.
func (a Assessment) ByMechanism() [NumMechanisms]float64 {
	var out [NumMechanisms]float64
	for s := 0; s < int(floorplan.NumStructures); s++ {
		for m := 0; m < int(NumMechanisms); m++ {
			out[m] += a.FIT[s][m]
		}
	}
	return out
}

// ByStructure sums the assessment's FIT per structure.
func (a Assessment) ByStructure() [floorplan.NumStructures]float64 {
	var out [floorplan.NumStructures]float64
	for s := 0; s < int(floorplan.NumStructures); s++ {
		for m := 0; m < int(NumMechanisms); m++ {
			out[s] += a.FIT[s][m]
		}
	}
	return out
}

// Assess computes the application FIT value from everything observed so
// far. It returns an error if nothing was observed.
func (e *Engine) Assess() (Assessment, error) {
	if e.timeSum <= 0 {
		return Assessment{}, fmt.Errorf("core: nothing observed")
	}
	var a Assessment
	a.Intervals = e.n
	a.TimeSec = e.timeSum
	a.MaxTempK = e.maxTemp
	var tcStart time.Time
	if e.timers != nil {
		tcStart = time.Now()
	}
	for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
		avgT := e.tempSum[s] / e.timeSum
		a.AvgTempK[s] = avgT
		a.FIT[s][EM] = e.fitSum[s][EM] / e.timeSum
		a.FIT[s][SM] = e.fitSum[s][SM] / e.timeSum
		a.FIT[s][TDDB] = e.fitSum[s][TDDB] / e.timeSum
		// Thermal cycling: the modelled cycle is between the structure's
		// average temperature and ambient (Section 3.6).
		tcCond := Conditions{TempK: avgT}
		a.FIT[s][TC] = e.budget.InstantFIT(e.params, s, TC, tcCond)
		for m := 0; m < int(NumMechanisms); m++ {
			a.TotalFIT += a.FIT[s][m]
		}
	}
	if e.timers != nil {
		// TC is only evaluated here (it needs run-average temperatures);
		// the divisions sharing the loop are noise next to the model call.
		e.timers.TC.Add(time.Since(tcStart).Nanoseconds())
	}
	if a.TotalFIT > 0 {
		a.MTTFHours = 1e9 / a.TotalFIT
		a.MTTFYears = a.MTTFHours / 8760
		check.Finite("core.Engine.Assess.MTTFHours", a.MTTFHours)
	} else {
		a.MTTFHours = math.Inf(1)
		a.MTTFYears = math.Inf(1)
	}
	check.NonNegative("core.Engine.Assess.TotalFIT", a.TotalFIT)
	return a, nil
}

// ConstantConditionsFIT is a convenience for steady-state analysis: the
// total FIT if every structure ran forever at the given conditions.
func ConstantConditionsFIT(fp *floorplan.Floorplan, p Params, q Qualification, c Conditions) (float64, error) {
	e, err := NewEngine(fp, p, q)
	if err != nil {
		return 0, err
	}
	iv := Interval{DurationSec: 1}
	for s := range iv.Structures {
		iv.Structures[s] = c
	}
	if err := e.Observe(iv); err != nil {
		return 0, err
	}
	a, err := e.Assess()
	if err != nil {
		return 0, err
	}
	return a.TotalFIT, nil
}
