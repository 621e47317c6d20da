package core

import (
	"fmt"
	"math"

	"ramp/internal/floorplan"
)

// DieEngine owns one RAMP engine per core of a tiled die. Each core
// carries an independent wear accumulator — its own time-weighted FIT
// sums — because on a manycore die the scheduler, not the architecture,
// decides which core ages fastest; chip-level reliability is the SOFR
// combination across all structures of all cores (the chip is a series
// failure system, exactly like the structures within one core).
//
// The qualification budget splits across cores the same way it splits
// across mechanisms and structures: the chip's TargetFIT is divided
// evenly among the n identical cores, then each core's share splits
// per-mechanism and per-structure as in Section 3.7. A one-core
// DieEngine therefore carries exactly the single-core budget
// (TargetFIT/1 is the identical float), and its assessment is
// byte-identical to the plain Engine's.
type DieEngine struct {
	die   *floorplan.Die
	cores []*Engine
}

// NewDieEngine builds per-core engines over the die, splitting the
// qualification FIT target evenly across cores.
func NewDieEngine(die *floorplan.Die, p Params, q Qualification) (*DieEngine, error) {
	if die == nil || die.NCores < 1 {
		return nil, fmt.Errorf("core: die engine needs a die with at least one core")
	}
	qc := q
	qc.TargetFIT = q.TargetFIT / float64(die.NCores)
	d := &DieEngine{die: die, cores: make([]*Engine, die.NCores)}
	for k := range d.cores {
		e, err := NewEngine(die.Base, p, qc)
		if err != nil {
			return nil, err
		}
		d.cores[k] = e
	}
	return d, nil
}

// NCores returns the die's core count.
func (d *DieEngine) NCores() int { return len(d.cores) }

// Core returns core k's engine (its budget, wear state and assessments).
func (d *DieEngine) Core(k int) *Engine { return d.cores[k] }

// SetTimers attaches per-mechanism FIT timers to every core's engine.
func (d *DieEngine) SetTimers(t *FITTimers) {
	for _, e := range d.cores {
		e.SetTimers(t)
	}
}

// Reset clears every core's accumulated observations.
func (d *DieEngine) Reset() {
	for _, e := range d.cores {
		e.Reset()
	}
}

// ObserveCore folds one interval into core k's wear accumulator. This
// is the per-core observe path of the die evaluation loop — called once
// per core per epoch — and performs no heap allocation on success.
//
//ramp:hot
func (d *DieEngine) ObserveCore(k int, iv Interval) error {
	if k < 0 || k >= len(d.cores) {
		panic(fmt.Sprintf("core: ObserveCore core %d out of range [0,%d)", k, len(d.cores)))
	}
	return d.cores[k].Observe(iv)
}

// WearFITSeconds returns the engine's raw wear accumulator: the
// time-integral of instantaneous FIT (FIT·seconds) summed over every
// structure and the three per-interval mechanisms. It is monotone
// non-decreasing across observations, which is what a wear-leveling
// scheduler needs mid-run — unlike Assess, it is defined before the
// first observation (zero) and performs no model evaluation.
func (e *Engine) WearFITSeconds() float64 {
	var w float64
	for s := 0; s < int(floorplan.NumStructures); s++ {
		w += e.fitSum[s][EM] + e.fitSum[s][SM] + e.fitSum[s][TDDB]
	}
	return w
}

// CoreWear returns core k's wear accumulator (see Engine.WearFITSeconds).
func (d *DieEngine) CoreWear(k int) float64 { return d.cores[k].WearFITSeconds() }

// DieAssessment is the chip-level verdict: per-core assessments plus
// their SOFR combination.
type DieAssessment struct {
	Cores []Assessment

	// ChipFIT is the SOFR total across all structures of all cores; the
	// chip fails when any structure of any core fails.
	ChipFIT       float64
	ChipMTTFHours float64
	ChipMTTFYears float64

	// MinCoreMTTFYears is the expected lifetime to the first core
	// failure — the wear-lifetime metric the scheduler policies compete
	// on (a chip that cannot tolerate core loss dies with its weakest
	// core).
	MinCoreMTTFYears float64
	// WorstCore is the index attaining MinCoreMTTFYears.
	WorstCore int

	MaxTempK float64
}

// Assess combines every core's assessment under SOFR. It returns an
// error if any core has observed nothing.
func (d *DieEngine) Assess() (DieAssessment, error) {
	a := DieAssessment{Cores: make([]Assessment, len(d.cores)), MinCoreMTTFYears: math.Inf(1)}
	for k, e := range d.cores {
		ca, err := e.Assess()
		if err != nil {
			return DieAssessment{}, fmt.Errorf("core %d: %w", k, err)
		}
		a.Cores[k] = ca
		a.ChipFIT += ca.TotalFIT
		if ca.MTTFYears < a.MinCoreMTTFYears {
			a.MinCoreMTTFYears = ca.MTTFYears
			a.WorstCore = k
		}
		if ca.MaxTempK > a.MaxTempK {
			a.MaxTempK = ca.MaxTempK
		}
	}
	if a.ChipFIT > 0 {
		a.ChipMTTFHours = 1e9 / a.ChipFIT
		a.ChipMTTFYears = a.ChipMTTFHours / 8760
	} else {
		a.ChipMTTFHours = math.Inf(1)
		a.ChipMTTFYears = math.Inf(1)
	}
	return a, nil
}
