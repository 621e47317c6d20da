package core

import (
	"math"
	"testing"
	"testing/quick"

	"ramp/internal/floorplan"
)

func params() Params { return DefaultParams(TCAmbientK) }

func qual() Qualification {
	return Qualification{
		TqualK: 400, VqualV: 1.0, FqualHz: 4e9, Aqual: 0.5,
		TargetFIT: StandardTargetFIT,
	}
}

// mustNewEngine is NewEngine, failing the test on invalid inputs.
func mustNewEngine(t testing.TB, fp *floorplan.Floorplan, p Params, q Qualification) *Engine {
	t.Helper()
	e, err := NewEngine(fp, p, q)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mustNewDieEngine is NewDieEngine, failing the test on invalid inputs.
func mustNewDieEngine(t testing.TB, die *floorplan.Die, p Params, q Qualification) *DieEngine {
	t.Helper()
	d, err := NewDieEngine(die, p, q)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// mustAssess is e.Assess, failing the test if nothing was observed.
func mustAssess(t testing.TB, e *Engine) Assessment {
	t.Helper()
	a, err := e.Assess()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func conds(tempK float64) Conditions {
	return Conditions{TempK: tempK, VddV: 1.0, FreqHz: 4e9, Activity: 0.5, OnFraction: 1}
}

func TestMechanismString(t *testing.T) {
	if EM.String() != "EM" || TDDB.String() != "TDDB" || TC.String() != "TC" {
		t.Fatal("mechanism names broken")
	}
	if Mechanism(42).String() == "" {
		t.Fatal("out-of-range mechanism name empty")
	}
	if len(Mechanisms()) != int(NumMechanisms) {
		t.Fatal("Mechanisms() incomplete")
	}
}

func TestEMRateProperties(t *testing.T) {
	p := params()
	// Exponential acceleration with temperature.
	if p.EMRate(conds(380)) <= p.EMRate(conds(350)) {
		t.Fatal("EM not accelerated by temperature")
	}
	// Higher current density (V, f, a) raises the rate.
	c := conds(360)
	c.Activity = 0.8
	if p.EMRate(c) <= p.EMRate(conds(360)) {
		t.Fatal("EM not accelerated by activity")
	}
	c = conds(360)
	c.FreqHz = 5e9
	if p.EMRate(c) <= p.EMRate(conds(360)) {
		t.Fatal("EM not accelerated by frequency")
	}
	// No current, no electromigration.
	c = conds(360)
	c.Activity = 0
	if p.EMRate(c) != 0 {
		t.Fatal("EM without current flow")
	}
	// Gating scales the rate.
	c = conds(360)
	c.OnFraction = 0.5
	if math.Abs(p.EMRate(c)/p.EMRate(conds(360))-0.5) > 1e-12 {
		t.Fatal("EM gating broken")
	}
}

func TestSMRateProperties(t *testing.T) {
	p := params()
	// Near the deposition temperature the stress vanishes; the Arrhenius
	// term still grows, but the |T0-T|^n factor dominates close to T0.
	if p.SMRate(conds(499)) >= p.SMRate(conds(400)) {
		t.Fatal("SM should fall approaching the stress-free temperature")
	}
	// In the operating range, higher temperature accelerates SM: the
	// exponential wins over the shrinking differential (Section 3.2).
	if p.SMRate(conds(390)) <= p.SMRate(conds(340)) {
		t.Fatal("SM not accelerated by temperature in the operating range")
	}
	// SM is independent of gating, voltage and frequency.
	c := conds(360)
	c.OnFraction = 0.1
	c.VddV = 0.7
	c.FreqHz = 1e9
	if p.SMRate(c) != p.SMRate(conds(360)) {
		t.Fatal("SM should depend only on temperature")
	}
}

func TestTDDBRateProperties(t *testing.T) {
	p := params()
	// Strong voltage acceleration: the paper's reason DVS works so well.
	hi := conds(360)
	hi.VddV = 1.05
	lo := conds(360)
	lo.VddV = 0.95
	base := p.TDDBRate(conds(360))
	if p.TDDBRate(hi) < base*4 {
		t.Fatalf("TDDB voltage acceleration too weak: %v vs %v", p.TDDBRate(hi), base)
	}
	if p.TDDBRate(lo) > base/4 {
		t.Fatalf("TDDB voltage deceleration too weak: %v vs %v", p.TDDBRate(lo), base)
	}
	// Larger-than-exponential temperature dependence: rate grows with T.
	if p.TDDBRate(conds(390)) <= p.TDDBRate(conds(350)) {
		t.Fatal("TDDB not accelerated by temperature")
	}
	// Supply gating removes the field.
	g := conds(360)
	g.OnFraction = 0
	if p.TDDBRate(g) != 0 {
		t.Fatal("gated oxide still failing")
	}
}

func TestTCRateProperties(t *testing.T) {
	p := params()
	if p.TCRate(TCAmbientK) != 0 || p.TCRate(TCAmbientK-10) != 0 {
		t.Fatal("no cycle, no fatigue")
	}
	if p.TCRate(380) <= p.TCRate(340) {
		t.Fatal("TC not accelerated by larger cycles")
	}
	// Coffin-Manson with q=2.35: doubling the cycle multiplies the rate
	// by 2^2.35.
	r1 := p.TCRate(TCAmbientK + 20)
	r2 := p.TCRate(TCAmbientK + 40)
	if math.Abs(r2/r1-math.Pow(2, 2.35)) > 1e-9 {
		t.Fatalf("Coffin-Manson exponent broken: ratio %v", r2/r1)
	}
}

func TestRateDispatch(t *testing.T) {
	p := params()
	c := conds(360)
	if p.Rate(EM, c) != p.EMRate(c) || p.Rate(SM, c) != p.SMRate(c) ||
		p.Rate(TDDB, c) != p.TDDBRate(c) || p.Rate(TC, c) != p.TCRate(c.TempK) {
		t.Fatal("Rate dispatch broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unknown mechanism")
		}
	}()
	p.Rate(Mechanism(9), c)
}

func TestBudgetAllocation(t *testing.T) {
	fp := floorplan.R10000Like()
	b, err := NewBudget(fp, params(), qual())
	if err != nil {
		t.Fatal(err)
	}
	// Total allocation equals the FIT target; each mechanism gets an
	// even quarter; structures split by area (Section 3.7).
	var total float64
	var perMech [NumMechanisms]float64
	for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
		for m := 0; m < int(NumMechanisms); m++ {
			total += b.Alloc[s][m]
			perMech[m] += b.Alloc[s][m]
		}
	}
	if math.Abs(total-StandardTargetFIT) > 1e-9 {
		t.Fatalf("total allocation %v", total)
	}
	for m, x := range perMech {
		if math.Abs(x-StandardTargetFIT/4) > 1e-9 {
			t.Fatalf("mechanism %v allocation %v", Mechanism(m), x)
		}
	}
	// Area proportionality: L1D (4.05 mm^2) gets 5x the BPred-sized
	// share of AGU (0.81 mm^2).
	ratio := b.Alloc[floorplan.L1D][EM] / b.Alloc[floorplan.AGU][EM]
	if math.Abs(ratio-5) > 1e-9 {
		t.Fatalf("area split ratio %v, want 5", ratio)
	}
}

func TestTqualDomainIsWhereTheBudgetExists(t *testing.T) {
	// CheckTqual's open interval (AmbientK, SMT0K) is exactly where every
	// qualification rate is positive: NewBudget succeeds inside it and
	// fails at and beyond both ends, where TC's or SM's rate is zero.
	fp := floorplan.R10000Like()
	p := params()
	for _, tq := range []float64{0, 250, 290, p.AmbientK, p.AmbientK + 0.01, 295, 400, p.SMT0K - 0.01, p.SMT0K, 520, math.NaN()} {
		q := qual()
		q.TqualK = tq
		_, budgetErr := NewBudget(fp, p, q)
		domainErr := p.CheckTqual("T_qual", tq)
		if (budgetErr == nil) != (domainErr == nil) {
			t.Errorf("T_qual %v: NewBudget err %v, CheckTqual err %v", tq, budgetErr, domainErr)
		}
	}
	// The ends are the model's own zeros, not a policy choice.
	if r := p.TCRate(p.AmbientK); r != 0 {
		t.Errorf("TC rate at the ambient = %v, want 0", r)
	}
	if r := p.SMRate(conds(p.SMT0K)); r != 0 {
		t.Errorf("SM rate at T0 = %v, want 0", r)
	}
	if err := p.CheckTqual("tqual_k", 280); err == nil || err.Error() != "tqual_k 280 outside the qualification domain (293, 500) K" {
		t.Errorf("CheckTqual(280) = %v", err)
	}
}

func TestQualificationRoundTrip(t *testing.T) {
	// Running forever at exactly the qualification conditions must yield
	// exactly the target FIT value — the defining property of the
	// budget-ratio formulation.
	fp := floorplan.R10000Like()
	q := qual()
	e := mustNewEngine(t, fp, params(), q)
	iv := Interval{DurationSec: 1}
	for s := range iv.Structures {
		iv.Structures[s] = q.Conditions()
	}
	if err := e.Observe(iv); err != nil {
		t.Fatal(err)
	}
	a := mustAssess(t, e)
	if math.Abs(a.TotalFIT-q.TargetFIT) > 1e-6 {
		t.Fatalf("FIT at qualification point = %v, want %v", a.TotalFIT, q.TargetFIT)
	}
	// MTTF at 4000 FIT is ~28.5 years (the paper's ~30-year target).
	if a.MTTFYears < 25 || a.MTTFYears > 32 {
		t.Fatalf("MTTF at target = %v years", a.MTTFYears)
	}
}

func TestCoolerRunBeatsTarget(t *testing.T) {
	fp := floorplan.R10000Like()
	fit, err := ConstantConditionsFIT(fp, params(), qual(), conds(360))
	if err != nil {
		t.Fatal(err)
	}
	if fit >= StandardTargetFIT {
		t.Fatalf("cooler-than-qual run FIT %v not below target", fit)
	}
}

func TestHotterRunMissesTarget(t *testing.T) {
	fp := floorplan.R10000Like()
	fit, err := ConstantConditionsFIT(fp, params(), qual(), conds(420))
	if err != nil {
		t.Fatal(err)
	}
	if fit <= StandardTargetFIT {
		t.Fatalf("hotter-than-qual run FIT %v not above target", fit)
	}
}

func TestTimeAveraging(t *testing.T) {
	// Section 3.6: the application FIT is the time-weighted average of
	// instantaneous FIT (for EM/SM/TDDB).
	fp := floorplan.R10000Like()
	p := params()
	q := qual()

	mkEngine := func() *Engine { return mustNewEngine(t, fp, p, q) }
	observe := func(e *Engine, temp, dur float64) {
		iv := Interval{DurationSec: dur}
		for s := range iv.Structures {
			iv.Structures[s] = conds(temp)
		}
		if err := e.Observe(iv); err != nil {
			t.Fatal(err)
		}
	}

	eHot := mkEngine()
	observe(eHot, 390, 1)
	hot := mustAssess(t, eHot)

	eCold := mkEngine()
	observe(eCold, 350, 1)
	cold := mustAssess(t, eCold)

	eMix := mkEngine()
	observe(eMix, 390, 1)
	observe(eMix, 350, 1)
	mix := mustAssess(t, eMix)

	for _, m := range []Mechanism{EM, SM, TDDB} {
		want := (hot.ByMechanism()[m] + cold.ByMechanism()[m]) / 2
		got := mix.ByMechanism()[m]
		if math.Abs(got-want) > 1e-6*want {
			t.Fatalf("%v: mixed FIT %v, want average %v", m, got, want)
		}
	}
	// TC is NOT averaged: it uses the average temperature (370), which
	// is below the average of the rates (convexity).
	tcAvgRate := (hot.ByMechanism()[TC] + cold.ByMechanism()[TC]) / 2
	if mix.ByMechanism()[TC] >= tcAvgRate {
		t.Fatalf("TC should use average temperature, got %v >= %v",
			mix.ByMechanism()[TC], tcAvgRate)
	}
	if math.Abs(mix.AvgTempK[0]-370) > 1e-9 {
		t.Fatalf("average temperature %v, want 370", mix.AvgTempK[0])
	}
}

func TestEngineValidation(t *testing.T) {
	fp := floorplan.R10000Like()
	e := mustNewEngine(t, fp, params(), qual())
	if _, err := e.Assess(); err == nil {
		t.Fatal("Assess with no observations should error")
	}
	if err := e.Observe(Interval{DurationSec: 0}); err == nil {
		t.Fatal("zero-duration interval accepted")
	}
	iv := Interval{DurationSec: 1}
	if err := e.Observe(iv); err == nil {
		t.Fatal("zero-temperature interval accepted")
	}
}

func TestEngineReset(t *testing.T) {
	fp := floorplan.R10000Like()
	e := mustNewEngine(t, fp, params(), qual())
	iv := Interval{DurationSec: 1}
	for s := range iv.Structures {
		iv.Structures[s] = conds(390)
	}
	if err := e.Observe(iv); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if _, err := e.Assess(); err == nil {
		t.Fatal("reset engine should have no observations")
	}
	if err := e.Observe(iv); err != nil {
		t.Fatal(err)
	}
	if mustAssess(t, e).Intervals != 1 {
		t.Fatal("reset did not clear interval count")
	}
}

func TestAssessmentBreakdownsSum(t *testing.T) {
	fp := floorplan.R10000Like()
	e := mustNewEngine(t, fp, params(), qual())
	iv := Interval{DurationSec: 2}
	for s := range iv.Structures {
		iv.Structures[s] = conds(380)
	}
	if err := e.Observe(iv); err != nil {
		t.Fatal(err)
	}
	a := mustAssess(t, e)
	var byMech, byStruct float64
	for _, x := range a.ByMechanism() {
		byMech += x
	}
	for _, x := range a.ByStructure() {
		byStruct += x
	}
	if math.Abs(byMech-a.TotalFIT) > 1e-9 || math.Abs(byStruct-a.TotalFIT) > 1e-9 {
		t.Fatalf("breakdowns disagree: %v %v vs %v", byMech, byStruct, a.TotalFIT)
	}
	if a.TimeSec != 2 || a.Intervals != 1 || a.MaxTempK != 380 {
		t.Fatalf("bookkeeping: %+v", a)
	}
}

func TestValidation(t *testing.T) {
	badParams := params()
	badParams.EMExponent = 0
	if badParams.Validate() == nil {
		t.Fatal("bad params accepted")
	}
	for _, mod := range []func(*Qualification){
		func(q *Qualification) { q.TqualK = 0 },
		func(q *Qualification) { q.VqualV = 0 },
		func(q *Qualification) { q.Aqual = 0 },
		func(q *Qualification) { q.Aqual = 1.5 },
		func(q *Qualification) { q.TargetFIT = 0 },
	} {
		q := qual()
		mod(&q)
		if q.Validate() == nil {
			t.Fatalf("bad qualification accepted: %+v", q)
		}
	}
	fp := floorplan.R10000Like()
	if _, err := NewEngine(fp, badParams, qual()); err == nil {
		t.Fatal("engine accepted bad params")
	}
}

// Property: total FIT is monotone in temperature — hotter intervals can
// never improve lifetime reliability (within the operating range, where
// every mechanism accelerates with temperature).
func TestFITMonotoneInTemperature(t *testing.T) {
	fp := floorplan.R10000Like()
	p := params()
	q := qual()
	f := func(r1, r2 uint16) bool {
		t1 := 320 + float64(r1%100)
		t2 := 320 + float64(r2%100)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		f1, err1 := ConstantConditionsFIT(fp, p, q, conds(t1))
		f2, err2 := ConstantConditionsFIT(fp, p, q, conds(t2))
		return err1 == nil && err2 == nil && f1 <= f2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: lowering the voltage at fixed temperature never raises FIT.
func TestFITMonotoneInVoltage(t *testing.T) {
	fp := floorplan.R10000Like()
	p := params()
	q := qual()
	f := func(r1, r2 uint16) bool {
		v1 := 0.7 + float64(r1%50)/100
		v2 := 0.7 + float64(r2%50)/100
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		c1, c2 := conds(370), conds(370)
		c1.VddV, c2.VddV = v1, v2
		f1, err1 := ConstantConditionsFIT(fp, p, q, c1)
		f2, err2 := ConstantConditionsFIT(fp, p, q, c2)
		return err1 == nil && err2 == nil && f1 <= f2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: gating part of the processor never raises FIT.
func TestFITMonotoneInGating(t *testing.T) {
	fp := floorplan.R10000Like()
	p := params()
	q := qual()
	f := func(raw uint16) bool {
		on := 0.1 + 0.9*float64(raw%100)/100
		c := conds(370)
		c.OnFraction = on
		partial, err1 := ConstantConditionsFIT(fp, p, q, c)
		full, err2 := ConstantConditionsFIT(fp, p, q, conds(370))
		return err1 == nil && err2 == nil && partial <= full+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQualConditions(t *testing.T) {
	q := qual()
	c := q.Conditions()
	if c.TempK != q.TqualK || c.VddV != q.VqualV || c.FreqHz != q.FqualHz ||
		c.Activity != q.Aqual || c.OnFraction != 1 {
		t.Fatalf("qual conditions %+v", c)
	}
}
