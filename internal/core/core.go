// Package core implements RAMP, the paper's architecture-level lifetime
// reliability model (Section 3), and its reliability-qualification
// methodology (Section 3.7).
//
// RAMP tracks the four critical intrinsic (wear-out) failure mechanisms
// with state-of-the-art device models:
//
//   - Electromigration (Section 3.1): Black's equation,
//     MTTF ∝ (J − J_crit)^(−n) · e^(Ea/kT), with J ≫ J_crit and
//     J ∝ C·V·f·p/(W·H); the geometry terms fold into the
//     proportionality constant, leaving J ∝ V·f·a where a is the
//     structure's activity factor. n = 1.1, Ea = 0.9 eV for copper.
//   - Stress migration (Section 3.2): MTTF ∝ |T0 − T|^(−n) · e^(Ea/kT),
//     n = 2.5, Ea = 0.9 eV, T0 = 500 K (sputtered copper deposition).
//   - Time-dependent dielectric breakdown (Section 3.3), from Wu et
//     al.'s unified ultra-thin-oxide model:
//     MTTF ∝ (1/V)^(a−bT) · e^((X + Y/T + Z·T)/kT).
//   - Thermal cycling (Section 3.4): Coffin-Manson,
//     MTTF ∝ (1/(T_avg − T_ambient))^q with q = 2.35 for the package.
//
// Structure-level failure rates combine with the industry-standard
// sum-of-failure-rates (SOFR) model (Section 3.5): the processor is a
// series failure system and each mechanism has a constant failure rate,
// so processor FIT is the sum of per-structure, per-mechanism FITs, and
// application-level FIT is the time average of instantaneous FIT
// (Section 3.6).
//
// Qualification (Section 3.7): the proportionality constants in the
// device models encode reliability design cost and are never known
// absolutely. RAMP instead budgets the target FIT value (4000, a ~30
// year MTTF) evenly across the four mechanisms and across structures in
// proportion to area, anchored at qualification conditions (T_qual,
// V_qual, f_qual, A_qual). Instantaneous FIT is then the budget scaled
// by the ratio of the device-model failure rate at observed conditions
// to the rate at qualification conditions — the unknown constants
// cancel. T_qual serves as the designer's cost proxy: higher T_qual is a
// more expensive qualification.
package core

import (
	"fmt"
	"math"

	"ramp/internal/check"
	"ramp/internal/floorplan"
)

// BoltzmannEV is Boltzmann's constant in eV/K.
const BoltzmannEV = 8.617e-5

// TCAmbientK is the cold end of the modelled large thermal cycle. Large
// cycles happen a few times a day — power up/down and standby (Section
// 3.4) — so the package cycles between its operating temperature and the
// powered-off room temperature, not the in-chassis ambient.
const TCAmbientK = 293

// Mechanism identifies one wear-out failure mechanism.
type Mechanism int

// The four intrinsic failure mechanisms RAMP models.
const (
	EM            Mechanism = iota // electromigration
	SM                             // stress migration
	TDDB                           // time-dependent dielectric breakdown
	TC                             // thermal cycling
	NumMechanisms                  // count sentinel
)

var mechanismNames = [NumMechanisms]string{
	EM: "EM", SM: "SM", TDDB: "TDDB", TC: "TC",
}

// String returns the mechanism's short name.
func (m Mechanism) String() string {
	if m < 0 || m >= NumMechanisms {
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
	return mechanismNames[m]
}

// Mechanisms returns all mechanisms in order.
func Mechanisms() []Mechanism {
	return []Mechanism{EM, SM, TDDB, TC}
}

// Params holds the device-model constants. Zero value is not usable;
// start from DefaultParams.
type Params struct {
	// Electromigration (copper interconnect, JEDEC JEP122).
	EMExponent float64 // n in Black's equation
	EMEaEV     float64 // activation energy

	// Stress migration (sputtered copper).
	SMExponent float64 // n
	SMEaEV     float64 // activation energy
	SMT0K      float64 // stress-free (deposition) temperature

	// TDDB (Wu et al., IBM).
	// The TDDB voltage-acceleration exponent is (a - b*T): voltage
	// acceleration weakens as temperature rises (the "interplay" of Wu
	// et al.'s title). Around 390 K the exponent is ~46.
	TDDBA float64 // a: voltage-exponent intercept
	TDDBB float64 // b: voltage-exponent temperature slope, 1/K
	TDDBX float64 // X, eV
	TDDBY float64 // Y, eV·K
	TDDBZ float64 // Z, eV/K

	// Thermal cycling (package solder).
	TCExponent float64 // Coffin-Manson q
	AmbientK   float64 // cold-end temperature of the modelled cycle
}

// DefaultParams returns the constants the paper uses (Sections 3.1-3.4).
// ambientK is the thermal cycle's cold end; use TCAmbientK unless
// modelling a different duty cycle.
func DefaultParams(ambientK float64) Params {
	return Params{
		EMExponent: 1.1,
		EMEaEV:     0.9,
		SMExponent: 2.5,
		SMEaEV:     0.9,
		SMT0K:      500,
		TDDBA:      78,
		TDDBB:      0.081,
		TDDBX:      0.759,
		TDDBY:      -66.8,
		TDDBZ:      -8.37e-4,
		TCExponent: 2.35,
		AmbientK:   ambientK,
	}
}

// Validate checks the parameters for physical plausibility.
func (p Params) Validate() error {
	switch {
	case p.EMExponent <= 0 || p.EMEaEV <= 0:
		return fmt.Errorf("core: bad EM params n=%v Ea=%v", p.EMExponent, p.EMEaEV)
	case p.SMExponent <= 0 || p.SMEaEV <= 0 || p.SMT0K <= 0:
		return fmt.Errorf("core: bad SM params")
	case p.TCExponent <= 0:
		return fmt.Errorf("core: bad TC exponent %v", p.TCExponent)
	case p.AmbientK <= 0:
		return fmt.Errorf("core: bad ambient %v", p.AmbientK)
	}
	return nil
}

// Conditions describe one structure's operating point during an
// interval. Frequency and voltage are absolute; failure-rate computations
// only ever use ratios against qualification conditions, so units cancel.
type Conditions struct {
	TempK      float64
	VddV       float64
	FreqHz     float64
	Activity   float64 // switching probability / utilization, [0,1]
	OnFraction float64 // powered-on fraction of the structure, [0,1]
}

// EMRate returns a value proportional to the electromigration failure
// rate (1/MTTF) at the given conditions. Powered-down area carries no
// current, so the rate scales with OnFraction (Section 6.1).
func (p Params) EMRate(c Conditions) float64 {
	if c.TempK <= 0 {
		return 0 // caught by expguard: T=0 would silently yield e^(-Inf)
	}
	j := c.VddV * c.FreqHz * c.Activity // ∝ current density
	if j <= 0 {
		return 0
	}
	return math.Pow(j, p.EMExponent) *
		math.Exp(-p.EMEaEV/(BoltzmannEV*c.TempK)) * c.OnFraction
}

// SMRate returns a value proportional to the stress-migration failure
// rate. Stress depends only on the temperature differential against the
// deposition temperature, so gating does not reduce it.
func (p Params) SMRate(c Conditions) float64 {
	if c.TempK <= 0 {
		return 0 // caught by expguard: a negative T flips the exponent sign
	}
	dt := math.Abs(p.SMT0K - c.TempK)
	return math.Pow(dt, p.SMExponent) *
		math.Exp(-p.SMEaEV/(BoltzmannEV*c.TempK))
}

// TDDBRate returns a value proportional to the gate-oxide breakdown
// failure rate. The voltage exponent (a − bT) makes TDDB extremely
// voltage sensitive, which is what makes DVS such an effective DRM
// response (Section 7.2). Powered-down (supply-gated) area sees no field,
// so the rate scales with OnFraction.
func (p Params) TDDBRate(c Conditions) float64 {
	if c.TempK <= 0 {
		return 0 // same guard as EM/SM: keep 1/T out of the exponential
	}
	t := c.TempK
	exponent := p.TDDBA - p.TDDBB*t
	return math.Pow(c.VddV, exponent) *
		math.Exp(-(p.TDDBX+p.TDDBY/t+p.TDDBZ*t)/(BoltzmannEV*t)) * c.OnFraction
}

// TCRate returns a value proportional to the thermal-cycling failure
// rate for a cycle between avgTempK and the ambient (Section 3.4,
// Coffin-Manson with the cycle frequency folded into the constant).
func (p Params) TCRate(avgTempK float64) float64 {
	dt := avgTempK - p.AmbientK
	if dt <= 0 {
		return 0
	}
	return math.Pow(dt, p.TCExponent)
}

// Rate dispatches to the mechanism's rate model. For TC the relevant
// temperature is the run-average temperature, which callers put in
// c.TempK.
//
//ramp:hot
func (p Params) Rate(m Mechanism, c Conditions) float64 {
	var r float64
	switch m {
	case EM:
		r = p.EMRate(c)
	case SM:
		r = p.SMRate(c)
	case TDDB:
		r = p.TDDBRate(c)
	case TC:
		r = p.TCRate(c.TempK)
	default:
		panic(fmt.Sprintf("core: unknown mechanism %v", m))
	}
	// A failure rate is a frequency: finite and non-negative, whatever
	// the operating point.
	check.NonNegative("core.Params.Rate", r)
	return r
}

// Qualification describes a reliability qualification point: the
// operating conditions the processor is qualified at and the FIT target
// the qualification must meet. T_qual is the designer's cost proxy
// (Section 3.7).
type Qualification struct {
	TqualK    float64
	VqualV    float64
	FqualHz   float64
	Aqual     float64 // highest activity factor across the suite
	TargetFIT float64
}

// StandardTargetFIT is the paper's target: 4000 FIT, i.e. a mean time to
// failure around 30 years.
const StandardTargetFIT = 4000

// Validate checks the qualification point.
func (q Qualification) Validate() error {
	switch {
	case q.TqualK <= 0:
		return fmt.Errorf("core: non-positive Tqual %v", q.TqualK)
	case q.VqualV <= 0 || q.FqualHz <= 0:
		return fmt.Errorf("core: non-positive Vqual/Fqual")
	case q.Aqual <= 0 || q.Aqual > 1:
		return fmt.Errorf("core: Aqual %v out of (0,1]", q.Aqual)
	case q.TargetFIT <= 0:
		return fmt.Errorf("core: non-positive FIT target %v", q.TargetFIT)
	}
	return nil
}

// CheckTqual reports whether tqualK lies in the open domain of
// qualification temperatures the model can assess, AmbientK < T_qual <
// SMT0K: at or below the thermal cycle's cold end TC's qualification
// rate is zero, and at the stress-free temperature SM's is, so no budget
// can be built. field names the value in the error. The check is float
// comparisons only, cheap enough for request validation on every cache
// hit.
func (p Params) CheckTqual(field string, tqualK float64) error {
	if tqualK > p.AmbientK && tqualK < p.SMT0K {
		return nil
	}
	return fmt.Errorf("%s %g outside the qualification domain (%g, %g) K", field, tqualK, p.AmbientK, p.SMT0K)
}

// CheckQualification reports whether the model can assess q: q is
// well-formed and its T_qual lies in p's domain (CheckTqual).
func (p Params) CheckQualification(q Qualification) error {
	if err := q.Validate(); err != nil {
		return err
	}
	return p.CheckTqual("core: T_qual", q.TqualK)
}

// Conditions returns the qualification operating point as Conditions
// (fully powered on).
func (q Qualification) Conditions() Conditions {
	return Conditions{
		TempK:      q.TqualK,
		VddV:       q.VqualV,
		FreqHz:     q.FqualHz,
		Activity:   q.Aqual,
		OnFraction: 1,
	}
}

// Budget is the per-structure, per-mechanism FIT allocation produced by
// qualification: the target FIT split evenly across mechanisms and, per
// mechanism, across structures proportional to area (Section 3.7).
type Budget struct {
	Alloc    [floorplan.NumStructures][NumMechanisms]float64 // FIT
	QualRate [floorplan.NumStructures][NumMechanisms]float64 // λ at qual point
}

// NewBudget computes the qualification budget for a floorplan.
func NewBudget(fp *floorplan.Floorplan, p Params, q Qualification) (*Budget, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.CheckQualification(q); err != nil {
		return nil, err
	}
	b := &Budget{}
	perMech := q.TargetFIT / float64(NumMechanisms)
	qc := q.Conditions()
	for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
		frac := fp.AreaFraction(s)
		for _, m := range Mechanisms() {
			b.Alloc[s][m] = perMech * frac
			c := qc
			if m == TC {
				c.TempK = q.TqualK // cycle to Tqual
			}
			r := p.Rate(m, c)
			if r <= 0 {
				return nil, fmt.Errorf("core: zero qualification rate for %v/%v", s, m)
			}
			b.QualRate[s][m] = r
		}
	}
	return b, nil
}

// InstantFIT returns the instantaneous FIT contribution of structure s
// under mechanism m at conditions c: the budgeted FIT scaled by the
// failure-rate ratio against qualification conditions.
//
//ramp:hot
func (b *Budget) InstantFIT(p Params, s floorplan.Structure, m Mechanism, c Conditions) float64 {
	fit := b.Alloc[s][m] * p.Rate(m, c) / b.QualRate[s][m]
	check.NonNegative("core.Budget.InstantFIT", fit)
	return fit
}
