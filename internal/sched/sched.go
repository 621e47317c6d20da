// Package sched is the manycore lifetime-aware scheduler: it assigns
// the paper's nine-application suite to the cores of a tiled die each
// epoch and measures what the assignment policy does to chip lifetime.
//
// The paper qualifies one core against one workload; LifeSim-style
// follow-up work shows that on a manycore die reliability becomes a
// scheduling problem — wear accumulates per core, cores heat each
// other through shared silicon, and the policy that decides which core
// runs the hottest code decides which core dies first. This package
// compares three policies at identical performance:
//
//   - Static: workload group i runs on core i forever (the oracle-free
//     baseline every OS defaults to — also the best case for locality,
//     it never migrates).
//   - Coolest: each epoch the hottest group goes to the core that
//     measured coolest last epoch (temperature-reactive, wear-blind).
//   - WearLevel: each epoch the hottest group goes to the least-worn
//     core — equivalently, the most-worn core gets the coolest
//     workload — levelling accumulated damage rather than instantaneous
//     temperature.
//
// Iso-performance is by construction, not by measurement: the grouping
// of applications onto cores is computed once, before any policy runs
// (a snake deal of the suite by single-core average power into
// min(N, 9) groups), and every policy runs exactly those groups every
// epoch — only the group→core mapping differs. Total work, epoch
// durations and chip BIPS are therefore identical across policies, and
// lifetime is the only free variable.
package sched

import (
	"context"
	"fmt"
	"math"
	"sort"

	"ramp/internal/core"
	"ramp/internal/exp"
	"ramp/internal/floorplan"
	"ramp/internal/obs"
	"ramp/internal/power"
	"ramp/internal/thermal"
	"ramp/internal/trace"
)

// Policy selects the per-epoch group→core assignment rule.
type Policy int

// The three assignment policies.
const (
	Static      Policy = iota // group i pinned to core i
	Coolest                   // hottest group to the coolest core
	WearLevel                 // hottest group to the least-worn core
	NumPolicies               // count sentinel
)

var policyNames = [NumPolicies]string{
	Static: "static", Coolest: "coolest", WearLevel: "wearlevel",
}

// String returns the policy's short name.
func (p Policy) String() string {
	if p < 0 || p >= NumPolicies {
		return fmt.Sprintf("Policy(%d)", int(p))
	}
	return policyNames[p]
}

// Policies returns all policies in comparison order.
func Policies() []Policy { return []Policy{Static, Coolest, WearLevel} }

// Config sizes one scheduling run.
type Config struct {
	NCores int
	// Epochs is the number of die scheduling epochs; each cycles through
	// the per-application epoch rows of the underlying evaluations.
	Epochs int
	// TqualK is the qualification temperature (the designer's cost
	// proxy, Section 3.7).
	TqualK float64
}

// DefaultConfig returns a run long enough for the policies to separate:
// twice around the suite's epoch rows.
func DefaultConfig(nCores int, opts exp.Options) Config {
	return Config{NCores: nCores, Epochs: 2 * max(1, opts.Epochs), TqualK: 400}
}

// Result is one policy's outcome on one die size.
type Result struct {
	Policy Policy
	NCores int

	Assessment core.DieAssessment

	// LifetimeYears is the wear lifetime the policies compete on: mean
	// time to the first core failure (the worst core's MTTF).
	LifetimeYears float64
	ChipFIT       float64
	ChipMTTFYears float64

	AvgW     float64
	MaxTempK float64
	BIPS     float64
	TimeSec  float64

	// Migrations counts group moves between consecutive epochs (Static
	// is always 0).
	Migrations int
	// CoreWear is each core's final wear accumulator (FIT·seconds).
	CoreWear []float64
}

// groupEpoch is one group's precomputed, policy-independent demand for
// one die epoch.
type groupEpoch struct {
	act     power.Vector // effective per-structure activity over the epoch
	heatW   float64      // single-core power proxy, orders groups hot→cold
	retired float64
}

// Simulator schedules the suite over one die size. Build it once per N
// with New and run each policy against it; the suite evaluations, die
// grouping and epoch demand tables are shared across policies (that
// sharing is the iso-performance guarantee).
type Simulator struct {
	env    *exp.Env
	cfg    Config
	die    *floorplan.Die
	model  *thermal.Model
	qual   core.Qualification
	groups [][]int // group -> suite app indices

	epochs  []float64      // per die epoch: duration (makespan), seconds
	demand  [][]groupEpoch // [epoch][group]
	retired float64
}

// New prepares a simulator: evaluates the suite on the base processor
// (cached across die sizes), groups the applications, and precomputes
// every epoch's per-group demand.
func New(env *exp.Env, cfg Config) (*Simulator, error) {
	return NewCtx(context.Background(), env, cfg)
}

// NewCtx is New with cancellation (the suite evaluation dominates).
func NewCtx(ctx context.Context, env *exp.Env, cfg Config) (*Simulator, error) {
	if cfg.NCores < 1 {
		return nil, fmt.Errorf("sched: need at least one core, got %d", cfg.NCores)
	}
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("sched: need at least one epoch, got %d", cfg.Epochs)
	}
	die, err := floorplan.NewDie(env.FP, cfg.NCores)
	if err != nil {
		return nil, err
	}
	qual := env.Qualification(cfg.TqualK)
	suite, err := env.EvaluateSuiteCtx(ctx, qual)
	if err != nil {
		return nil, err
	}
	for i := range suite {
		if len(suite[i].Epochs) == 0 {
			return nil, fmt.Errorf("sched: %s evaluation has no epoch rows (Options.DropEpochRows?)", suite[i].App)
		}
	}
	model, err := thermal.New(die, thermal.DieParams(env.Tech.AmbientK, cfg.NCores))
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		env:    env,
		cfg:    cfg,
		die:    die,
		model:  model,
		qual:   qual,
		groups: groupApps(suite, cfg.NCores),
	}
	s.buildDemand(suite)
	return s, nil
}

// Groups returns the fixed app grouping (suite indices per group).
func (s *Simulator) Groups() [][]int { return s.groups }

// groupApps deals the suite into min(n, len(suite)) groups by a snake
// deal over descending single-core average power: the hottest app goes
// to group 0, then down the groups and back up, so group heat is as
// balanced as a fixed grouping can be. Ties break by suite order; the
// result depends only on the suite evaluation, never on a policy.
func groupApps(suite []exp.Result, n int) [][]int {
	g := min(n, len(suite))
	order := make([]int, len(suite))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return suite[order[a]].AvgW > suite[order[b]].AvgW
	})
	groups := make([][]int, g)
	for pos, app := range order {
		round, off := pos/g, pos%g
		k := off
		if round%2 == 1 {
			k = g - 1 - off // snake back
		}
		groups[k] = append(groups[k], app)
	}
	return groups
}

// buildDemand precomputes every die epoch's per-group activity, heat
// proxy and duration from the suite's epoch rows. Group members run
// sequentially within an epoch; the die epoch is the makespan across
// groups, and shorter groups idle the remainder (their activity is
// scaled by busy time, the clock-gated idle floor covers the rest).
func (s *Simulator) buildDemand(suite []exp.Result) {
	g := len(s.groups)
	s.epochs = make([]float64, s.cfg.Epochs)
	s.demand = make([][]groupEpoch, s.cfg.Epochs)
	for e := 0; e < s.cfg.Epochs; e++ {
		s.demand[e] = make([]groupEpoch, g)
		var makespan float64
		busy := make([]float64, g)
		for k, apps := range s.groups {
			for _, a := range apps {
				rows := suite[a].Epochs
				row := &rows[e%len(rows)]
				busy[k] += row.Sim.TimeSec
			}
			if busy[k] > makespan {
				makespan = busy[k]
			}
		}
		s.epochs[e] = makespan
		for k, apps := range s.groups {
			d := &s.demand[e][k]
			for _, a := range apps {
				rows := suite[a].Epochs
				row := &rows[e%len(rows)]
				w := row.Sim.TimeSec / makespan
				for st := range d.act {
					d.act[st] += row.Sim.Activity[st] * w
				}
				d.heatW += row.TotalW * w
				d.retired += float64(row.Sim.Retired)
			}
			s.retired += d.retired
		}
	}
}

// Run executes one policy over the configured epochs.
func (s *Simulator) Run(p Policy) (Result, error) {
	return s.RunCtx(context.Background(), p)
}

// RunCtx is Run with cancellation, checked at every epoch boundary.
// The run follows the paper's two-pass heat-sink methodology: pass one
// estimates average chip power to set the shared sink temperature, pass
// two re-runs the schedule against the settled sink; wear and policy
// decisions restart each pass (a fresh DieEngine), and the final pass
// is reported.
func (s *Simulator) RunCtx(ctx context.Context, p Policy) (Result, error) {
	if p < 0 || p >= NumPolicies {
		return Result{}, fmt.Errorf("sched: unknown policy %v", p)
	}
	ctx, span := s.env.Trace.StartTrack(ctx, "sched.run")
	if span.Enabled() {
		span.Annotate(obs.Str("policy", p.String()))
		span.AnnotateInt("cores", int64(s.cfg.NCores))
	}
	defer span.End()

	var (
		engine     *core.DieEngine
		res        Result
		sinkK      = s.env.Tech.AmbientK + 30 // initial guess, as in exp
		passes     = max(1, s.env.Opts.SinkPasses)
		migrations *obs.Counter
		epochsCtr  *obs.Counter
	)
	if s.env.Metrics != nil {
		migrations = s.env.Metrics.Counter("sched_migrations")
		epochsCtr = s.env.Metrics.Counter("sched_epochs")
	}
	for pass := 0; pass < passes; pass++ {
		var err error
		engine, err = core.NewDieEngine(s.die, s.env.Params, s.qual)
		if err != nil {
			return Result{}, err
		}
		passCtx, ps := s.env.Trace.Start(ctx, "sched.sinkpass")
		ps.AnnotateInt("pass", int64(pass))
		res = Result{Policy: p, NCores: s.cfg.NCores, CoreWear: make([]float64, s.cfg.NCores)}
		st := newRunState(s)
		var wSum float64
		for e := 0; e < s.cfg.Epochs; e++ {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			_, es := s.env.Trace.Start(passCtx, "sched.epoch")
			es.AnnotateInt("epoch", int64(e))
			moved := s.assign(p, e, st, engine)
			res.Migrations += moved
			migrations.Add(int64(moved))
			epochsCtr.Inc()
			totalW := s.epoch(e, st, sinkK)
			if err := s.observe(e, st, engine); err != nil {
				return Result{}, err
			}
			dur := s.epochs[e]
			wSum += totalW * dur
			res.TimeSec += dur
			if mt := st.maxTemp(); mt > res.MaxTempK {
				res.MaxTempK = mt
			}
			if es.Enabled() {
				es.AnnotateInt("migrations", int64(moved))
				worst, wear := st.worstWear(engine)
				es.AnnotateInt("worst_core", int64(worst))
				es.AnnotateInt("worst_wear_fits_x1000", int64(wear*1000))
			}
			es.End()
		}
		res.AvgW = wSum / res.TimeSec
		sinkK = s.model.SinkSteadyTemp(res.AvgW)
		ps.End()
	}
	a, err := engine.Assess()
	if err != nil {
		return Result{}, err
	}
	res.Assessment = a
	res.LifetimeYears = a.MinCoreMTTFYears
	res.ChipFIT = a.ChipFIT
	res.ChipMTTFYears = a.ChipMTTFYears
	res.BIPS = s.retired / res.TimeSec / 1e9
	for k := 0; k < s.cfg.NCores; k++ {
		res.CoreWear[k] = engine.CoreWear(k)
	}
	if s.env.Metrics != nil {
		s.env.Metrics.Gauge("sched_worst_core").Set(int64(a.WorstCore))
	}
	return res, nil
}

// runState is one pass's mutable scheduling state.
type runState struct {
	assigned  []int     // group -> core, -1 before the first epoch
	coreOf    []int     // core -> group, -1 if idle
	temps     []float64 // flat per-block temperatures, last solve
	prevTemps []float64 // previous fixed-point iterate (convergence test)
	pw        []float64 // flat per-block power scratch
	prevMax   []float64 // per-core max temp, last epoch
	ones      power.Vector
	zero      power.Vector
}

func newRunState(s *Simulator) *runState {
	st := &runState{
		assigned:  make([]int, len(s.groups)),
		coreOf:    make([]int, s.cfg.NCores),
		temps:     make([]float64, s.die.NumBlocks()),
		prevTemps: make([]float64, s.die.NumBlocks()),
		pw:        make([]float64, s.die.NumBlocks()),
		prevMax:   make([]float64, s.cfg.NCores),
		ones:      power.Ones(),
	}
	for k := range st.assigned {
		st.assigned[k] = -1
	}
	return st
}

// assign maps groups to cores for epoch e under policy p and returns
// the number of groups that moved. Every ordering ties deterministically
// (group index, then core index).
func (s *Simulator) assign(p Policy, e int, st *runState, engine *core.DieEngine) int {
	g := len(s.groups)
	for c := range st.coreOf {
		st.coreOf[c] = -1
	}
	next := make([]int, g)
	switch p {
	case Static:
		for k := 0; k < g; k++ {
			next[k] = k
		}
	case Coolest, WearLevel:
		// Hottest group first...
		order := make([]int, g)
		for k := range order {
			order[k] = k
		}
		dem := s.demand[e]
		sort.SliceStable(order, func(a, b int) bool {
			return dem[order[a]].heatW > dem[order[b]].heatW
		})
		// ...to the coolest / least-worn core first.
		cores := make([]int, s.cfg.NCores)
		for c := range cores {
			cores[c] = c
		}
		if p == Coolest {
			sort.SliceStable(cores, func(a, b int) bool {
				return st.prevMax[cores[a]] < st.prevMax[cores[b]]
			})
		} else {
			sort.SliceStable(cores, func(a, b int) bool {
				return engine.CoreWear(cores[a]) < engine.CoreWear(cores[b])
			})
		}
		for i, grp := range order {
			next[grp] = cores[i]
		}
	}
	moved := 0
	for k := 0; k < g; k++ {
		if st.assigned[k] >= 0 && st.assigned[k] != next[k] {
			moved++
		}
		st.assigned[k] = next[k]
		st.coreOf[next[k]] = k
	}
	return moved
}

// epoch runs the leakage-temperature fixed point for one die epoch —
// the manycore counterpart of exp's epochFixedPoint, on the tiled LU
// system — leaving per-block temperatures in st.temps and returning the
// converged total chip power.
func (s *Simulator) epoch(e int, st *runState, sinkK float64) float64 {
	nb := s.die.NumBlocks()
	ns := int(floorplan.NumStructures)
	for i := 0; i < nb; i++ {
		st.temps[i] = sinkK + 15
	}
	limit := max(1, s.env.Opts.LeakageIters)
	tol := s.env.Opts.TolK
	var totalW float64
	for it := 0; it < limit; it++ {
		totalW = 0
		for c := 0; c < s.cfg.NCores; c++ {
			act := &st.zero
			if grp := st.coreOf[c]; grp >= 0 {
				act = &s.demand[e][grp].act
			}
			lo := c * ns
			s.env.Power.ComputeInto(st.pw[lo:lo+ns], *act, st.ones, st.temps[lo:lo+ns], s.env.Base.VddV, s.env.Base.FreqHz)
		}
		for i := 0; i < nb; i++ {
			totalW += st.pw[i]
		}
		copy(st.prevTemps, st.temps)
		s.model.QuasiSteadyInto(st.temps, st.pw, sinkK)
		if tol > 0 && maxAbsDelta(st.temps, st.prevTemps) < tol {
			break
		}
	}
	for c := 0; c < s.cfg.NCores; c++ {
		st.prevMax[c] = s.model.MaxCoreTemp(st.temps, c)
	}
	return totalW
}

// maxAbsDelta returns the largest per-component absolute difference.
func maxAbsDelta(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// observe folds epoch e into every core's wear accumulator.
func (s *Simulator) observe(e int, st *runState, engine *core.DieEngine) error {
	ns := int(floorplan.NumStructures)
	dur := s.epochs[e]
	var iv core.Interval
	iv.DurationSec = dur
	for c := 0; c < s.cfg.NCores; c++ {
		var act *power.Vector
		if grp := st.coreOf[c]; grp >= 0 {
			act = &s.demand[e][grp].act
		} else {
			act = &st.zero
		}
		lo := c * ns
		for i := 0; i < ns; i++ {
			iv.Structures[i] = core.Conditions{
				TempK:      st.temps[lo+i],
				VddV:       s.env.Base.VddV,
				FreqHz:     s.env.Base.FreqHz,
				Activity:   act[i],
				OnFraction: 1,
			}
		}
		if err := engine.ObserveCore(c, iv); err != nil {
			return err
		}
	}
	return nil
}

func (st *runState) maxTemp() float64 {
	var m float64
	for _, t := range st.prevMax {
		if t > m {
			m = t
		}
	}
	return m
}

func (st *runState) worstWear(engine *core.DieEngine) (idx int, wear float64) {
	for c := 0; c < len(st.prevMax); c++ {
		if w := engine.CoreWear(c); w > wear {
			wear, idx = w, c
		}
	}
	return idx, wear
}

// SingleCoreDRM returns the paper's single-core baseline for the same
// suite: the workload FIT value (Section 3.6 time-weighted average over
// the nine applications on the base processor) and its MTTF in years.
func SingleCoreDRM(env *exp.Env, tqualK float64) (fitValue, mttfYears float64, err error) {
	return SingleCoreDRMCtx(context.Background(), env, tqualK)
}

// SingleCoreDRMCtx is SingleCoreDRM with cancellation.
func SingleCoreDRMCtx(ctx context.Context, env *exp.Env, tqualK float64) (float64, float64, error) {
	suite, err := env.EvaluateSuiteCtx(ctx, env.Qualification(tqualK))
	if err != nil {
		return 0, 0, err
	}
	comps := make([]core.WorkloadComponent, len(suite))
	for i, r := range suite {
		var t float64
		for e := range r.Epochs {
			t += r.Epochs[e].Sim.TimeSec
		}
		comps[i] = core.WorkloadComponent{Name: r.App, Weight: t, FIT: r.FIT()}
	}
	fit, err := core.WorkloadFIT(comps)
	if err != nil {
		return 0, 0, err
	}
	return fit, core.WorkloadMTTFYears(fit), nil
}

// Apps returns the suite profiles in the order the simulator's group
// indices refer to (trace.Apps order).
func Apps() []trace.Profile { return trace.Apps() }
