// Package exp is the experiment harness: it glues the timing simulator,
// power model, thermal model and RAMP together exactly as Section 6.3
// describes, and regenerates every table and figure of the paper's
// evaluation (Section 7).
//
// One Evaluate call reproduces the paper's per-run methodology:
//
//  1. Simulate the application in epochs, collecting per-epoch activity.
//  2. First pass: average power at an assumed temperature initialises
//     the heat-sink steady-state temperature (the sink's RC constant is
//     far larger than any simulated run).
//  3. Second pass: per-epoch block temperatures from the quasi-steady
//     thermal solve with the sink pinned, iterating the
//     leakage-temperature feedback to a fixed point per epoch.
//  4. RAMP folds every epoch's conditions into the application FIT value.
package exp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ramp/internal/config"
	"ramp/internal/core"
	"ramp/internal/floorplan"
	"ramp/internal/obs"
	"ramp/internal/power"
	"ramp/internal/sim"
	"ramp/internal/stats"
	"ramp/internal/thermal"
	"ramp/internal/trace"
)

// Options controls simulation length and methodology knobs.
type Options struct {
	WarmupInstrs uint64 // instructions simulated before measurement
	EpochInstrs  uint64 // instructions per epoch
	Epochs       int    // measured epochs
	Seed         int64

	// LeakageIters is the number of power<->temperature fixed-point
	// iterations per epoch; SinkPasses the number of heat-sink passes
	// (the paper uses two).
	LeakageIters int
	SinkPasses   int

	// TolK enables adaptive convergence in the per-epoch fixed point:
	// iteration stops as soon as the largest per-block temperature update
	// falls below TolK kelvin (never exceeding LeakageIters). The
	// feedback is a contraction, so an early exit perturbs temperatures
	// by at most ~TolK and cuts iterations on cool/low-power
	// configurations. 0 disables the early exit (always run LeakageIters,
	// bitwise-identical to the fixed-count behaviour).
	TolK float64

	// DropEpochRows strips the per-epoch rows from returned Results,
	// keeping only aggregates. Sweeps over hundreds of candidates hold
	// every Result alive; the rows dominate that memory and most callers
	// only read aggregates. The evaluation cache retains the rows
	// internally, so Requalify still works on a stripped Result.
	DropEpochRows bool
}

// DefaultOptions returns run lengths that reach cache steady state for
// the built-in workloads while keeping full adaptation sweeps tractable.
func DefaultOptions() Options {
	return Options{
		WarmupInstrs: 300_000,
		EpochInstrs:  100_000,
		Epochs:       6,
		Seed:         1,
		LeakageIters: 4,
		SinkPasses:   2,
		//rampvet:ignore unitsafety -- TolK is a temperature *difference*, not an absolute temperature
		TolK: DefaultTolK,
	}
}

// DefaultTolK is the default fixed-point convergence tolerance (kelvin).
// It is far below any physically meaningful temperature difference and
// below the precision of every reported figure, so enabling it preserves
// all results; see DESIGN.md §7.
const DefaultTolK = 1e-5

// QuickOptions returns much shorter runs for tests and benchmarks.
func QuickOptions() Options {
	return Options{
		WarmupInstrs: 60_000,
		EpochInstrs:  40_000,
		Epochs:       3,
		Seed:         1,
		LeakageIters: 3,
		SinkPasses:   2,
		//rampvet:ignore unitsafety -- TolK is a temperature *difference*, not an absolute temperature
		TolK: DefaultTolK,
	}
}

// Env bundles the shared models of one experimental setup. It is
// immutable after construction (the internal result cache is
// concurrency-safe) and safe for concurrent Evaluate calls.
type Env struct {
	Tech    config.Tech
	Base    config.Proc
	FP      *floorplan.Floorplan
	Power   *power.Model
	Thermal *thermal.Model
	Params  core.Params
	Opts    Options

	// Trace and Metrics are the observability hooks installed by
	// Instrument; both are nil by default, which makes every span and
	// metric update in the pipeline a nil-check no-op (zero-alloc on the
	// epoch hot path).
	Trace   *obs.Tracer
	Metrics *obs.Registry

	obs       expInstruments
	fitTimers *core.FITTimers

	// cache memoizes evaluations by (app, proc, Options) so sweeps that
	// revisit a configuration — the base machine inside every adaptation
	// sweep, overlapping Arch/DVS/ArchDVS candidate sets, repeated
	// figure regenerations — simulate each distinct point once.
	cache evalCache

	// arenas pools per-worker evaluation scratch — simulator core,
	// per-profile generators, epoch-row buffer — so steady-state
	// evaluations reuse buffers instead of reallocating them (see
	// evalArena for the aliasing rules).
	arenas arenaPool
}

// NewEnv builds the standard environment: 65 nm technology, Table 1 base
// processor, R10000-like floorplan, default power budget and package.
func NewEnv(opts Options) *Env {
	tech := config.Tech65nm()
	fp := floorplan.R10000Like()
	return &Env{
		Tech:    tech,
		Base:    config.Base(),
		FP:      fp,
		Power:   power.NewModel(fp, tech),
		Thermal: thermal.MustNew(floorplan.MustNewDie(fp, 1), thermal.DefaultParams(tech.AmbientK)),
		Params:  core.DefaultParams(core.TCAmbientK),
		Opts:    opts,
	}
}

// NewCustomEnv builds an environment from explicit parts — used by the
// technology-scaling study, which ports the base microarchitecture
// across process nodes with scaled floorplans and power budgets.
func NewCustomEnv(tech config.Tech, base config.Proc, fp *floorplan.Floorplan, budget power.Vector, opts Options) *Env {
	return &Env{
		Tech:    tech,
		Base:    base,
		FP:      fp,
		Power:   power.NewModelWithBudget(fp, tech, budget),
		Thermal: thermal.MustNew(floorplan.MustNewDie(fp, 1), thermal.DefaultParams(tech.AmbientK)),
		Params:  core.DefaultParams(core.TCAmbientK),
		Opts:    opts,
	}
}

// Qualification returns the qualification point for a given T_qual using
// the environment's base operating point and suite activity (Section
// 3.7: V_qual and f_qual are the base processor's, A_qual is the highest
// activity factor across the suite).
func (e *Env) Qualification(tqualK float64) core.Qualification {
	return core.Qualification{
		TqualK:    tqualK,
		VqualV:    e.Base.VddV,
		FqualHz:   e.Base.FreqHz,
		Aqual:     SuiteMaxActivity,
		TargetFIT: core.StandardTargetFIT,
	}
}

// SuiteMaxActivity is A_qual: the highest per-structure activity factor
// observed across the nine-application suite on the base processor
// (measured by TestSuiteMaxActivity; the AGU/LSQ/L1D cluster of the
// highest-IPC multimedia codes sets it).
const SuiteMaxActivity = 0.52

// EpochRow records one epoch's observables.
type EpochRow struct {
	Sim      sim.Result
	PowerW   power.Vector
	TempK    power.Vector
	TotalW   float64
	MaxTempK float64
}

// Result is the outcome of evaluating one (application, configuration)
// pair.
type Result struct {
	App  string
	Proc config.Proc

	IPC      float64
	BIPS     float64
	AvgW     float64
	MaxTempK float64
	AvgTempK float64 // area-weighted average die temperature
	SinkK    float64

	Assessment core.Assessment
	Epochs     []EpochRow
}

// FIT returns the run's total FIT value.
func (r Result) FIT() float64 { return r.Assessment.TotalFIT }

// Evaluate runs app on proc and returns performance, power, thermal and
// reliability results. qual sets the RAMP qualification point.
//
// Results are memoized: the first call for a given (app, proc, Options)
// simulates; subsequent calls return the cached outcome, re-deriving
// only the RAMP assessment when qual differs (Requalify — simulation,
// power and temperature are qualification-independent). Concurrent
// calls for the same key share one simulation. Cached Results share
// their epoch-row backing array; callers must treat Epochs as
// read-only.
func (e *Env) Evaluate(app trace.Profile, proc config.Proc, qual core.Qualification) (Result, error) {
	return e.EvaluateCtx(context.Background(), app, proc, qual)
}

// EvaluateCtx is Evaluate with cancellation: the simulation checks ctx
// at every epoch boundary, so an abandoned caller (a closed HTTP
// request, an expired deadline) stops burning simulation time within
// one epoch. A cancelled or panicking flight never poisons the cache —
// the entry is dropped and the next caller for the same key simulates
// afresh; a waiter that joined a flight whose leader was cancelled or
// panicked retakes leadership itself.
func (e *Env) EvaluateCtx(ctx context.Context, app trace.Profile, proc config.Proc, qual core.Qualification) (Result, error) {
	// The cache key omits qual, so a qualification the model cannot
	// assess must fail here: as a flight's error it would be cached for
	// every later T_qual of the same point.
	if err := e.Params.CheckQualification(qual); err != nil {
		return Result{}, err
	}
	key := e.keyFor(app.Name, proc)
	var ent *cacheEntry
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		var leader bool
		ent, leader = e.cache.acquire(key)
		if leader {
			if err := e.lead(ctx, key, ent, app, proc, qual, e.evaluate); err != nil {
				return Result{}, err
			}
			break
		}
		select {
		case <-ent.done:
			if ent.ready.Load() {
				// Completed flight (success or a real error).
				e.obs.cacheHits.Inc()
			} else {
				// The leader was cancelled; retry (possibly as leader).
				continue
			}
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
		break
	}
	if ent.err != nil {
		return Result{}, ent.err
	}
	res := ent.res
	if qual != ent.qual {
		//rampvet:ignore ctxflow -- single-result requalification is bounded CPU over cached epoch rows; cancellation already happened at the evaluate/cache-wait stage above
		a, err := e.Requalify(ent.res, qual)
		if err != nil {
			return Result{}, err
		}
		res.Assessment = a
	}
	// The stored result may carry a different cosmetic Proc.Name for the
	// same configuration; report the caller's.
	res.App = app.Name
	res.Proc = proc
	if e.Opts.DropEpochRows {
		res.Epochs = nil
	}
	return res, nil
}

// evalFunc is the signature of the uncached evaluation pipeline:
// Env.evaluate in production, a stand-in where tests drive lead.
type evalFunc func(context.Context, trace.Profile, config.Proc, core.Qualification) (Result, error)

// lead runs the flight for the cache entry ent, which the caller has
// just acquired as leader of key. A completed evaluation — a result or
// a real error — is cached for every later caller. A cancelled or
// panicking one abandons the entry instead, so waiters retake the key
// rather than block on a flight that will never complete; a panic comes
// back as an error naming it, with the panicking goroutine's stack.
func (e *Env) lead(ctx context.Context, key evalKey, ent *cacheEntry, app trace.Profile, proc config.Proc, qual core.Qualification, eval evalFunc) (err error) {
	e.obs.cacheMisses.Inc()
	defer func() {
		if p := recover(); p != nil {
			e.cache.abandon(key, ent)
			err = fmt.Errorf("exp: evaluating %s on %s panicked: %v\n%s", app.Name, proc.Name, p, debug.Stack())
		}
	}()
	ent.res, ent.err = eval(ctx, app, proc, qual)
	ent.qual = qual
	if ent.err != nil && isCtxErr(ent.err) {
		e.cache.abandon(key, ent)
		return ent.err
	}
	e.cache.complete(ent)
	e.obs.cacheEntries.Set(int64(e.cache.Len()))
	return nil
}

// keyFor builds the cache key for an (application, configuration) pair.
func (e *Env) keyFor(app string, proc config.Proc) evalKey {
	proc.Name = ""
	return evalKey{app: app, proc: proc, opts: e.Opts}
}

// CachedEvaluations reports how many distinct (app, proc) points have
// been simulated (diagnostic).
func (e *Env) CachedEvaluations() int { return e.cache.Len() }

// CacheStats snapshots the evaluation cache's hit/miss/entry counters
// (consumed by the rampserve /metrics endpoint and by singleflight
// assertions in tests).
func (e *Env) CacheStats() CacheStats { return e.cache.Stats() }

// evaluate is the uncached evaluation pipeline, run on a pooled arena.
func (e *Env) evaluate(ctx context.Context, app trace.Profile, proc config.Proc, qual core.Qualification) (Result, error) {
	ar := e.getArena()
	res, err := e.evaluateIn(ctx, ar, app, proc, qual)
	// Not reached when the evaluation panics: an arena whose core or
	// generator may have stopped mid-update never returns to the pool.
	e.putArena(ar)
	return res, err
}

// evaluateIn runs the pipeline on the arena ar's scratch. ctx is checked
// at every epoch boundary of both the timing simulation and the thermal
// passes. Evaluations run concurrently on the worker pool, so the
// evaluation span opens a fresh track; everything below it nests on that
// track.
func (e *Env) evaluateIn(ctx context.Context, ar *evalArena, app trace.Profile, proc config.Proc, qual core.Qualification) (Result, error) {
	evalStart := time.Now()
	ctx, evalSpan := e.Trace.StartTrack(ctx, "exp.evaluate")
	if evalSpan.Enabled() {
		evalSpan.Annotate(obs.Str("app", app.Name), obs.Str("proc", proc.Name))
	}
	defer evalSpan.End()

	gen, err := ar.generator(app, e.Opts.Seed)
	if err != nil {
		return Result{}, err
	}
	c, err := ar.coreFor(proc, gen)
	if err != nil {
		return Result{}, err
	}
	c.Instrument(e.obs.simRetired, e.obs.simCycles)
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if e.Opts.WarmupInstrs > 0 {
		_, ws := e.Trace.Start(ctx, "sim.warmup")
		c.Run(e.Opts.WarmupInstrs)
		ws.End()
	}
	epochs := ar.epochRows(e.Opts.Epochs)
	for i := range epochs {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		_, es := e.Trace.Start(ctx, "sim.epoch")
		es.AnnotateInt("epoch", int64(i))
		epochs[i].Sim = c.Run(e.Opts.EpochInstrs)
		es.End()
		e.obs.epochs.Inc()
	}

	on := power.OnFractions(proc, e.Base)

	// Heat-sink passes: estimate average power, derive the sink
	// steady-state temperature, recompute temperatures, repeat.
	sinkK := e.Tech.AmbientK + 30 // initial guess
	var avgW float64
	for pass := 0; pass < max(1, e.Opts.SinkPasses); pass++ {
		passCtx, ps := e.Trace.Start(ctx, "thermal.sinkpass")
		ps.AnnotateInt("pass", int64(pass))
		var wSum, tSum float64
		for i := range epochs {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			row := &epochs[i]
			_, fs := e.Trace.Start(passCtx, "exp.fixedpoint")
			var iters int
			row.TempK, row.PowerW, iters = e.epochFixedPoint(row.Sim.Activity, on, proc, sinkK)
			fs.AnnotateInt("epoch", int64(i))
			fs.AnnotateInt("iters", int64(iters))
			fs.End()
			e.obs.fpIters.Observe(int64(iters))
			row.TotalW = row.PowerW.Sum()
			_, row.MaxTempK = thermal.MaxBlock(row.TempK)
			wSum += row.TotalW * row.Sim.TimeSec
			tSum += row.Sim.TimeSec
		}
		avgW = wSum / tSum
		sinkK = e.Thermal.SinkSteadyTemp(avgW)
		ps.End()
	}

	// RAMP accumulation.
	_, as := e.Trace.Start(ctx, "ramp.assess")
	engine, err := core.NewEngine(e.FP, e.Params, qual)
	if err != nil {
		return Result{}, err
	}
	engine.SetTimers(e.fitTimers)
	var res Result
	res.App = app.Name
	res.Proc = proc
	var ipcMean, dieTempMean stats.Mean
	var timeSum, retired float64
	for i := range epochs {
		row := &epochs[i]
		iv := core.Interval{DurationSec: row.Sim.TimeSec}
		for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
			iv.Structures[s] = core.Conditions{
				TempK:      row.TempK[s],
				VddV:       proc.VddV,
				FreqHz:     proc.FreqHz,
				Activity:   row.Sim.Activity[s],
				OnFraction: on[s],
			}
		}
		if err := engine.Observe(iv); err != nil {
			return Result{}, err
		}
		timeSum += row.Sim.TimeSec
		retired += float64(row.Sim.Retired)
		ipcMean.AddWeighted(row.Sim.IPC, row.Sim.TimeSec)
		if row.MaxTempK > res.MaxTempK {
			res.MaxTempK = row.MaxTempK
		}
		var at float64
		for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
			at += row.TempK[s] * e.FP.AreaFraction(s)
		}
		dieTempMean.AddWeighted(at, row.Sim.TimeSec)
	}
	res.IPC = ipcMean.Value()
	res.BIPS = retired / timeSum / 1e9
	res.AvgW = avgW
	res.AvgTempK = dieTempMean.Value()
	res.SinkK = sinkK
	res.Assessment, err = engine.Assess()
	if err != nil {
		return Result{}, err
	}
	as.End()
	// The rows filled above are arena scratch; the Result — and through
	// it the cache — gets one compact copy it owns forever.
	res.Epochs = append([]EpochRow(nil), epochs...)
	e.obs.evaluations.Inc()
	e.obs.evalUS.Observe(time.Since(evalStart).Microseconds())
	return res, nil
}

// EpochConditions iterates the leakage-temperature feedback for one
// epoch — temperatures determine leakage, leakage determines power,
// power determines temperatures — and returns the per-structure
// temperatures and powers. It is the building block reactive controllers
// use to evaluate epochs online.
func (e *Env) EpochConditions(activity [floorplan.NumStructures]float64, on power.Vector, proc config.Proc, sinkK float64) (temps, pw power.Vector) {
	temps, pw, _ = e.epochFixedPoint(activity, on, proc, sinkK)
	return temps, pw
}

// epochFixedPoint iterates the leakage-temperature feedback for one
// epoch: temperatures determine leakage, leakage determines power,
// power determines temperatures. With Options.TolK > 0 the loop exits as
// soon as the update is converged below the tolerance; LeakageIters is
// always an upper bound, so the adaptive exit can only skip iterations
// whose effect would be under TolK. The returned iteration count feeds
// the exp_fixedpoint_iters histogram and span annotations.
//
//ramp:hot
func (e *Env) epochFixedPoint(activity [floorplan.NumStructures]float64, on power.Vector, proc config.Proc, sinkK float64) (temps, pw power.Vector, iters int) {
	var act power.Vector
	copy(act[:], activity[:])
	temps = power.Uniform(sinkK + 15)
	limit := max(1, e.Opts.LeakageIters)
	tol := e.Opts.TolK
	for i := 0; i < limit; i++ {
		pw = e.Power.Compute(act, on, temps, proc.VddV, proc.FreqHz)
		next := e.Thermal.QuasiSteady(pw, sinkK)
		converged := tol > 0 && maxAbsDelta(next, temps) < tol
		temps = next
		iters = i + 1
		if converged {
			break
		}
	}
	return temps, pw, iters
}

// maxAbsDelta returns the largest per-component absolute difference.
//
//ramp:hot
func maxAbsDelta(a, b power.Vector) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Requalify recomputes the RAMP assessment of an existing Result under a
// different qualification point, reusing the stored per-epoch simulation
// and thermal data. Simulation, power and temperature do not depend on
// the qualification point, so exploring many T_qual values only needs one
// Evaluate per (application, configuration). A Result whose epoch rows
// were stripped (Options.DropEpochRows) is requalified from the rows the
// evaluation cache retains.
func (e *Env) Requalify(r Result, qual core.Qualification) (core.Assessment, error) {
	rows := r.Epochs
	if len(rows) == 0 {
		if ent := e.cache.lookup(e.keyFor(r.App, r.Proc)); ent != nil && ent.err == nil {
			rows = ent.res.Epochs
		}
	}
	if len(rows) == 0 {
		return core.Assessment{}, fmt.Errorf("exp: Requalify %s/%s: no epoch rows (result predates this Env or was never evaluated here)", r.App, r.Proc.Name)
	}
	engine, err := core.NewEngine(e.FP, e.Params, qual)
	if err != nil {
		return core.Assessment{}, err
	}
	engine.SetTimers(e.fitTimers)
	on := power.OnFractions(r.Proc, e.Base)
	for i := range rows {
		row := &rows[i]
		iv := core.Interval{DurationSec: row.Sim.TimeSec}
		for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
			iv.Structures[s] = core.Conditions{
				TempK:      row.TempK[s],
				VddV:       r.Proc.VddV,
				FreqHz:     r.Proc.FreqHz,
				Activity:   row.Sim.Activity[s],
				OnFraction: on[s],
			}
		}
		if err := engine.Observe(iv); err != nil {
			return core.Assessment{}, err
		}
	}
	return engine.Assess()
}

// RequalifyAllCtx requalifies every result against one qualification
// point and returns the assessments in input order. Requalification is
// independent per result (each call builds its own RAMP engine over
// read-only epoch rows), so the batch runs on the same bounded worker
// pool as EvaluateAll; a Select over a full ArchDVS sweep re-assesses
// hundreds of candidates per T_qual and this is its hot loop. Workers
// stop picking up candidates once ctx is done and the batch returns
// ctx's error instead of partial assessments.
func (e *Env) RequalifyAllCtx(ctx context.Context, results []Result, qual core.Qualification) ([]core.Assessment, error) {
	assessments := make([]core.Assessment, len(results))
	errs := make([]error, len(results))
	//rampvet:ignore ctxflow -- cancellation granularity is the job boundary: runPool checks ctx between candidates, and one Requalify is bounded CPU work
	run := func(i int) { assessments[i], errs[i] = e.Requalify(results[i], qual) }
	if err := runPool(ctx, len(results), run); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: requalify %d (%s/%s): %w", i, results[i].App, results[i].Proc.Name, err)
		}
	}
	return assessments, nil
}

// runPool drains n indexed jobs through a bounded worker pool — never
// more goroutines than can run — stopping early (without waiting for
// unstarted jobs) when ctx is cancelled. It returns ctx's error if the
// pool shut down early, nil once every job has run.
func runPool(ctx context.Context, n int, run func(i int)) error {
	workers := min(n, max(1, runtime.GOMAXPROCS(0)))
	idx := make(chan int)
	var wg sync.WaitGroup
	// Each worker is triply covered for goroleak's purposes: joined via
	// the WaitGroup, bounded by the range over idx (closed by the feeder
	// below), and cancelled by the per-job ctx check.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					return
				}
				run(i)
			}
		}()
	}
	var err error
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err == nil {
		err = ctx.Err()
	}
	return err
}

// EvalJob names one (application, processor, qualification) evaluation.
type EvalJob struct {
	App  trace.Profile
	Proc config.Proc
	Qual core.Qualification
}

// EvaluateAll runs the jobs concurrently (they are independent) and
// returns results in job order. A bounded worker pool — never more
// goroutines than can run — drains a job channel; a full ArchDVS sweep
// queues thousands of jobs without spawning thousands of blocked
// goroutines. The first error (in job order) aborts the batch.
func (e *Env) EvaluateAll(jobs []EvalJob) ([]Result, error) {
	return e.EvaluateAllCtx(context.Background(), jobs)
}

// EvaluateAllCtx is EvaluateAll with cancellation: unstarted jobs are
// never picked up once ctx is done, in-flight simulations stop at their
// next epoch boundary, and the batch returns ctx's error.
func (e *Env) EvaluateAllCtx(ctx context.Context, jobs []EvalJob) ([]Result, error) {
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	run := func(i int) { results[i], errs[i] = e.EvaluateCtx(ctx, jobs[i].App, jobs[i].Proc, jobs[i].Qual) }
	if err := runPool(ctx, len(jobs), run); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: job %d (%s/%s): %w", i, jobs[i].App.Name, jobs[i].Proc.Name, err)
		}
	}
	return results, nil
}
