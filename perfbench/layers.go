package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"ramp/internal/config"
	"ramp/internal/core"
	"ramp/internal/drm"
	"ramp/internal/exp"
	"ramp/internal/figures"
	"ramp/internal/floorplan"
	"ramp/internal/power"
	"ramp/internal/serve"
	"ramp/internal/sim"
	"ramp/internal/stats"
	"ramp/internal/thermal"
	"ramp/internal/trace"
)

// probeReps is how many times the layer probe replays the cold
// evaluation; the reported busy times are medians over the replays.
const probeReps = 5

// replay is one layer-by-layer re-run of exp.Env.Evaluate's pipeline
// through the layers' public functions.
type replay struct {
	ipc, fit       float64
	instrs, cycles uint64
	fpIters        int
	fpCalls        int
	busy           map[string]time.Duration // per layer
	powerNS        []float64
	thermalNS      []float64
	observeNS      []float64
	assessNS       float64
	rows           []exp.EpochRow
}

// replayEvaluate mirrors exp.Env's uncached evaluation — generator, core,
// warm-up and measured epochs, the leakage-temperature fixed point under
// the heat-sink passes, and RAMP accumulation — timing every call into
// a layer. Its IPC and FIT must equal Evaluate's bit for bit.
func replayEvaluate(tr *Tracer, id int, env *exp.Env, app trace.Profile, proc config.Proc, qual core.Qualification) (replay, error) {
	rp := replay{busy: make(map[string]time.Duration)}
	opts := env.Opts
	timed := func(layer string, fn func()) time.Duration {
		d := tr.Time(layer, id, fn)
		rp.busy[layer] += d
		return d
	}
	var gen *trace.Generator
	var c *sim.Core
	var err error
	timed("trace", func() { gen, err = trace.NewGenerator(app, opts.Seed) })
	if err != nil {
		return rp, err
	}
	timed("sim", func() { c, err = sim.New(proc, gen) })
	if err != nil {
		return rp, err
	}
	account := func(res sim.Result) {
		rp.instrs += res.Retired
		rp.cycles += res.Cycles
	}
	if opts.WarmupInstrs > 0 {
		var res sim.Result
		timed("sim", func() { res = c.Run(opts.WarmupInstrs) })
		account(res)
	}
	rows := make([]exp.EpochRow, opts.Epochs)
	for i := range rows {
		timed("sim", func() { rows[i].Sim = c.Run(opts.EpochInstrs) })
		account(rows[i].Sim)
	}

	on := power.OnFractions(proc, env.Base)
	sinkK := env.Tech.AmbientK + 30
	var avgW float64
	for pass := 0; pass < max(1, opts.SinkPasses); pass++ {
		var wSum, tSum float64
		for i := range rows {
			row := &rows[i]
			var act power.Vector
			copy(act[:], row.Sim.Activity[:])
			temps := power.Uniform(sinkK + 15)
			var pw power.Vector
			for it := 0; it < max(1, opts.LeakageIters); it++ {
				rp.powerNS = append(rp.powerNS, float64(timed("power", func() { pw = env.Power.Compute(act, on, temps, proc.VddV, proc.FreqHz) })))
				var next power.Vector
				rp.thermalNS = append(rp.thermalNS, float64(timed("thermal", func() { next = env.Thermal.QuasiSteady(pw, sinkK) })))
				converged := opts.TolK > 0 && maxAbsDelta(next, temps) < opts.TolK
				temps = next
				rp.fpIters++
				if converged {
					break
				}
			}
			rp.fpCalls++
			row.TempK, row.PowerW = temps, pw
			row.TotalW = pw.Sum()
			_, row.MaxTempK = thermal.MaxBlock(temps)
			wSum += row.TotalW * row.Sim.TimeSec
			tSum += row.Sim.TimeSec
		}
		avgW = wSum / tSum
		timed("thermal", func() { sinkK = env.Thermal.SinkSteadyTemp(avgW) })
	}

	var engine *core.Engine
	timed("core", func() { engine, err = core.NewEngine(env.FP, env.Params, qual) })
	if err != nil {
		return rp, err
	}
	var ipcMean stats.Mean
	for i := range rows {
		row := &rows[i]
		iv := core.Interval{DurationSec: row.Sim.TimeSec}
		for s := floorplan.Structure(0); s < floorplan.NumStructures; s++ {
			iv.Structures[s] = core.Conditions{
				TempK: row.TempK[s], VddV: proc.VddV, FreqHz: proc.FreqHz,
				Activity: row.Sim.Activity[s], OnFraction: on[s],
			}
		}
		rp.observeNS = append(rp.observeNS, float64(timed("core", func() { err = engine.Observe(iv) })))
		if err != nil {
			return rp, err
		}
		ipcMean.AddWeighted(row.Sim.IPC, row.Sim.TimeSec)
	}
	var a core.Assessment
	rp.assessNS = float64(timed("core", func() { a, err = engine.Assess() }))
	if err != nil {
		return rp, err
	}
	rp.ipc, rp.fit, rp.rows = ipcMean.Value(), a.TotalFIT, rows
	return rp, nil
}

func maxAbsDelta(a, b power.Vector) float64 {
	var m float64
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

// perLayerNames are the figures of a traced run's JSON line. Every
// traced run measures all of them: the layer probe is the same on every
// workload, and the cache figures come from the workload's own traffic.
var perLayerNames = []string{
	"trace.ns_per_instr", "sim.ns_per_instr", "sim.share", "sim.instrs", "sim.cycles",
	"power.compute_ns", "thermal.quasisteady_ns",
	"exp.fixedpoint_iters_per_epoch", "exp.epochconditions_us",
	"core.observe_ns", "core.assess_us",
	"exp.requalify_us", "exp.cache_hit_us", "exp.cache_hit_ratio", "exp.cache_entries",
	"drm.select_ms", "serve.handler_us_p50", "serve.handler_us_p99",
	"attribution.coverage",
}

// layerMetric prints a per-layer figure and records it for the JSON line.
func layerMetric(r *Report, name, unit string, v float64) {
	r.Scalar(name, unit, v)
	r.Set(name, unit, v)
}

// layerSummary prints a per-layer sample summary and records its median.
func layerSummary(r *Report, name, unit string, xs []float64) {
	s := Summarize(xs)
	r.Summary(name, unit, s)
	r.Set(name, unit, s.Median)
}

// probeLayers times calls into each layer's public functions from
// outside the program, on the first evaluation of Figure 3 (bzip2 on
// the base machine at 400 K): a layer-by-layer replay of the cold
// evaluation, the warm path (requalify, cache hit), DRM selection and
// rampserve's handler in process.
func probeLayers(r *Report, run Run, tr *Tracer) error {
	opts := exp.QuickOptions()
	app := trace.Bzip2()
	base := exp.NewEnv(opts)
	proc, qual := base.Base, base.Qualification(400)

	// Reference evaluations on fresh environments, timed whole, each
	// followed by a replay so both see the same stretch of host speed.
	var ref exp.Result
	var evalNS []float64
	var reps []replay
	for i := 0; i < probeReps; i++ {
		env := exp.NewEnv(opts)
		var err error
		evalNS = append(evalNS, float64(tr.Time("exp.Evaluate", i, func() { ref, err = env.Evaluate(app, proc, qual) })))
		if err != nil {
			return err
		}
		rp, err := replayEvaluate(tr, probeReps+i, base, app, proc, qual)
		if err != nil {
			return err
		}
		reps = append(reps, rp)
	}
	rp := reps[0]
	r.Check(math.Float64bits(rp.ipc) == math.Float64bits(ref.IPC) && math.Float64bits(rp.fit) == math.Float64bits(ref.FIT()),
		"layer replay IPC %v FIT %v, Evaluate IPC %v FIT %v", rp.ipc, rp.fit, ref.IPC, ref.FIT())
	for i, row := range rp.rows {
		r.Check(row.Sim == ref.Epochs[i].Sim && row.TempK == ref.Epochs[i].TempK && row.PowerW == ref.Epochs[i].PowerW,
			"layer replay epoch %d differs from Evaluate", i)
	}
	for _, o := range reps[1:] {
		r.Check(o.instrs == rp.instrs && o.cycles == rp.cycles, "sim.instrs/sim.cycles changed between replays: %d/%d vs %d/%d",
			o.instrs, o.cycles, rp.instrs, rp.cycles)
	}
	r.Printf("check layer replay IPC %v FIT %v: bit-identical to exp.Env.Evaluate", rp.ipc, rp.fit)

	layers := []string{"trace", "sim", "power", "thermal", "core"}
	median := func(f func(replay) float64) float64 {
		xs := make([]float64, len(reps))
		for i, o := range reps {
			xs[i] = f(o)
		}
		return Summarize(xs).Median
	}
	total := median(func(o replay) float64 {
		var t time.Duration
		for _, l := range layers {
			t += o.busy[l]
		}
		return float64(t)
	})
	simBusy := median(func(o replay) float64 { return float64(o.busy["sim"]) })
	for _, l := range layers {
		r.Printf("info layer %-8s busy %10.3f ms (median of %d replays)", l, median(func(o replay) float64 { return float64(o.busy[l]) })/1e6, len(reps))
	}
	evalMed := Summarize(evalNS).Median
	coverage := total / evalMed
	r.Printf("info exp.Env.Evaluate cold %.3f ms; layer busy sum %.3f ms", evalMed/1e6, total/1e6)
	r.Check(coverage > 0.8 && coverage < 1.25, "layer busy times cover %.2f of a cold Evaluate's time; attribution is incomplete", coverage)

	// trace.Generator.Next alone over the replay's instruction count.
	var nextNS []float64
	for i := 0; i < probeReps; i++ {
		gen, err := trace.NewGenerator(app, opts.Seed)
		if err != nil {
			return err
		}
		var in trace.Instr
		d := tr.Time("trace.Next", i, func() {
			for n := uint64(0); n < rp.instrs; n++ {
				gen.Next(&in)
			}
		})
		nextNS = append(nextNS, float64(d)/float64(rp.instrs))
	}
	layerSummary(r, "trace.ns_per_instr", "ns", nextNS)
	layerMetric(r, "sim.ns_per_instr", "ns", simBusy/float64(rp.instrs))
	layerMetric(r, "sim.share", "ratio", simBusy/total)
	layerMetric(r, "sim.instrs", "count", float64(rp.instrs))
	layerMetric(r, "sim.cycles", "count", float64(rp.cycles))
	layerMetric(r, "attribution.coverage", "ratio", coverage)

	var pw, th, obsv []float64
	for _, o := range reps {
		pw, th, obsv = append(pw, o.powerNS...), append(th, o.thermalNS...), append(obsv, o.observeNS...)
	}
	layerSummary(r, "power.compute_ns", "ns", pw)
	layerSummary(r, "thermal.quasisteady_ns", "ns", th)
	layerMetric(r, "exp.fixedpoint_iters_per_epoch", "count", float64(rp.fpIters)/float64(rp.fpCalls))
	layerSummary(r, "core.observe_ns", "ns", obsv)
	var assess []float64
	for _, o := range reps {
		assess = append(assess, o.assessNS/1e3)
	}
	layerSummary(r, "core.assess_us", "us", assess)

	// Fixed point as exp exposes it, over the replay's epoch rows.
	on := power.OnFractions(proc, base.Base)
	var ecUS []float64
	for i := 0; i < 40; i++ {
		row := rp.rows[i%len(rp.rows)]
		d := tr.Time("exp.EpochConditions", i, func() { base.EpochConditions(row.Sim.Activity, on, proc, ref.SinkK) })
		ecUS = append(ecUS, float64(d)/1e3)
	}
	layerSummary(r, "exp.epochconditions_us", "us", ecUS)

	// Warm path: requalification and cache hits at other T_qual values.
	if _, err := base.Evaluate(app, proc, qual); err != nil {
		return err
	}
	var rqUS, hitUS []float64
	for i := 0; i < 200; i++ {
		q := base.Qualification(warmTquals[i%len(warmTquals)] + 1)
		var err error
		rqUS = append(rqUS, float64(tr.Time("exp.Requalify", i, func() { _, err = base.Requalify(ref, q) }))/1e3)
		if err != nil {
			return err
		}
		hitUS = append(hitUS, float64(tr.Time("exp.EvaluateCtx.hit", i, func() { _, err = base.EvaluateCtx(context.Background(), app, proc, q) }))/1e3)
		if err != nil {
			return err
		}
	}
	layerSummary(r, "exp.requalify_us", "us", rqUS)
	layerSummary(r, "exp.cache_hit_us", "us", hitUS)

	// DRM selection over the DVS sweep of the golden grid.
	oracle := drm.NewOracle(base)
	oracle.FreqStepHz = figure3StepHz
	sweep, err := oracle.Sweep(app, drm.DVS)
	if err != nil {
		return err
	}
	var selMS []float64
	for rep := 0; rep < 3; rep++ {
		for i, tq := range figures.Figure3TqualsK {
			q := base.Qualification(tq)
			selMS = append(selMS, float64(tr.Time("drm.Select", rep*len(figures.Figure3TqualsK)+i, func() { _, err = sweep.Select(base, q) }))/1e6)
			if err != nil {
				return err
			}
		}
	}
	layerSummary(r, "drm.select_ms", "ms", selMS)

	return probeHandler(r, run, tr)
}

// probeHandler serves the hit corpus through rampserve's handler in
// process (httptest recorder, no network), after warming its Env.
func probeHandler(r *Report, run Run, tr *Tracer) error {
	srv := serve.New(exp.NewEnv(exp.QuickOptions()), serve.DefaultConfig())
	h := srv.Handler()
	do := func(body []byte) (int, []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	warm := WarmUpBodies()
	codes := make([]int, len(warm))
	RunClosedLoop(context.Background(), time.Hour, len(warm), run.Conns, func(_ context.Context, i int) error {
		codes[i], _ = do(warm[i].JSON)
		return nil
	})
	for i, c := range codes {
		if c != http.StatusOK {
			return fmt.Errorf("in-process warm-up %s: status %d", warm[i].JSON, c)
		}
	}
	hits := HitBodies()
	rng := rand.New(rand.NewSource(run.Seed))
	var us []float64
	for i := 0; i < 3000; i++ {
		b := hits[rng.Intn(len(hits))]
		var code int
		d := tr.Time("serve.Handler", i, func() { code, _ = do(b.JSON) })
		if code != http.StatusOK {
			return fmt.Errorf("in-process %s: status %d", b.JSON, code)
		}
		us = append(us, float64(d)/1e3)
	}
	s := Summarize(us)
	p99, err := Fixed(us, 0.99)
	if err != nil {
		return err
	}
	r.Summary("serve.handler_us", "us", s)
	r.Set("serve.handler_us_p50", "us", s.Median)
	layerMetric(r, "serve.handler_us_p99", "us", p99)
	return nil
}
