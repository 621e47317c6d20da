// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Tables 1-2, Figures 1-4), plus micro-benchmarks of
// the substrates. Each experiment benchmark regenerates its table/figure
// rows (with reduced simulation lengths so the full suite stays
// tractable) and logs them; run with -v to see the series, or use the
// cmd/ binaries (ramptables, drmexplore, drmdtm) for full-length runs.
//
//	go test -bench=. -benchmem
package ramp_test

import (
	"context"
	"strings"
	"testing"

	"ramp"
	"ramp/internal/exp"
	"ramp/internal/figures"
	"ramp/internal/fleet"
	"ramp/internal/sched"
	"ramp/internal/trace"
)

func quickEnv() *exp.Env { return exp.NewEnv(exp.QuickOptions()) }

// BenchmarkTable1 regenerates Table 1 (base processor parameters).
func BenchmarkTable1(b *testing.B) {
	env := quickEnv()
	var out string
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		figures.NewTable1(env).Write(&sb)
		out = sb.String()
	}
	b.Log("\n" + out)
}

// BenchmarkTable2 regenerates Table 2 (per-application IPC and power on
// the base processor).
func BenchmarkTable2(b *testing.B) {
	env := quickEnv()
	var rows []figures.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.Table2(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	figures.WriteTable2(&sb, rows)
	b.Log("\n" + sb.String())
	for _, r := range rows {
		if r.App == "MP3dec" {
			b.ReportMetric(r.IPC, "MP3dec-IPC")
			b.ReportMetric(r.PowerW, "MP3dec-W")
		}
	}
}

// BenchmarkFigure1 regenerates Figure 1 (application FIT values across
// three qualification cost points).
func BenchmarkFigure1(b *testing.B) {
	env := quickEnv()
	var rows []figures.Figure1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.Figure1(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	figures.WriteFigure1(&sb, rows)
	b.Log("\n" + sb.String())
}

// BenchmarkFigure2 regenerates Figure 2 (ArchDVS DRM performance vs
// T_qual) on a reduced setup: two contrasting applications and a coarse
// DVS grid. Use cmd/drmexplore for the full nine-application figure.
func BenchmarkFigure2(b *testing.B) {
	env := quickEnv()
	apps := []trace.Profile{trace.MP3dec(), trace.Twolf()}
	var rows []figures.Figure2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.Figure2(env, apps, 0.5e9)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	figures.WriteFigure2(&sb, rows)
	b.Log("\n" + sb.String())
	b.ReportMetric(rows[0].RelPerf[0], "hotApp-relperf@400K")
	b.ReportMetric(rows[0].RelPerf[len(rows[0].RelPerf)-1], "hotApp-relperf@325K")
}

// BenchmarkFigure3 regenerates Figure 3 (Arch vs DVS vs ArchDVS for
// bzip2) on a coarse DVS grid.
func BenchmarkFigure3(b *testing.B) {
	env := quickEnv()
	var rows []figures.Figure3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.Figure3(env, trace.Bzip2(), 0.5e9)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	figures.WriteFigure3(&sb, "bzip2", rows)
	b.Log("\n" + sb.String())
}

// BenchmarkFigure4 regenerates Figure 4 (DRM vs DTM DVS frequencies) for
// two contrasting applications on a coarse grid.
func BenchmarkFigure4(b *testing.B) {
	env := quickEnv()
	apps := []trace.Profile{trace.Gzip(), trace.Art()}
	var rows []figures.Figure4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.Figure4(env, apps, 0.5e9)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	figures.WriteFigure4(&sb, rows)
	b.Log("\n" + sb.String())
}

// BenchmarkDieEvaluate measures one manycore schedule evaluation on a
// four-core die at quick settings: per-epoch wear-leveling assignment,
// the tiled-die leakage-temperature fixed point (LU fast path on the
// 46-node system), and per-core RAMP observation. The suite evaluations
// are cached in the Env, so the number is the cost of the die run
// itself.
func BenchmarkDieEvaluate(b *testing.B) {
	env := quickEnv()
	sim, err := sched.New(env, sched.DefaultConfig(4, env.Opts))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var r sched.Result
	for i := 0; i < b.N; i++ {
		r, err = sim.Run(sched.WearLevel)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.LifetimeYears, "lifetime-years")
}

// ---- substrate micro-benchmarks ----

// BenchmarkSimulator measures raw simulation speed: instructions per op
// and simulated instructions per host second.
func BenchmarkSimulator(b *testing.B) {
	gen, err := ramp.NewGenerator(trace.Bzip2(), 1)
	if err != nil {
		b.Fatal(err)
	}
	core, err := ramp.NewCore(ramp.BaseProcessor(), gen)
	if err != nil {
		b.Fatal(err)
	}
	core.Run(50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Run(10_000)
	}
	b.ReportMetric(10_000, "instrs/op")
	b.ReportMetric(float64(10_000*b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkTraceGeneration measures the synthetic workload generator.
func BenchmarkTraceGeneration(b *testing.B) {
	gen, err := ramp.NewGenerator(trace.MPGdec(), 1)
	if err != nil {
		b.Fatal(err)
	}
	var in ramp.Instr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&in)
	}
}

// BenchmarkThermalSolve measures one quasi-steady thermal solve.
func BenchmarkThermalSolve(b *testing.B) {
	env := quickEnv()
	pw := powerVector(2.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Thermal.QuasiSteady(pw, 340)
	}
}

// BenchmarkThermalQuasiSteady measures the pre-factorized quasi-steady
// solve — the innermost call of every evaluation — and reports
// allocations, which must be zero (the matrix is factorized once at
// construction; each call is two triangular substitutions on the
// stack).
func BenchmarkThermalQuasiSteady(b *testing.B) {
	env := quickEnv()
	pw := powerVector(2.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Thermal.QuasiSteady(pw, 340)
	}
}

func powerVector(x float64) ramp.PowerVector {
	var v ramp.PowerVector
	for i := range v {
		v[i] = x
	}
	return v
}

// BenchmarkRAMPObserve measures folding one interval into the engine.
func BenchmarkRAMPObserve(b *testing.B) {
	env := quickEnv()
	engine, err := ramp.NewEngine(env.FP, env.Params, env.Qualification(400))
	if err != nil {
		b.Fatal(err)
	}
	iv := ramp.Interval{DurationSec: 1}
	for s := range iv.Structures {
		iv.Structures[s] = ramp.Conditions{
			TempK: 370, VddV: 1.0, FreqHz: 4e9, Activity: 0.4, OnFraction: 1,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.Observe(iv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate measures one full cold pipeline evaluation
// (simulate, power, thermal, RAMP) at quick settings. A fresh Env per
// iteration defeats the result cache so the number stays the cost of
// actually simulating.
func BenchmarkEvaluate(b *testing.B) {
	app := trace.Twolf()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := quickEnv()
		if _, err := env.Evaluate(app, env.Base, qualAt(env, 400)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateCacheHit measures the memoized path: the same
// (app, proc) on a warm Env, requalified to a different T_qual each
// iteration so the RAMP re-assessment is included.
func BenchmarkEvaluateCacheHit(b *testing.B) {
	env := quickEnv()
	app := trace.Twolf()
	if _, err := env.Evaluate(app, env.Base, qualAt(env, 400)); err != nil {
		b.Fatal(err)
	}
	quals := []float64{400, 370, 345, 325}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Evaluate(app, env.Base, qualAt(env, quals[i%len(quals)])); err != nil {
			b.Fatal(err)
		}
	}
}

func qualAt(env *exp.Env, tqualK float64) ramp.Qualification {
	return env.Qualification(tqualK)
}

// BenchmarkScalingStudy regenerates the Section 1.2 technology-scaling
// trend (per-core and per-die FIT across 180-65 nm).
func BenchmarkScalingStudy(b *testing.B) {
	var rows []figures.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.ScalingStudy(exp.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	figures.WriteScaling(&sb, rows)
	b.Log("\n" + sb.String())
	b.ReportMetric(rows[0].FullDieFIT, "dieFIT-180nm")
	b.ReportMetric(rows[len(rows)-1].FullDieFIT, "dieFIT-65nm")
}

// BenchmarkLifetimeModel measures the Weibull series-system solver.
func BenchmarkLifetimeModel(b *testing.B) {
	env := quickEnv()
	r, err := env.Evaluate(trace.Twolf(), env.Base, env.Qualification(400))
	if err != nil {
		b.Fatal(err)
	}
	lm, err := ramp.NewLifetimeModel(r.Assessment, ramp.DefaultWeibullShapes())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var years float64
	for i := 0; i < b.N; i++ {
		years = lm.MTTFYears()
	}
	b.ReportMetric(years, "weibull-MTTF-years")
}

// BenchmarkFleetMC measures the fleet Monte Carlo engine: chips
// simulated to first failure per op, with process variation, two DRM
// policies and a repair scenario in play. Allocations per op are the
// run's fixed setup (shard accumulators + report); the per-chip loop
// itself is allocation-free (fleet's TestSimulateShardZeroAlloc).
func BenchmarkFleetMC(b *testing.B) {
	const chips = 50_000
	env := quickEnv()
	res, err := env.Evaluate(trace.Twolf(), env.Base, qualAt(env, 400))
	if err != nil {
		b.Fatal(err)
	}
	var policies []fleet.Policy
	for _, tq := range []float64{400, 370} {
		a, err := env.Requalify(res, qualAt(env, tq))
		if err != nil {
			b.Fatal(err)
		}
		policies = append(policies, fleet.Policy{Name: "tq", Assessment: a})
	}
	cfg := fleet.DefaultConfig(chips, 1)
	cfg.Scenarios = []fleet.Scenario{
		fleet.NominalScenario(),
		{Name: "repair", Duty: 1, Spares: 2},
	}
	eng, err := fleet.New(cfg, policies)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rep *fleet.Report
	for i := 0; i < b.N; i++ {
		rep, err = eng.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(chips, "chips/op")
	b.ReportMetric(float64(chips)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mchips/s")
	b.ReportMetric(rep.Results[0].MeanYears, "fleet-mean-years")
}

// BenchmarkSensorHarness measures RAMP observation through the emulated
// hardware sensor stack.
func BenchmarkSensorHarness(b *testing.B) {
	env := quickEnv()
	engine, err := ramp.NewEngine(env.FP, env.Params, env.Qualification(400))
	if err != nil {
		b.Fatal(err)
	}
	temps, err := ramp.NewTempSensors(ramp.DefaultTempSensors(), 1)
	if err != nil {
		b.Fatal(err)
	}
	h, err := ramp.NewSensorHarness(temps, ramp.DefaultCounters(), engine)
	if err != nil {
		b.Fatal(err)
	}
	iv := ramp.Interval{DurationSec: 1}
	for s := range iv.Structures {
		iv.Structures[s] = ramp.Conditions{
			TempK: 370, VddV: 1, FreqHz: 4e9, Activity: 0.4, OnFraction: 1,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Observe(iv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReactiveController measures one controlled epoch (simulate +
// sense + assess + act).
func BenchmarkReactiveController(b *testing.B) {
	env := quickEnv()
	ctrl := ramp.NewController(env, env.Qualification(370), ramp.Banked)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.Run(trace.Gzip(), 4); err != nil {
			b.Fatal(err)
		}
	}
}
