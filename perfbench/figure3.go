package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ramp/internal/exp"
	"ramp/internal/figures"
	"ramp/internal/trace"
)

// figure3StepHz is the DVS grid of the golden Figure 3 render.
const figure3StepHz = 0.5e9

// envBuilds is how many Envs are built, and timed, per regeneration.
const envBuilds = 25

// goldenFigure3 is the checked-in quick-mode Figure 3 render, relative
// to the repository root.
const goldenFigure3 = "results/golden/figure3_quick.txt"

// Extras carries what a workload measured beyond its end-to-end
// figures, for the traced run's per-layer metrics.
type Extras struct {
	CacheHits, CacheMisses int64
	CacheEntries           int
	Serve                  *ServeExtras // nil for figure3-cold
}

// figure3Hash fingerprints figure3-cold's inputs. They are fixed by the
// golden render — bzip2, the quick options and the 0.5 GHz grid — so
// the seed changes nothing and the hash is the same for every seed.
func figure3Hash() string {
	h := sha256.Sum256(fmt.Appendf(nil, "figure3 %s %+v %g", trace.Bzip2().Name, exp.QuickOptions(), figure3StepHz))
	return hex.EncodeToString(h[:8])
}

// runFigure3Cold regenerates Figure 3 from a fresh Env until the run's
// duration is spent (at least three times), byte-comparing every render
// with the golden file.
func runFigure3Cold(r *Report, run Run) (Extras, error) {
	golden, err := os.ReadFile(filepath.Join(run.Root, goldenFigure3))
	if err != nil {
		return Extras{}, err
	}
	r.Printf("workload figure3-cold seed %d schedule %s", run.Seed, figure3Hash())
	opts := exp.QuickOptions()
	instrsPerEval := float64(opts.WarmupInstrs + uint64(opts.Epochs)*opts.EpochInstrs)
	app := trace.Bzip2()

	var setup, regen, ips []float64
	newEnv := func() *exp.Env {
		var env *exp.Env
		d := run.Tracer.Time("setup.env", len(setup), func() { env = exp.NewEnv(opts) })
		setup = append(setup, d.Seconds())
		return env
	}
	var extras Extras
	start := time.Now()
	for attempts := 0; attempts < 3 || time.Since(start) < run.Dur; attempts++ {
		// Env construction takes tens of microseconds. Building a batch
		// before every regeneration spreads the set-up samples over the
		// whole run, so their median does not rest on one moment of the
		// host's speed.
		for i := 0; i < envBuilds-1; i++ {
			newEnv()
		}
		env := newEnv()
		var rows []figures.Figure3Row
		var ferr error
		d := run.Tracer.Time("figures.Figure3", len(regen), func() { rows, ferr = figures.Figure3(env, app, figure3StepHz) })
		r.Attempted++
		if ferr != nil {
			r.Failed++
			r.Check(false, "figure 3: %v", ferr)
			continue
		}
		var buf bytes.Buffer
		figures.WriteFigure3(&buf, app.Name, rows)
		r.Check(bytes.Equal(buf.Bytes(), golden), "figure 3 render %d differs from %s", len(regen), goldenFigure3)
		cs := env.CacheStats()
		extras.CacheHits, extras.CacheMisses, extras.CacheEntries = cs.Hits, cs.Misses, cs.Entries
		regen = append(regen, d.Seconds())
		ips = append(ips, float64(cs.Misses)*instrsPerEval/d.Seconds())
	}
	rss, err := peakRSSMB("/proc/self/status")
	if err != nil {
		return extras, err
	}

	su, rg, ip := Summarize(setup), Summarize(regen), Summarize(ips)
	r.Summary("setup_s", "s", su)
	r.Summary("figure3_s", "s", rg)
	ipm := Summarize(scale(ips, 1e-6))
	r.Summary("sim_minstr_per_s", "Minstr/s", ipm)
	r.Scalar("fail_ratio", "ratio", float64(r.Failed)/float64(max(r.Attempted, 1)))
	r.Scalar("max_rss_mb", "MB", rss)
	r.Printf("info cold evaluations per regeneration %d, cache hits %d, GOMAXPROCS %d",
		extras.CacheMisses, extras.CacheHits, runtime.GOMAXPROCS(0))

	r.Set("setup_s", "s", su.Median)
	r.Set("latency_p50_ms", "ms", rg.Median*1e3)
	r.Set("throughput_per_s", "1/s", ip.Median)
	r.Set("max_rss_mb", "MB", rss)
	return extras, nil
}

// scale multiplies every sample by k.
func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
