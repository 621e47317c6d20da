// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the RAMP/DRM stack the way users drive it,
// checks every output, and prints its metrics; the last line of standard
// output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Workloads:
//
//	figure3-cold  regenerate Figure 3 (bzip2, 0.5 GHz grid) from a fresh
//	              exp.Env and byte-compare it with the golden render
//	serve-warm    open-loop then closed-loop cache hits against a warm
//	              rampserve -quick on loopback
//	serve-miss    the same server with one never-seen configuration in
//	              every 50 requests, each a cold simulation
//
// With -trace 0 the JSON carries the end-to-end metrics. With -trace 1
// the run measures the workload untraced and then traced, prints the
// tracing overhead, probes every layer's public functions, and the JSON
// carries the per-layer metrics.
//
// Run it from the repository root through run.sh, which builds this
// command and rampserve:
//
//	bash perfbench/run.sh --workload serve-miss --seed 1 --seconds 40 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// endToEndNames are the figures of an untraced run's JSON line; every
// workload measures each of them (see README.md for what each means on
// each workload).
var endToEndNames = []string{"setup_s", "latency_p50_ms", "throughput_per_s", "max_rss_mb"}

// Run is one invocation's settings.
type Run struct {
	Workload  string
	Seed      int64
	Dur       time.Duration
	SetupReps int
	Tracer    *Tracer // nil = untraced
	Root      string  // repository root
	ServerBin string  // rampserve binary
	Conns     int     // load connections and generator goroutines
}

func main() {
	var (
		workload  = flag.String("workload", "", "figure3-cold, serve-warm or serve-miss")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Int("seconds", 40, "measured duration of the run")
		traced    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		root      = flag.String("root", ".", "repository root")
		serverBin = flag.String("rampserve", "", "rampserve binary (serve-* workloads)")
	)
	flag.Parse()
	run := Run{
		Workload:  *workload,
		Seed:      *seed,
		Dur:       time.Duration(*seconds) * time.Second,
		SetupReps: 3,
		Root:      *root,
		ServerBin: *serverBin,
		Conns:     runtime.NumCPU(),
	}
	if err := execute(run, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs the workload and prints the report; it returns an error
// when the run could not measure or any output check failed.
func execute(run Run, traced bool) error {
	r := newReport(os.Stdout)
	r.Printf("host nproc %d GOMAXPROCS %d cpu %q %s %s/%s commit %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit())
	if !traced {
		if _, err := measure(r, run); err != nil {
			return err
		}
		return finish(r, endToEndNames)
	}

	// Traced: the same measurement untraced and traced; the difference
	// is the tracing overhead.
	run.SetupReps = 1
	r.Printf("phase untraced")
	untraced := newReport(os.Stdout)
	if _, err := measure(untraced, run); err != nil {
		return err
	}
	r.Printf("phase traced")
	run.Tracer = NewTracer()
	tracedRep := newReport(os.Stdout)
	extras, err := measure(tracedRep, run)
	if err != nil {
		return err
	}
	for _, n := range endToEndNames {
		u, t := untraced.metrics[n].Value, tracedRep.metrics[n].Value
		r.Printf("overhead %-20s untraced=%-12.6g traced=%-12.6g delta=%+.6g (%+.1f%%)", n, u, t, t-u, 100*(t-u)/u)
	}
	for _, sub := range []*Report{untraced, tracedRep} {
		r.Attempted += sub.Attempted
		r.Failed += sub.Failed
		r.Checks = append(r.Checks, sub.Checks...)
	}

	r.Printf("phase layers")
	if err := probeLayers(r, run, run.Tracer); err != nil {
		return err
	}
	layerMetric(r, "exp.cache_hit_ratio", "ratio", float64(extras.CacheHits)/float64(max(extras.CacheHits+extras.CacheMisses, 1)))
	layerMetric(r, "exp.cache_entries", "count", float64(extras.CacheEntries))
	if s := extras.Serve; s != nil {
		r.Scalar("serve.queue_wait_us_p99", "us", s.QueueWaitP99)
		r.Scalar("serve.shed", "count", float64(s.Shed))
		http := Summarize(s.HTTPUS)
		r.Scalar("transport.us_p50", "us", http.Median-r.metrics["serve.handler_us_p50"].Value)
		r.Scalar("load.late_us_p99", "us", s.LateP99US)
		r.Scalar("load.conns", "count", float64(s.Conns))
	}
	path := filepath.Join(run.Root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", run.Workload, run.Seed))
	if err := run.Tracer.WriteFile(path); err != nil {
		return err
	}
	r.Printf("spans written to %s", path)
	return finish(r, perLayerNames)
}

// measure runs the workload once.
func measure(r *Report, run Run) (Extras, error) {
	if run.Workload == "figure3-cold" {
		return runFigure3Cold(r, run)
	}
	spec, ok := serveSpecs[run.Workload]
	if !ok {
		return Extras{}, fmt.Errorf("unknown workload %q (want figure3-cold, serve-warm or serve-miss)", run.Workload)
	}
	if run.ServerBin == "" {
		return Extras{}, fmt.Errorf("%s needs -rampserve", run.Workload)
	}
	return runServe(r, run, spec)
}

// finish prints the JSON line and fails the run on any failed check.
func finish(r *Report, names []string) error {
	if err := r.Finish(names); err != nil {
		return err
	}
	if !r.Correct() {
		return fmt.Errorf("%d failed requests, %d failed output checks", r.Failed, len(r.Checks))
	}
	return nil
}

// cpuModel names the host CPU from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision the binary was built from, when the
// build could read it from version control.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
