package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ramp/internal/exp"
	"ramp/internal/serve"
	"ramp/internal/trace"
)

// ServeSpec defines a rampserve workload.
type ServeSpec struct {
	RatePerSec float64 // open-loop offered rate, well under capacity
	MissEvery  int     // one cold miss per block of this many requests (0 = none)
	OpenShare  float64 // share of the run's duration spent open-loop; the rest is closed-loop
	MissChecks int     // seeded sample of miss bodies checked against in-process evaluation
}

// serveSpecs are the rampserve workloads. serve-warm offers 1,000 req/s
// of cache hits, about an eighth of the closed-loop capacity measured on
// a 2-vCPU host. serve-miss offers 400 req/s with one miss in every 50:
// 8 cold simulations a second at roughly 60-120 ms each keep about half
// of two cores simulating, while the hits give its hit tail thousands
// of samples.
var serveSpecs = map[string]ServeSpec{
	"serve-warm": {RatePerSec: 1000, OpenShare: 0.6},
	"serve-miss": {RatePerSec: 400, MissEvery: 50, OpenShare: 0.75, MissChecks: 6},
}

// maxLateP99 bounds how late the generator may send (p99, beyond the
// due time or the connection becoming free); a run past it measured
// its own generator rather than the server, and fails.
const maxLateP99 = 5 * time.Millisecond

// ServeExtras is what a serve-* run measured for the per-layer metrics.
type ServeExtras struct {
	HTTPUS       []float64 // client send→receive per request (µs)
	QueueWaitP99 float64   // server queue-wait p99 bucket bound (µs)
	Shed         int64
	LateP99US    float64
	Conns        int64
}

// expectation maps a request body to the response bytes rampserve must
// send for it, computed in process through exp.Env.Evaluate.
type expectation map[string][]byte

// expectedResponse evaluates req in env exactly as rampserve normalizes
// it and renders the response body rampserve's encoder would send.
func expectedResponse(env *exp.Env, req serve.EvaluateRequest) ([]byte, error) {
	app, err := trace.AppByName(req.App)
	if err != nil {
		return nil, err
	}
	proc := env.Base
	if req.Window != 0 {
		proc.WindowSize = req.Window
		proc.IntRegs = min(env.Base.IntRegs, req.Window+req.Window/2)
		proc.FPRegs = min(env.Base.FPRegs, req.Window+req.Window/2)
		proc.MemQueueSize = min(env.Base.MemQueueSize, req.Window)
	}
	if req.ALUs != 0 {
		proc.IntALUs = req.ALUs
	}
	if req.FPUs != 0 {
		proc.FPUs = req.FPUs
	}
	if req.FreqHz != 0 {
		proc = proc.WithOperatingPoint(req.FreqHz)
	}
	proc.Name = fmt.Sprintf("w%d-a%d-f%d@%.3fGHz", proc.WindowSize, proc.IntALUs, proc.FPUs, proc.FreqHz/1e9)
	tq := req.TqualK
	if tq == 0 {
		tq = 400
	}
	qual := env.Qualification(tq)
	res, err := env.Evaluate(app, proc, qual)
	if err != nil {
		return nil, err
	}
	a := res.Assessment
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(serve.EvaluateResponse{
		App: app.Name, Proc: proc.Name,
		FreqHz: proc.FreqHz, VddV: proc.VddV, TqualK: qual.TqualK,
		IPC: res.IPC, BIPS: res.BIPS, AvgW: res.AvgW,
		MaxTempK: res.MaxTempK, AvgTempK: res.AvgTempK, SinkK: res.SinkK,
		FIT: a.TotalFIT, TargetFIT: qual.TargetFIT, MTTFYears: a.MTTFYears,
		MeetsTarget: a.TotalFIT <= qual.TargetFIT,
	})
	return buf.Bytes(), err
}

// expectations computes the expected response of every hit body and of
// a seeded sample of miss bodies, on `workers` goroutines.
func expectations(bodies []Body, workers int) (expectation, error) {
	env := exp.NewEnv(exp.QuickOptions())
	want := make(expectation, len(bodies))
	outs := make([][]byte, len(bodies))
	errs := make([]error, len(bodies))
	jobs := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range jobs {
				outs[i], errs[i] = expectedResponse(env, bodies[i].Req)
			}
		}()
	}
	for i := range bodies {
		jobs <- i
	}
	close(jobs)
	for w := 0; w < workers; w++ {
		<-done
	}
	for i, b := range bodies {
		if errs[i] != nil {
			return nil, fmt.Errorf("in-process evaluate %s: %w", b.JSON, errs[i])
		}
		want[string(b.JSON)] = outs[i]
	}
	return want, nil
}

// setupServer starts rampserve and warms its cache with every warm-up
// body, returning the server once all 27 points are resident.
func setupServer(run Run) (*Server, error) {
	srv, err := StartServer(run.ServerBin)
	if err != nil {
		return nil, err
	}
	warm := WarmUpBodies()
	c := NewClient(srv.URL, run.Conns)
	defer c.Close()
	samples := RunClosedLoop(context.Background(), time.Hour, len(warm), run.Conns, func(ctx context.Context, i int) error {
		_, err := c.Evaluate(ctx, warm[i].JSON)
		return err
	})
	for _, s := range samples {
		if s.Err != nil {
			srv.Stop()
			return nil, fmt.Errorf("warm-up %s: %w", warm[s.Index].JSON, s.Err)
		}
	}
	if len(samples) != len(warm) {
		srv.Stop()
		return nil, fmt.Errorf("warm-up sent %d of %d bodies", len(samples), len(warm))
	}
	return srv, nil
}

// segment is one server's share of a run: set-up, an open-loop slice
// of the schedule and a closed-loop slice.
type segment struct {
	setup       time.Duration
	open        []Sample // Index is into the run's open schedule
	closed      []Sample // Index is into the run's closed sequence
	openMisses  int
	closedMiss  int
	before, mid Metrics // /metrics before the open and closed slices
	after       Metrics
	rssMB       float64
	dials       int64
	cpuOpen     float64 // server CPU seconds during the open-loop slice
	cpuClosed   float64 // and during the closed-loop slice
}

// runServe drives one serve-* workload on run.SetupReps fresh servers in
// turn. Each server is set up (started and cache-warmed, timed), takes
// an equal slice of the open-loop schedule and then an equal slice of
// the closed-loop capacity phase, and is stopped. Spreading the run over
// several server processes keeps one process's luck — its placement on
// the host — from setting the run's figures. Every hit response, and a
// seeded sample of miss responses, is byte-compared with the response
// in-process evaluation predicts.
func runServe(r *Report, run Run, spec ServeSpec) (Extras, error) {
	openFor := time.Duration(spec.OpenShare * float64(run.Dur))
	closedFor := run.Dur - openFor
	sched := NewSchedule(run.Seed, ScheduleSpec{
		RatePerSec: spec.RatePerSec,
		OpenFor:    openFor,
		ClosedLen:  200_000,
		MissEvery:  spec.MissEvery,
	})
	r.Printf("workload %s seed %d schedule %s open %d requests (%d misses) at %g req/s for %s, closed %s on %d connections, %d servers",
		run.Workload, run.Seed, sched.Hash(), len(sched.Open), Misses(sched.Open), spec.RatePerSec, openFor, closedFor, run.Conns, run.SetupReps)

	for _, b := range append(append([]Body(nil), sched.Open...), sched.Closed...) {
		if b.Miss {
			if err := InEnvelope(b.Req); err != nil {
				return Extras{}, fmt.Errorf("miss body %s leaves the calibrated envelope: %w", b.JSON, err)
			}
		}
	}

	// Expected responses, computed before and outside the timed set-up,
	// for every hit body and a sample of misses drawn from a stream
	// apart from the schedule's.
	checked := HitBodies()
	rng := rand.New(rand.NewSource(run.Seed ^ 0x5eed))
	var missIdx []int
	for i, b := range sched.Open {
		if b.Miss {
			missIdx = append(missIdx, i)
		}
	}
	rng.Shuffle(len(missIdx), func(i, j int) { missIdx[i], missIdx[j] = missIdx[j], missIdx[i] })
	for _, i := range missIdx[:min(spec.MissChecks, len(missIdx))] {
		checked = append(checked, sched.Open[i])
	}
	want, err := expectations(checked, run.Conns)
	if err != nil {
		return Extras{}, err
	}
	check := func(b Body, got []byte) error {
		w, ok := want[string(b.JSON)]
		if ok && !bytes.Equal(got, w) {
			return fmt.Errorf("response to %s differs from in-process evaluation:\n got %s\nwant %s", b.JSON, got, w)
		}
		if !b.Miss && !ok {
			return fmt.Errorf("no expectation for hit body %s", b.JSON)
		}
		return nil
	}

	n := run.SetupReps
	segs := make([]segment, n)
	nextOpen, nextClosed := 0, 0
	for k := range segs {
		seg := &segs[k]
		// The open slice: arrivals due in [k, k+1) × openFor/n, rebased.
		lo := time.Duration(k) * openFor / time.Duration(n)
		hi := time.Duration(k+1) * openFor / time.Duration(n)
		first := nextOpen
		for nextOpen < len(sched.Due) && sched.Due[nextOpen] < hi {
			nextOpen++
		}
		due := make([]time.Duration, nextOpen-first)
		for i := range due {
			due[i] = sched.Due[first+i] - lo
		}
		if err := runSegment(run, seg, k, closedFor/time.Duration(n), due, sched.Open[first:nextOpen], sched.Closed[nextClosed:], check); err != nil {
			return Extras{}, err
		}
		for i := range seg.open {
			seg.open[i].Index += first
			seg.open[i].Due += lo
			seg.open[i].Start += lo
			seg.open[i].End += lo
		}
		for i := range seg.closed {
			seg.closed[i].Index += nextClosed
		}
		for _, s := range seg.open {
			if sched.Open[s.Index].Miss {
				seg.openMisses++
			}
		}
		for _, s := range seg.closed {
			if sched.Closed[s.Index].Miss {
				seg.closedMiss++
			}
		}
		nextClosed += len(seg.closed)
	}
	return reportServe(r, run, spec, sched, segs, closedFor)
}

// runSegment sets up one server and drives its slices: the open-loop
// arrivals `due` carrying bodies `open`, then closed-loop requests
// walking `closed` for closedFor.
func runSegment(run Run, seg *segment, k int, closedFor time.Duration, due []time.Duration, open, closed []Body, check func(Body, []byte) error) error {
	var srv *Server
	var err error
	seg.setup = run.Tracer.Time("setup.server", k, func() { srv, err = setupServer(run) })
	if err != nil {
		return err
	}
	defer srv.Stop()
	client := NewClient(srv.URL, run.Conns)
	defer client.Close()
	send := func(bodies []Body, traceBase int) Sender {
		return func(ctx context.Context, i int) error {
			var got []byte
			var err error
			run.Tracer.Time("http", traceBase+i, func() { got, err = client.Evaluate(ctx, bodies[i].JSON) })
			if err != nil {
				return err
			}
			return check(bodies[i], got)
		}
	}
	if seg.before, err = FetchMetrics(srv.URL); err != nil {
		return err
	}
	c0, err := srv.CPUSeconds()
	if err != nil {
		return err
	}
	seg.open = RunOpenLoop(context.Background(), due, run.Conns, send(open, k<<24))
	c1, err := srv.CPUSeconds()
	if err != nil {
		return err
	}
	if seg.mid, err = FetchMetrics(srv.URL); err != nil {
		return err
	}
	c2, err := srv.CPUSeconds()
	if err != nil {
		return err
	}
	seg.closed = RunClosedLoop(context.Background(), closedFor, len(closed), run.Conns, send(closed, k<<24+len(open)))
	c3, err := srv.CPUSeconds()
	if err != nil {
		return err
	}
	seg.cpuOpen, seg.cpuClosed = c1-c0, c3-c2
	if seg.after, err = FetchMetrics(srv.URL); err != nil {
		return err
	}
	seg.dials = client.Dials.Load()
	seg.rssMB, err = srv.PeakRSSMB()
	return err
}

// reportServe checks a serve-* run's server-side counts and prints and
// records its metrics.
func reportServe(r *Report, run Run, spec ServeSpec, sched Schedule, segs []segment, closedFor time.Duration) (Extras, error) {
	var setup, hitLat, missLat, late []float64
	var rss, cpuOpen, cpuClosed float64
	done, openSent, closedSent := 0, 0, 0
	ex := Extras{Serve: &ServeExtras{}}
	for k, seg := range segs {
		setup = append(setup, seg.setup.Seconds())
		rss = max(rss, seg.rssMB)
		openSent += len(seg.open)
		closedSent += len(seg.closed)
		cpuOpen += seg.cpuOpen
		cpuClosed += seg.cpuClosed
		dm1 := seg.mid.Cache.Misses - seg.before.Cache.Misses
		dm2 := seg.after.Cache.Misses - seg.mid.Cache.Misses
		r.Check(dm1 == int64(seg.openMisses), "server %d: open-loop slice added %d exp cache misses, scheduled %d", k, dm1, seg.openMisses)
		r.Check(dm2 == int64(seg.closedMiss), "server %d: closed-loop slice added %d exp cache misses, sent %d miss bodies", k, dm2, seg.closedMiss)
		r.Check(seg.dials <= int64(run.Conns), "server %d: load client opened %d connections, limit %d", k, seg.dials, run.Conns)
		ex.CacheHits += seg.after.Cache.Hits - seg.before.Cache.Hits
		ex.CacheMisses += dm1 + dm2
		ex.CacheEntries = seg.after.Cache.Entries
		ex.Serve.Shed += seg.after.Shed - seg.before.Shed
		ex.Serve.QueueWaitP99 = max(ex.Serve.QueueWaitP99, BucketQuantile(seg.before, seg.after, "queue_wait", 0.99))
		ex.Serve.Conns = max(ex.Serve.Conns, seg.dials)
		for _, s := range seg.open {
			lat := float64(s.Latency())
			if s.Err != nil {
				lat = math.Inf(1) // a failed request misses every latency limit
			}
			if sched.Open[s.Index].Miss {
				missLat = append(missLat, lat)
			} else {
				hitLat = append(hitLat, lat)
			}
			late = append(late, float64(s.Late))
		}
		for _, s := range seg.closed {
			if s.Err == nil && s.End <= closedFor/time.Duration(len(segs)) {
				done++
			}
		}
		for _, ss := range [][]Sample{seg.open, seg.closed} {
			for _, s := range ss {
				r.Attempted++
				if s.Err != nil {
					r.Failed++
					if r.Failed <= 5 {
						r.Printf("request %d failed: %v", s.Index, s.Err)
					}
				}
			}
		}
	}
	r.Check(closedSent < len(sched.Closed), "closed-loop phase exhausted its %d-request sequence", len(sched.Closed))
	r.Check(openSent == len(sched.Due), "open loop completed %d of %d scheduled requests", openSent, len(sched.Due))
	rate := float64(done) / closedFor.Seconds()

	lateS := Summarize(scale(late, 1e-3))
	lateP99, err := Fixed(late, 0.99)
	if err != nil {
		return ex, fmt.Errorf("generator lateness: %w", err)
	}
	r.Check(time.Duration(lateP99) <= maxLateP99, "generator lateness p99 %s exceeds %s", time.Duration(lateP99), maxLateP99)
	ex.Serve.LateP99US = lateP99 / 1e3
	ex.Serve.HTTPUS = scale(run.Tracer.Durations("http"), 1e-3)

	su := Summarize(setup)
	hit, miss := Summarize(scale(hitLat, 1e-3)), Summarize(scale(missLat, 1e-6))
	r.Summary("setup_s", "s", su)
	hitP90, err1 := Fixed(hitLat, 0.9)
	hitP99, err2 := Fixed(hitLat, 0.99)
	if err := errors.Join(err1, err2); err != nil {
		return ex, fmt.Errorf("hit latency: %w", err)
	}
	// Only medians are gated: the tails are printed, but on a shared
	// 2-vCPU VM the host's speed swings by a third over seconds, which
	// moves a p90 or p99 by more than any bound a regression gate could
	// use.
	var p50 float64
	if spec.MissEvery == 0 {
		r.Summary("p50_us", "us", hit)
		r.Value("p90_us", "us", hit.N, hitP90/1e3)
		r.Value("p99_us", "us", hit.N, hitP99/1e3)
		r.Value("sat_rps", "req/s", done, rate)
		p50 = hit.Median / 1e3
	} else {
		// With at most nproc connections, a hit due while every
		// connection carries a miss waits for one, so the hit p99 sits
		// on the edge of that head-of-line regime.
		r.Value("hit_p99_us", "us", hit.N, hitP99/1e3)
		r.Summary("hit_latency_us", "us", hit)
		r.Summary("miss_p50_ms", "ms", miss)
		r.Value("mixed_sat_rps", "req/s", done, rate)
		p50 = miss.Median
	}
	r.Scalar("fail_ratio", "ratio", float64(r.Failed)/float64(max(r.Attempted, 1)))
	r.Scalar("max_rss_mb", "MB", rss)
	r.Summary("load.late_us", "us", lateS)
	r.Scalar("load.conns", "count", float64(ex.Serve.Conns))
	r.Printf("info server CPU per request: open loop %.1f µs, closed loop %.1f µs",
		cpuOpen/float64(max(openSent, 1))*1e6, cpuClosed/float64(max(closedSent, 1))*1e6)
	r.Printf("info cache hits %d, misses %d, entries %d at the end", ex.CacheHits, ex.CacheMisses, ex.CacheEntries)

	r.Set("setup_s", "s", su.Median)
	r.Set("latency_p50_ms", "ms", p50)
	r.Set("throughput_per_s", "1/s", rate)
	r.Set("max_rss_mb", "MB", rss)
	return ex, nil
}
