package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ramp/internal/exp"
)

// tinyOptions returns run lengths far below even QuickOptions: serve
// tests care about the HTTP/concurrency layer, not simulation fidelity,
// and they must stay fast under -race.
func tinyOptions() exp.Options {
	o := exp.QuickOptions()
	o.WarmupInstrs = 4_000
	o.EpochInstrs = 4_000
	o.Epochs = 2
	return o
}

// deadlineOptions returns an evaluation of many short epochs for the
// 1 ms request-deadline tests: about 0.4M instructions, long enough that
// the deadline always expires mid-run even when the timer that cancels
// the context only fires at a preemption, with a cancellation check every
// 10k instructions.
func deadlineOptions() exp.Options {
	o := exp.QuickOptions()
	o.WarmupInstrs = 10_000
	o.EpochInstrs = 10_000
	o.Epochs = 40
	return o
}

// tinyConfig returns a test config; the httptest server ignores Addr.
func tinyConfig() Config {
	c := DefaultConfig()
	c.Workers = 4
	c.QueueDepth = 64
	c.RequestTimeout = time.Minute
	c.DrainTimeout = 10 * time.Second
	c.FreqStepHz = 1.25e9 // 3-point DVS ladder: keep sweeps small
	c.EnablePprof = false
	return c
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(exp.NewEnv(tinyOptions()), tinyConfig())
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, string(b)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, string(b)
}

func TestEvaluateEndpoint(t *testing.T) {
	_, hs := newTestServer(t)
	status, body := post(t, hs.URL+"/v1/evaluate", `{"app":"twolf","freq_hz":4.5e9,"tqual_k":370}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp EvaluateResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.App != "twolf" || resp.TqualK != 370 || resp.FreqHz != 4.5e9 {
		t.Errorf("echoed request fields wrong: %+v", resp)
	}
	if resp.IPC <= 0 || resp.BIPS <= 0 || resp.AvgW <= 0 || resp.FIT <= 0 {
		t.Errorf("implausible results: %+v", resp)
	}
	if resp.MeetsTarget != (resp.FIT <= resp.TargetFIT) {
		t.Errorf("meets_target inconsistent with fit/target: %+v", resp)
	}
}

func TestEvaluateNormalizationSharesCacheKey(t *testing.T) {
	s, hs := newTestServer(t)
	// The same configuration spelled three ways: omitted fields,
	// explicit base values, and explicit base frequency.
	bodies := []string{
		`{"app":"gzip"}`,
		`{"app":"gzip","window":128,"alus":6,"fpus":4}`,
		`{"app":"gzip","freq_hz":4e9,"tqual_k":400}`,
	}
	var first string
	for i, b := range bodies {
		status, body := post(t, hs.URL+"/v1/evaluate", b)
		if status != http.StatusOK {
			t.Fatalf("req %d: status %d, body %s", i, status, body)
		}
		if i == 0 {
			first = body
		} else if body != first {
			t.Errorf("req %d: body differs from first:\n%s\nvs\n%s", i, body, first)
		}
	}
	if st := s.Env().CacheStats(); st.Misses != 1 {
		t.Errorf("three spellings of one config simulated %d times (want 1)", st.Misses)
	}
}

func TestEvaluateValidation(t *testing.T) {
	_, hs := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"unknown app", `{"app":"nope"}`},
		{"unknown field", `{"app":"twolf","bogus":1}`},
		{"malformed", `{"app":`},
		{"trailing data", `{"app":"twolf"} {"app":"gzip"}`},
		{"freq below window", `{"app":"twolf","freq_hz":1e9}`},
		{"freq above window", `{"app":"twolf","freq_hz":9e9}`},
		{"tqual implausible", `{"app":"twolf","tqual_k":100}`},
		{"bad window", `{"app":"twolf","window":-4}`},
		{"empty", ``},
	}
	for _, tc := range cases {
		if status, body := post(t, hs.URL+"/v1/evaluate", tc.body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %s", tc.name, status, body)
		}
	}
	// Wrong method routes to 405 via the Go 1.22 method pattern.
	if status, _ := get(t, hs.URL+"/v1/evaluate"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/evaluate: status %d (want 405)", status)
	}
}

// TestUnitCountCeiling pins the calibrated envelope as the range of
// every unit count on both routes that share normalizeEvaluate: the base
// machine is its ceiling and ArchConfigs' smallest machine its floor. A
// count outside it is a 400 naming the field and its range, and never
// reaches the simulator (which would size its buffers from it).
func TestUnitCountCeiling(t *testing.T) {
	s, hs := newTestServer(t)
	for _, tc := range []struct{ body, want string }{
		{`{"app":"gzip","alus":1073741824}`, "alus 1073741824 outside [2, 6]"},
		{`{"app":"gzip","window":256}`, "window 256 outside [16, 128]"},
		{`{"app":"gzip","fpus":5}`, "fpus 5 outside [1, 4]"},
		{`{"app":"gzip","window":15}`, "window 15 outside [16, 128]"},
		{`{"app":"gzip","alus":1}`, "alus 1 outside [2, 6]"},
		{`{"app":"gzip","fpus":-1}`, "fpus -1 outside [1, 4]"},
	} {
		for _, route := range []string{"/v1/evaluate", "/v1/fleet"} {
			status, body := post(t, hs.URL+route, tc.body)
			if status != http.StatusBadRequest || !strings.Contains(body, tc.want) {
				t.Errorf("%s %s: status %d body %s, want 400 naming %q", route, tc.body, status, body, tc.want)
			}
		}
	}
	if st := s.Env().CacheStats(); st.Misses != 0 {
		t.Errorf("rejected requests ran %d simulations, want 0", st.Misses)
	}
}

func TestTqualOutsideModelDomain(t *testing.T) {
	// The model assesses 293 K < T_qual < 500 K only. Every route rejects
	// a temperature outside that domain with a 400 naming the field and
	// the range, before any simulation — so a bad T_qual never reaches the
	// exp cache, whose key omits T_qual.
	s, hs := newTestServer(t)
	for _, tq := range []string{"250", "280", "293", "500", "510"} {
		for _, tc := range []struct{ route, body, field string }{
			{"/v1/evaluate", `{"app":"twolf","tqual_k":` + tq + `}`, "tqual_k"},
			{"/v1/sweep", `{"app":"twolf","adaptation":"DVS","tquals_k":[400,` + tq + `]}`, "tquals_k"},
			{"/v1/fleet", `{"app":"twolf","tquals_k":[` + tq + `]}`, "tquals_k"},
			{"/v1/fleet", `{"app":"twolf","tquals_k":[400,` + tq + `]}`, "tquals_k"},
		} {
			want := tc.field + " " + tq + " outside the qualification domain (293, 500) K"
			status, body := post(t, hs.URL+tc.route, tc.body)
			if status != http.StatusBadRequest || !strings.Contains(body, want) {
				t.Errorf("%s %s: status %d body %s, want 400 naming %q", tc.route, tc.body, status, body, want)
			}
		}
	}
	if st := s.Env().CacheStats(); st.Misses != 0 {
		t.Errorf("rejected requests ran %d simulations, want 0", st.Misses)
	}
	for _, tq := range []string{"295", "300", "499"} {
		if status, body := post(t, hs.URL+"/v1/evaluate", `{"app":"twolf","tqual_k":`+tq+`}`); status != http.StatusOK {
			t.Errorf("tqual_k %s after rejected ones: status %d body %s", tq, status, body)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	_, hs := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"unknown app", `{"app":"nope","adaptation":"DVS","tquals_k":[400]}`},
		{"unknown adaptation", `{"app":"twolf","adaptation":"Turbo","tquals_k":[400]}`},
		{"no tquals", `{"app":"twolf","adaptation":"DVS"}`},
		{"tqual implausible", `{"app":"twolf","adaptation":"DVS","tquals_k":[10]}`},
		{"step too fine", `{"app":"twolf","adaptation":"DVS","tquals_k":[400],"freq_step_hz":1e6}`},
	}
	for _, tc := range cases {
		if status, body := post(t, hs.URL+"/v1/sweep", tc.body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %s", tc.name, status, body)
		}
	}
}

func TestSweepEndpoint(t *testing.T) {
	s, hs := newTestServer(t)
	status, body := post(t, hs.URL+"/v1/sweep",
		`{"app":"twolf","adaptation":"DVS","tquals_k":[400,345]}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Candidates == 0 || len(resp.Choices) != 2 {
		t.Fatalf("unexpected sweep shape: %+v", resp)
	}
	if resp.Choices[0].TqualK != 400 || resp.Choices[1].TqualK != 345 {
		t.Errorf("choices out of request order: %+v", resp.Choices)
	}
	// A cheaper qualification can never be allowed a faster choice.
	if resp.Choices[1].RelPerf > resp.Choices[0].RelPerf+1e-12 {
		t.Errorf("rel_perf rose as T_qual fell: %+v", resp.Choices)
	}
	// The sweep evaluated base + ladder once each, nothing more.
	if st := s.Env().CacheStats(); int(st.Misses) != resp.Candidates+1 {
		t.Errorf("sweep simulated %d configs (want %d candidates + base)", st.Misses, resp.Candidates)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, hs := newTestServer(t)
	status, body := get(t, hs.URL+"/v1/healthz")
	if status != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz: status %d, body %s", status, body)
	}

	if status, body := post(t, hs.URL+"/v1/evaluate", `{"app":"twolf"}`); status != http.StatusOK {
		t.Fatalf("evaluate: status %d, body %s", status, body)
	}
	status, body = get(t, hs.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	var snap metricsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics decode: %v (%s)", err, body)
	}
	if snap.RequestsTotal["evaluate"] != 1 || snap.RequestsTotal["healthz"] != 1 {
		t.Errorf("request counters wrong: %+v", snap.RequestsTotal)
	}
	if snap.Cache.Misses != 1 {
		t.Errorf("cache misses = %d (want 1)", snap.Cache.Misses)
	}
	if h := snap.LatencyUS["evaluate"]; h.Count != 1 || h.SumUS <= 0 {
		t.Errorf("evaluate latency histogram wrong: %+v", h)
	}
	// The JSON document carries interpolated quantile estimates; with one
	// observation all three land in that observation's bucket.
	if h := snap.LatencyUS["evaluate"]; h.P50US <= 0 || h.P95US < h.P50US || h.P99US < h.P95US {
		t.Errorf("evaluate latency quantiles wrong: p50=%g p95=%g p99=%g", h.P50US, h.P95US, h.P99US)
	}
	if snap.InflightJobs != 0 || snap.QueuedJobs != 0 {
		t.Errorf("gauges should be zero at rest: %+v", snap)
	}
}

// TestMetricsJSONContract pins the /metrics keys that readers outside
// this module decode: perfbench's Metrics and rampload's serverMetrics.
// Renaming or reshaping one breaks them silently (a missing key decodes
// as zero), so the test asserts the paths, not the values.
func TestMetricsJSONContract(t *testing.T) {
	_, hs := newTestServer(t)
	for _, req := range []struct{ path, body string }{
		{"/v1/evaluate", `{"app":"twolf"}`},
		{"/v1/sweep", `{"app":"twolf","adaptation":"DVS","tquals_k":[400]}`},
		{"/v1/fleet", `{"app":"twolf","chips":1000}`},
	} {
		if status, body := post(t, hs.URL+req.path, req.body); status != http.StatusOK {
			t.Fatalf("POST %s: status %d, body %s", req.path, status, body)
		}
	}
	for _, path := range []string{"/v1/healthz", "/v1/metrics/stream?window=50ms&n=1&format=ndjson"} {
		if status, body := get(t, hs.URL+path); status != http.StatusOK {
			t.Fatalf("GET %s: status %d, body %s", path, status, body)
		}
	}
	status, body := get(t, hs.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("metrics decode: %v (%s)", err, body)
	}
	lookup := func(path ...string) any {
		var v any = doc
		for _, k := range path {
			m, ok := v.(map[string]any)
			if !ok {
				return nil
			}
			v = m[k]
		}
		return v
	}
	want := [][]string{
		{"responses_total"}, {"shed_total"},
		{"cache", "hits"}, {"cache", "misses"}, {"cache", "entries"},
		{"requests_total"}, {"timeout_total"},
	}
	for _, route := range []string{"queue_wait", "evaluate", "sweep", "fleet"} {
		want = append(want,
			[]string{"latency_us", route, "count"},
			[]string{"latency_us", route, "buckets_le_us"})
	}
	for _, path := range want {
		if lookup(path...) == nil {
			t.Errorf("/metrics JSON lacks %s", strings.Join(path, "."))
		}
	}
	for _, route := range []string{"evaluate", "sweep", "fleet", "healthz", "metrics", "stream"} {
		if n, _ := lookup("requests_total", route).(float64); n != 1 {
			t.Errorf("requests_total.%s = %v, want 1", route, lookup("requests_total", route))
		}
	}
}

func TestQueueFullSheds429(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 0
	s := New(exp.NewEnv(tinyOptions()), cfg)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Deterministically saturate admission by taking the only token
	// directly (the test lives in package serve for exactly this).
	s.pool.admit <- struct{}{}
	status, body := post(t, hs.URL+"/v1/evaluate", `{"app":"twolf"}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d (want 429), body %s", status, body)
	}
	<-s.pool.admit

	// With the token back, the same request succeeds.
	if status, body := post(t, hs.URL+"/v1/evaluate", `{"app":"twolf"}`); status != http.StatusOK {
		t.Fatalf("after release: status %d, body %s", status, body)
	}
	if shed := s.metrics.shed.Value(); shed != 1 {
		t.Errorf("shed_total = %d (want 1)", shed)
	}
}

func TestRequestTimeoutReturns504(t *testing.T) {
	cfg := tinyConfig()
	cfg.RequestTimeout = time.Millisecond // expires during the evaluation
	s := New(exp.NewEnv(deadlineOptions()), cfg)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	status, body := post(t, hs.URL+"/v1/evaluate", `{"app":"MPGdec"}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (want 504), body %s", status, body)
	}
	if s.metrics.timeouts.Value() != 1 {
		t.Errorf("timeout_total = %d (want 1)", s.metrics.timeouts.Value())
	}
	// The abandoned flight must not poison the cache: with a sane
	// deadline the same request now succeeds.
	s.cfg.RequestTimeout = time.Minute
	if status, body := post(t, hs.URL+"/v1/evaluate", `{"app":"MPGdec"}`); status != http.StatusOK {
		t.Fatalf("after timeout: status %d, body %s", status, body)
	}
}

func TestPoolRunQueueFull(t *testing.T) {
	p := newPool(1, 1, newMetrics())
	block := make(chan struct{})
	done := make(chan error, 3)
	run := func() { <-block }
	go func() { done <- p.run(context.Background(), run) }() // takes the worker slot
	go func() { done <- p.run(context.Background(), run) }() // takes the queue slot

	// Wait until both tokens are held, then the third must shed.
	deadline := time.Now().Add(5 * time.Second)
	for len(p.admit) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("admission tokens never taken")
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.run(context.Background(), func() {}); err != ErrQueueFull {
		t.Fatalf("third run: err = %v (want ErrQueueFull)", err)
	}
	close(block)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("blocked run %d: %v", i, err)
		}
	}
}

func TestPoolRunQueueWaitCancellable(t *testing.T) {
	p := newPool(1, 4, newMetrics())
	block := make(chan struct{})
	started := make(chan struct{})
	go p.run(context.Background(), func() { close(started); <-block })
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- p.run(ctx, func() {}) }()
	time.Sleep(10 * time.Millisecond) // let it enter the queue wait
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("queued run: err = %v (want context.Canceled)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queue wait never returned")
	}
	close(block)
}
