// Coverage for GET /v1/metrics/stream: frame contents and formats,
// request-ID correlation, concurrent subscribers under load (the -race
// lane), goroutine hygiene after disconnect, and drain compliance on
// graceful shutdown.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ramp/internal/exp"
	"ramp/internal/obs"
)

// readStreamFrames subscribes and decodes n NDJSON frames.
func readStreamFrames(t *testing.T, baseURL, params string) (*http.Response, []streamFrame) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/metrics/stream?" + params)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("subscribe: status %d: %s", resp.StatusCode, b)
	}
	var frames []streamFrame
	dec := json.NewDecoder(resp.Body)
	for {
		var f streamFrame
		if err := dec.Decode(&f); err != nil {
			if err == io.EOF {
				return resp, frames
			}
			t.Fatalf("decode frame %d: %v", len(frames), err)
		}
		frames = append(frames, f)
	}
}

func TestMetricsStreamNDJSON(t *testing.T) {
	_, hs := newTestServer(t)

	// Unbounded stream; the client disconnects when it has seen enough.
	resp, err := http.Get(hs.URL + "/v1/metrics/stream?window=50ms&format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	reqID := resp.Header.Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("stream response missing X-Request-ID")
	}
	// If the handler wedges, unblock the decoder below.
	watchdog := time.AfterFunc(30*time.Second, func() { resp.Body.Close() })
	defer watchdog.Stop()

	dec := json.NewDecoder(resp.Body)
	next := func() streamFrame {
		t.Helper()
		var f streamFrame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("decode frame: %v", err)
		}
		return f
	}

	// The first frame proves the stream is live and its baseline primed;
	// traffic sent after it MUST appear in later deltas.
	first := next()
	for i := 0; i < 3; i++ {
		post(t, hs.URL+"/v1/evaluate", `{"app":"twolf"}`)
	}

	var evals, resps, latCount int64
	seq := first.Seq
	for f := first; evals < 3 || latCount < 3; f = next() {
		if f.Seq != seq {
			t.Fatalf("frame seq %d, want %d (gap or reorder)", f.Seq, seq)
		}
		seq++
		if f.RequestID != reqID {
			t.Errorf("frame request_id = %q, want %q (header)", f.RequestID, reqID)
		}
		if f.WindowSec <= 0 {
			t.Errorf("frame %d window_sec = %g", f.Seq, f.WindowSec)
		}
		evals += f.Delta.Counters["requests_evaluate"]
		resps += f.Delta.Counters["responses_2xx"]
		latCount += f.Delta.Histograms["latency_us_evaluate"].Count
	}
	if evals != 3 {
		t.Errorf("streamed evaluate deltas sum to %d, want exactly 3", evals)
	}
	if resps < 3 {
		t.Errorf("streamed 2xx deltas sum to %d, want >= 3", resps)
	}
	if latCount != 3 {
		t.Errorf("latency_us_evaluate deltas sum to %d, want exactly 3", latCount)
	}
}

func TestMetricsStreamSSE(t *testing.T) {
	_, hs := newTestServer(t)
	resp, err := http.Get(hs.URL + "/v1/metrics/stream?window=50ms&n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var events, datas int
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: metrics":
			events++
		case strings.HasPrefix(line, "data: "):
			datas++
			var f streamFrame
			if err := json.Unmarshal([]byte(line[len("data: "):]), &f); err != nil {
				t.Fatalf("bad SSE data line: %v\n%s", err, line)
			}
		case line == "":
		default:
			t.Errorf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if events != 2 || datas != 2 {
		t.Errorf("got %d event lines and %d data lines, want 2 and 2", events, datas)
	}
}

func TestMetricsStreamBadParams(t *testing.T) {
	_, hs := newTestServer(t)
	for _, params := range []string{"window=banana", "n=-3", "n=x", "format=xml"} {
		resp, err := http.Get(hs.URL + "/v1/metrics/stream?" + params)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("params %q: status %d, want 400", params, resp.StatusCode)
		}
		if resp.Header.Get("X-Request-ID") == "" {
			t.Errorf("params %q: 400 response missing X-Request-ID", params)
		}
	}
}

// TestMetricsStreamConcurrentSubscribers opens 32 streams while a sweep
// hammer runs, asserts every subscriber gets its frames, and checks the
// subscriber goroutines are gone after disconnect.
func TestMetricsStreamConcurrentSubscribers(t *testing.T) {
	s, hs := newTestServer(t)
	time.Sleep(20 * time.Millisecond) // let unrelated runtime goroutines settle
	baseline := runtime.NumGoroutine()

	var hammerWG sync.WaitGroup
	hammerWG.Add(1)
	go func() {
		defer hammerWG.Done()
		hammer(t, hs.URL+"/v1/sweep", []string{`{"app":"twolf","adaptation":"DVS","tquals_k":[400,345]}`})
	}()

	var subWG sync.WaitGroup
	frameCounts := make([]int, hammerGoroutines)
	for i := 0; i < hammerGoroutines; i++ {
		subWG.Add(1)
		go func(i int) {
			defer subWG.Done()
			resp, err := http.Get(hs.URL + "/v1/metrics/stream?window=50ms&n=3&format=ndjson")
			if err != nil {
				t.Errorf("subscriber %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			dec := json.NewDecoder(resp.Body)
			for {
				var f streamFrame
				if err := dec.Decode(&f); err != nil {
					if err != io.EOF {
						t.Errorf("subscriber %d: %v", i, err)
					}
					return
				}
				frameCounts[i]++
			}
		}(i)
	}
	subWG.Wait()
	hammerWG.Wait()

	for i, n := range frameCounts {
		if n != 3 {
			t.Errorf("subscriber %d got %d frames, want 3", i, n)
		}
	}
	if got := s.metrics.requestsStream.Value(); got != hammerGoroutines {
		t.Errorf("requests_total[stream] = %d, want %d", got, hammerGoroutines)
	}

	// All subscriber handler goroutines must unwind after disconnect.
	// Parked keep-alive connections hold goroutines on both sides, so
	// flush the idle pool while waiting — anything still alive after
	// that is a real leak.
	deadline := time.Now().Add(10 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsStreamDrainOnShutdown opens an unbounded stream and then
// cancels the serve context: the draining channel must end the stream
// and Serve must return promptly instead of waiting out the subscriber.
func TestMetricsStreamDrainOnShutdown(t *testing.T) {
	cfg := tinyConfig()
	cfg.DrainTimeout = 30 * time.Second
	s := New(exp.NewEnv(tinyOptions()), cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()
	url := "http://" + ln.Addr().String()

	resp, err := http.Get(url + "/v1/metrics/stream?window=50ms") // n omitted: unbounded
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read one frame so we know the stream is live, then shut down.
	sc := bufio.NewScanner(resp.Body)
	foundData := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			foundData = true
			break
		}
	}
	if !foundData {
		t.Fatalf("stream never produced a frame: %v", sc.Err())
	}
	cancel()

	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v (want nil: stream must not pin the drain)", err)
		}
	case <-time.After(cfg.DrainTimeout):
		t.Fatal("Serve never returned: open stream pinned the drain")
	}
	// The subscriber's connection ends too.
	deadline := time.Now().Add(5 * time.Second)
	for sc.Scan() {
		if time.Now().After(deadline) {
			t.Fatal("stream kept producing after drain")
		}
	}
}

// TestStreamPipelineMerge asserts an instrumented env's pipeline
// instruments ride along in stream frames.
func TestStreamPipelineMerge(t *testing.T) {
	reg := obs.NewRegistry()
	env := exp.NewEnv(tinyOptions()).Instrument(obs.NewTracer(), reg)
	s := New(env, tinyConfig())
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// A single tiny evaluation can finish before the stream takes its
	// baseline snapshot, leaving every frame's delta empty. Keep distinct
	// (so uncached) evaluations running until all frames are read.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			body := fmt.Sprintf(`{"app":"gzip","freq_hz":%d}`, 2_500_000_000+i*1_000_000)
			if status, resp := post(t, hs.URL+"/v1/evaluate", body); status != http.StatusOK {
				t.Errorf("evaluate %s: status %d: %s", body, status, resp)
				return
			}
		}
	}()
	_, frames := readStreamFrames(t, hs.URL, "window=50ms&n=4&format=ndjson")
	close(stop)
	<-done

	var epochs int64
	for _, f := range frames {
		for name, v := range f.Delta.Counters {
			if strings.Contains(name, "epoch") {
				epochs += v
			}
		}
	}
	if epochs == 0 {
		names := map[string]bool{}
		for _, f := range frames {
			for name := range f.Delta.Counters {
				names[name] = true
			}
		}
		t.Errorf("no pipeline epoch counters streamed; saw %v", names)
	}
}
