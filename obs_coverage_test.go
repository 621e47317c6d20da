package ramp_test

// Instrument-coverage audit: every instrument registered anywhere in
// the pipeline must actually render on every human- and
// machine-readable surface — the -stats summary (obs.WriteSummary), the
// Prometheus exposition (obs.WritePrometheus and rampserve's
// /metrics?format=prom scrape), and the JSON snapshot — and every
// instrument in rampserve's own registry on the stream, the scrape and
// the JSON document. An instrument that exists but never renders is a
// silent observability hole: the code pays the bookkeeping cost and a
// dashboard can never see it. The audit is registry-driven, so an
// instrument added next month is covered the day it is registered,
// with no test edit.
import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ramp/internal/exp"
	"ramp/internal/obs"
	"ramp/internal/serve"
)

// driveInstrumentedServer runs one request against every route of an
// instrumented rampserve so both the server's own counters and the
// pipeline registry hold non-trivial values.
func driveInstrumentedServer(t *testing.T) (*obs.Registry, *httptest.Server) {
	t.Helper()
	opts := exp.QuickOptions()
	opts.WarmupInstrs = 4_000
	opts.EpochInstrs = 4_000
	opts.Epochs = 2

	reg := obs.NewRegistry()
	env := exp.NewEnv(opts).Instrument(obs.NewTracer(), reg)
	cfg := serve.DefaultConfig()
	cfg.EnablePprof = false
	srv := serve.New(env, cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	for _, req := range []struct{ path, body string }{
		{"/v1/evaluate", `{"app":"twolf"}`},
		{"/v1/sweep", `{"app":"twolf","adaptation":"DVS","tquals_k":[400]}`},
		{"/v1/fleet", `{"app":"twolf","chips":1000,"seed":1}`},
	} {
		resp, err := http.Post(hs.URL+req.path, "application/json", strings.NewReader(req.body))
		if err != nil {
			t.Fatalf("POST %s: %v", req.path, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", req.path, resp.StatusCode, b)
		}
	}
	return reg, hs
}

// registeredNames returns every instrument name in the registry's
// snapshot, labeled by kind.
func registeredNames(s obs.Snapshot) map[string]string {
	names := map[string]string{}
	for name := range s.Counters {
		names[name] = "counter"
	}
	for name := range s.Gauges {
		names[name] = "gauge"
	}
	for name := range s.Histograms {
		names[name] = "histogram"
	}
	return names
}

func TestEveryInstrumentRendersEverywhere(t *testing.T) {
	reg, hs := driveInstrumentedServer(t)
	snap := reg.Snapshot()
	names := registeredNames(snap)
	if len(names) < 8 {
		t.Fatalf("suspiciously few instruments registered (%d): %v", len(names), names)
	}

	// Surface 1: the -stats summary every cmd prints via obs.Runtime.
	var summary bytes.Buffer
	reg.WriteSummary(&summary)
	sumText := summary.String()

	// Surface 2: the registry's own Prometheus exposition.
	var prom bytes.Buffer
	reg.WritePrometheus(&prom, "ramp_")
	promText := prom.String()

	// Surface 3: rampserve's /metrics?format=prom scrape (server families
	// plus the pipeline registry under the ramp_ prefix).
	resp, err := http.Get(hs.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom scrape: status %d", resp.StatusCode)
	}
	scrapeText := string(scrape)

	// Surface 4: rampserve's JSON /metrics document (pipeline section).
	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		Pipeline *obs.Snapshot `json:"pipeline"`
	}
	if err := json.Unmarshal(jsonBody, &doc); err != nil {
		t.Fatalf("decode /metrics JSON: %v", err)
	}
	if doc.Pipeline == nil {
		t.Fatal("instrumented server's /metrics JSON has no pipeline section")
	}
	pipelineNames := registeredNames(*doc.Pipeline)

	for name, kind := range names {
		if !strings.Contains(sumText, name) {
			t.Errorf("%s %q missing from the -stats summary", kind, name)
		}
		if !strings.Contains(promText, "ramp_"+name) {
			t.Errorf("%s %q missing from WritePrometheus output", kind, name)
		}
		if !strings.Contains(scrapeText, "ramp_"+name) {
			t.Errorf("%s %q missing from the /metrics?format=prom scrape", kind, name)
		}
		if _, ok := pipelineNames[name]; !ok {
			t.Errorf("%s %q missing from the /metrics JSON pipeline section", kind, name)
		}
	}

	checkServerInstruments(t, hs, names, scrapeText, jsonBody)

	// Histograms additionally render quantile estimates in the summary
	// (the Quantile-powered p50/p95/p99 columns).
	for name, kind := range names {
		if kind != "histogram" || snap.Histograms[name].Count == 0 {
			continue
		}
		idx := strings.Index(sumText, name)
		if idx < 0 {
			continue // already reported above
		}
		line := sumText[idx:]
		if nl := strings.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
		}
		for _, col := range []string{"p50=", "p95=", "p99="} {
			if !strings.Contains(line, col) {
				t.Errorf("histogram %q summary line lacks %s: %q", name, col, line)
			}
		}
	}
}

// serverFamilies lists the name prefixes under which rampserve groups
// its instruments into one labelled family: requests_<route> renders as
// rampserve_requests_total{route="<route>"} in the scrape and as
// requests_total.<route> in the JSON document. Every other server
// instrument renders as rampserve_<name> and a top-level JSON key.
var serverFamilies = []struct{ prefix, family, label string }{
	{"requests_", "requests_total", "route"},
	{"responses_", "responses_total", "class"},
	{"latency_us_", "latency_us", "route"},
}

// checkServerInstruments extends the audit to rampserve's own registry.
// The stream publishes every instrument under its registry name; each
// one that is not a pipeline instrument must also appear in the
// Prometheus scrape and in the JSON document.
func checkServerInstruments(t *testing.T, hs *httptest.Server, pipeline map[string]string, scrapeText string, jsonBody []byte) {
	t.Helper()
	resp, err := http.Get(hs.URL + "/v1/metrics/stream?window=50ms&n=1&format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	var frame struct {
		Delta obs.Snapshot `json:"delta"`
	}
	err = json.NewDecoder(resp.Body).Decode(&frame)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode stream frame: %v", err)
	}
	server := registeredNames(frame.Delta)
	for name := range pipeline {
		delete(server, name)
	}
	if len(server) < 8 {
		t.Fatalf("suspiciously few server instruments in the stream (%d): %v", len(server), server)
	}
	var doc map[string]any
	if err := json.Unmarshal(jsonBody, &doc); err != nil {
		t.Fatalf("decode /metrics JSON: %v", err)
	}

	for name, kind := range server {
		series := "rampserve_" + name + " "
		inJSON := doc[name] != nil
		for _, f := range serverFamilies {
			rest, ok := strings.CutPrefix(name, f.prefix)
			if !ok {
				continue
			}
			suffix := ""
			if kind == "histogram" {
				suffix = "_count"
			}
			series = fmt.Sprintf("rampserve_%s%s{%s=%q}", f.family, suffix, f.label, rest)
			group, _ := doc[f.family].(map[string]any)
			inJSON = group[rest] != nil
		}
		if !strings.Contains(scrapeText, series) {
			t.Errorf("server %s %q missing from the /metrics?format=prom scrape (want %s)", kind, name, series)
		}
		if !inJSON {
			t.Errorf("server %s %q missing from the /metrics JSON document", kind, name)
		}
	}
}

// TestSummaryQuantileColumns pins the quantile columns on a synthetic
// histogram: the summary must print interpolated values, not bucket
// indices.
func TestSummaryQuantileColumns(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("probe_us")
	// 100 observations at 3µs: every quantile interpolates inside the
	// (2, 4] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(3)
	}
	var buf bytes.Buffer
	reg.WriteSummary(&buf)
	out := buf.String()
	want := fmt.Sprintf("p50=%g p95=%g p99=%g", 3.0, 3.9, 3.98)
	if !strings.Contains(out, want) {
		t.Errorf("summary quantiles wrong:\nwant substring %q\ngot %s", want, out)
	}
}
