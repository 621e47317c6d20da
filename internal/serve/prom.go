// Prometheus text exposition for GET /metrics. The JSON document stays
// the default (stable API, DESIGN.md §8); a scraper opts into the text
// format (version 0.0.4) with ?format=prom or an Accept header naming
// text/plain. Server-level families are prefixed rampserve_; when the
// environment is instrumented (exp.Env.Instrument), the pipeline
// registry's families follow under the ramp_ prefix, so one scrape sees
// both the service's request counters and the simulator's epoch/cache/
// FIT-time instruments.
package serve

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"ramp/internal/obs"
)

// wantsPrometheus reports whether the request asked for the text
// exposition format rather than the JSON document.
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prom" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/plain")
}

func promSortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writePromLabeledCounters emits one counter family with a single label
// dimension (e.g. rampserve_requests_total{route="evaluate"}).
func writePromLabeledCounters(w io.Writer, family, label string, vals map[string]int64) {
	fmt.Fprintf(w, "# TYPE %s counter\n", family)
	for _, k := range promSortedKeys(vals) {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", family, label, k, vals[k])
	}
}

// writePrometheus renders one scrape: the server registry's snapshot
// as rampserve_* families (each name prefix one labelled family, as in
// the JSON document), the exp cache counters, then the pipeline
// registry under ramp_.
func (s *Server) writePrometheus(w io.Writer) {
	snap := s.metrics.reg.Snapshot()
	cs := s.env.CacheStats()
	fmt.Fprintf(w, "# TYPE rampserve_uptime_seconds gauge\nrampserve_uptime_seconds %g\n", time.Since(s.metrics.start).Seconds())
	writePromLabeledCounters(w, "rampserve_requests_total", "route", byPrefix(snap.Counters, requestsPrefix))
	writePromLabeledCounters(w, "rampserve_responses_total", "class", byPrefix(snap.Counters, responsesPrefix))
	for _, name := range []string{shedTotal, timeoutTotal} {
		fmt.Fprintf(w, "# TYPE rampserve_%s counter\nrampserve_%s %d\n", name, name, snap.Counters[name])
	}
	for _, name := range []string{inflightJobs, queuedJobs} {
		fmt.Fprintf(w, "# TYPE rampserve_%s gauge\nrampserve_%s %d\n", name, name, snap.Gauges[name])
	}
	fmt.Fprintf(w, "# TYPE rampserve_cache_hits_total counter\nrampserve_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "# TYPE rampserve_cache_misses_total counter\nrampserve_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "# TYPE rampserve_cache_entries gauge\nrampserve_cache_entries %d\n", cs.Entries)
	fmt.Fprintf(w, "# TYPE rampserve_latency_us histogram\n")
	latency := byPrefix(snap.Histograms, latencyPrefix)
	for _, route := range promSortedKeys(latency) {
		obs.WritePromHistogram(w, "rampserve_latency_us", fmt.Sprintf("route=%q", route), latency[route])
	}
	if s.env.Metrics != nil {
		s.env.Metrics.WritePrometheus(w, "ramp_")
	}
}
