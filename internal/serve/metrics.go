package serve

import (
	"net/http"
	"strings"
	"time"

	"ramp/internal/obs"
)

// Server instrument names. Routes, response classes and latency
// families share a prefix each (requests_<route>, responses_<class>,
// latency_us_<route>); the JSON document and the Prometheus scrape
// group them back into one labelled family per prefix, and the stream
// publishes the names as they are.
const (
	requestsPrefix  = "requests_"
	responsesPrefix = "responses_"
	latencyPrefix   = "latency_us_"

	shedTotal    = "shed_total"
	timeoutTotal = "timeout_total"
	inflightJobs = "inflight_jobs"
	queuedJobs   = "queued_jobs"
)

// metrics is the server's instrument set. The instruments live in a
// per-server obs.Registry — not the env's pipeline registry and not a
// global — so independent Servers (tests) never collide, and the JSON
// document, the Prometheus scrape and the stream all render that one
// registry. Each instrument is resolved once here; handlers update it
// through the pointer.
type metrics struct {
	reg   *obs.Registry
	start time.Time

	requestsEvaluate *obs.Counter
	requestsSweep    *obs.Counter
	requestsFleet    *obs.Counter
	requestsHealthz  *obs.Counter
	requestsMetrics  *obs.Counter
	requestsStream   *obs.Counter

	responses2xx *obs.Counter
	responses4xx *obs.Counter
	responses5xx *obs.Counter
	shed         *obs.Counter // queue-full 429s (subset of responses4xx)
	timeouts     *obs.Counter // deadline-exceeded 504s (subset of responses5xx)

	inflight *obs.Gauge // jobs currently holding a worker slot
	queued   *obs.Gauge // jobs admitted but waiting for a slot

	latQueueWait *obs.Histogram // admission → worker slot acquired (µs)
	latEvaluate  *obs.Histogram // /v1/evaluate compute time (µs)
	latSweep     *obs.Histogram // /v1/sweep compute time, sweep + all selects (µs)
	latFleet     *obs.Histogram // /v1/fleet compute time, evaluate + Monte Carlo (µs)
}

func newMetrics() *metrics {
	r := obs.NewRegistry()
	return &metrics{
		reg:   r,
		start: time.Now(),

		requestsEvaluate: r.Counter(requestsPrefix + "evaluate"),
		requestsSweep:    r.Counter(requestsPrefix + "sweep"),
		requestsFleet:    r.Counter(requestsPrefix + "fleet"),
		requestsHealthz:  r.Counter(requestsPrefix + "healthz"),
		requestsMetrics:  r.Counter(requestsPrefix + "metrics"),
		requestsStream:   r.Counter(requestsPrefix + "stream"),

		responses2xx: r.Counter(responsesPrefix + "2xx"),
		responses4xx: r.Counter(responsesPrefix + "4xx"),
		responses5xx: r.Counter(responsesPrefix + "5xx"),
		shed:         r.Counter(shedTotal),
		timeouts:     r.Counter(timeoutTotal),

		inflight: r.Gauge(inflightJobs),
		queued:   r.Gauge(queuedJobs),

		latQueueWait: r.Histogram(latencyPrefix + "queue_wait"),
		latEvaluate:  r.Histogram(latencyPrefix + "evaluate"),
		latSweep:     r.Histogram(latencyPrefix + "sweep"),
		latFleet:     r.Histogram(latencyPrefix + "fleet"),
	}
}

// observeSince records the time elapsed since start, in microseconds.
func observeSince(h *obs.Histogram, start time.Time) {
	h.Observe(time.Since(start).Microseconds())
}

func (m *metrics) countResponse(status int) {
	switch {
	case status >= 500:
		m.responses5xx.Inc()
	case status >= 400:
		m.responses4xx.Inc()
	default:
		m.responses2xx.Inc()
	}
}

// byPrefix returns the entries of m whose names start with prefix,
// keyed by the rest of the name.
func byPrefix[V any](m map[string]V, prefix string) map[string]V {
	out := make(map[string]V)
	for name, v := range m {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			out[rest] = v
		}
	}
	return out
}

// cacheCounters is the slice of exp.CacheStats surfaced in /metrics.
type cacheCounters struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// latencySnapshot is the JSON form of one latency histogram: the obs
// snapshot's cumulative counts per power-of-two upper bound (ending at
// the first bound that holds every observation), plus interpolated
// quantile estimates.
type latencySnapshot struct {
	Count   int64            `json:"count"`
	SumUS   int64            `json:"sum_us"`
	P50US   float64          `json:"p50_us,omitempty"`
	P95US   float64          `json:"p95_us,omitempty"`
	P99US   float64          `json:"p99_us,omitempty"`
	Buckets map[string]int64 `json:"buckets_le_us,omitempty"`
}

// metricsSnapshot is the /metrics JSON document. Names are stable API:
// DESIGN.md §8 documents them.
type metricsSnapshot struct {
	UptimeSec float64 `json:"uptime_sec"`

	RequestsTotal map[string]int64 `json:"requests_total"`
	Responses     map[string]int64 `json:"responses_total"`
	ShedTotal     int64            `json:"shed_total"`
	TimeoutTotal  int64            `json:"timeout_total"`

	InflightJobs int64 `json:"inflight_jobs"`
	QueuedJobs   int64 `json:"queued_jobs"`

	Cache cacheCounters `json:"cache"`

	LatencyUS map[string]latencySnapshot `json:"latency_us"`

	// Pipeline mirrors the env's obs registry when the server was built
	// over an instrumented environment; omitted otherwise, so the JSON
	// document is unchanged for uninstrumented servers.
	Pipeline *obs.Snapshot `json:"pipeline,omitempty"`
}

func (s *Server) snapshotMetrics() metricsSnapshot {
	snap := s.metrics.reg.Snapshot()
	cs := s.env.CacheStats()
	out := metricsSnapshot{
		UptimeSec:     time.Since(s.metrics.start).Seconds(),
		RequestsTotal: byPrefix(snap.Counters, requestsPrefix),
		Responses:     byPrefix(snap.Counters, responsesPrefix),
		ShedTotal:     snap.Counters[shedTotal],
		TimeoutTotal:  snap.Counters[timeoutTotal],
		InflightJobs:  snap.Gauges[inflightJobs],
		QueuedJobs:    snap.Gauges[queuedJobs],
		Cache:         cacheCounters{Hits: cs.Hits, Misses: cs.Misses, Entries: cs.Entries},
		LatencyUS:     make(map[string]latencySnapshot),
	}
	for route, h := range byPrefix(snap.Histograms, latencyPrefix) {
		l := latencySnapshot{Count: h.Count, SumUS: h.Sum, Buckets: h.Buckets}
		if h.Count > 0 {
			l.P50US, l.P95US, l.P99US = h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
		}
		out.LatencyUS[route] = l
	}
	if s.env.Metrics != nil {
		pipeline := s.env.Metrics.Snapshot()
		out.Pipeline = &pipeline
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsMetrics.Inc()
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.writePrometheus(w)
		s.metrics.countResponse(http.StatusOK)
		return
	}
	writeJSON(w, http.StatusOK, s.snapshotMetrics())
	s.metrics.countResponse(http.StatusOK)
}
