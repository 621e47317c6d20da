package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request, or of one replayed evaluation, share
// Trace.
type Span struct {
	Name    string `json:"name"`
	Trace   int    `json:"trace"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, which is how untraced runs call the same code.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer whose span times are offsets from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Time runs fn inside a span and returns its duration. With a nil
// tracer it only times fn.
func (t *Tracer) Time(name string, trace int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if t != nil {
		t.mu.Lock()
		t.spans = append(t.spans, Span{Name: name, Trace: trace,
			StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()})
		t.mu.Unlock()
	}
	return end.Sub(start)
}

// Durations returns the durations of every span named name.
func (t *Tracer) Durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Dur()))
		}
	}
	return out
}

// WriteFile writes the spans as one JSON array.
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
