package main

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopShowsStall drives a fake server that stalls once for
// 50 ms while holding a server-wide lock. Every request due during the
// stall must be sent (none dropped) and must carry the wait in its
// latency, measured from its due time, even though its own send-to-reply
// time is short.
func TestOpenLoopShowsStall(t *testing.T) {
	const (
		n       = 200
		gap     = time.Millisecond
		stallAt = 50
		stall   = 50 * time.Millisecond
	)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	var server sync.Mutex
	var inflight, peak atomic.Int64
	send := func(_ context.Context, i int) error {
		if c := inflight.Add(1); c > peak.Load() {
			peak.Store(c)
		}
		defer inflight.Add(-1)
		server.Lock()
		defer server.Unlock()
		if i == stallAt {
			time.Sleep(stall)
		} else {
			time.Sleep(100 * time.Microsecond)
		}
		return nil
	}
	samples := RunOpenLoop(context.Background(), due, 2, send)
	if len(samples) != n {
		t.Fatalf("%d samples for %d requests", len(samples), n)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d requests in flight with 2 workers", p)
	}
	stallEnd := due[stallAt] + stall
	hidden := 0
	for i := stallAt + 5; i < stallAt+40; i++ {
		s := samples[i]
		if s.Index != i || s.End == 0 {
			t.Fatalf("request %d not sent: %+v", i, s)
		}
		if want := stallEnd - s.Due; s.Latency() < want {
			t.Errorf("request %d due %s: latency %s, want at least %s (the rest of the stall)", i, s.Due, s.Latency(), want)
		}
		if s.End-s.Start < 5*time.Millisecond {
			hidden++
		}
	}
	// Timing from send instead of due would have hidden the stall from
	// most of these requests: they queued for a free connection, not in
	// the server.
	if hidden < 20 {
		t.Errorf("only %d of 35 queued requests had a short send-to-reply time; the test no longer shows queueing", hidden)
	}
}

func TestClosedLoopBoundsWorkers(t *testing.T) {
	var inflight, peak atomic.Int64
	var mu sync.Mutex
	send := func(_ context.Context, i int) error {
		c := inflight.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		time.Sleep(200 * time.Microsecond)
		inflight.Add(-1)
		return nil
	}
	samples := RunClosedLoop(context.Background(), time.Hour, 300, 2, send)
	if len(samples) != 300 {
		t.Fatalf("%d samples, want 300", len(samples))
	}
	if peak.Load() != 2 {
		t.Fatalf("peak concurrency %d, want 2", peak.Load())
	}
	seen := make([]bool, 300)
	for _, s := range samples {
		if seen[s.Index] {
			t.Fatalf("index %d sent twice", s.Index)
		}
		seen[s.Index] = true
	}
}
