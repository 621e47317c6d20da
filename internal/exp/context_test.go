package exp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ramp/internal/config"
	"ramp/internal/core"
	"ramp/internal/trace"
)

// cancelOptions returns many tiny epochs so a cancelled context is
// noticed quickly (the epoch boundary is the cancellation check point)
// while the full run still takes long enough to cancel mid-flight.
func cancelOptions() Options {
	o := QuickOptions()
	o.WarmupInstrs = 5_000
	o.EpochInstrs = 10_000
	o.Epochs = 40
	return o
}

func TestEvaluateCtxAlreadyCancelled(t *testing.T) {
	env := NewEnv(cancelOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := env.EvaluateCtx(ctx, trace.Twolf(), env.Base, env.Qualification(400))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (want context.Canceled)", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled call took %v (want immediate return)", d)
	}
	if st := env.CacheStats(); st.Entries != 0 {
		t.Errorf("cancelled call left %d cache entries", st.Entries)
	}
}

func TestEvaluateCtxCancelMidRunReturnsPromptly(t *testing.T) {
	env := NewEnv(cancelOptions())
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := env.EvaluateCtx(ctx, trace.Twolf(), env.Base, env.Qualification(400))
		errc <- err
	}()
	// Let the simulation get going, then cancel. The check runs at every
	// epoch boundary (10k instructions), so the return must be fast.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v (want context.Canceled)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled evaluation never returned")
	}

	// The abandoned flight must not poison the cache: a fresh call
	// simulates successfully.
	if _, err := env.Evaluate(trace.Twolf(), env.Base, env.Qualification(400)); err != nil {
		t.Fatalf("evaluate after cancellation: %v", err)
	}
	st := env.CacheStats()
	if st.Entries != 1 {
		t.Errorf("cache entries = %d (want 1)", st.Entries)
	}
}

// TestEvaluateCtxWaiterSurvivesLeaderCancellation joins a second caller
// onto an in-flight evaluation, cancels the leader, and requires the
// waiter to retake leadership and finish the job.
func TestEvaluateCtxWaiterSurvivesLeaderCancellation(t *testing.T) {
	env := NewEnv(cancelOptions())
	qual := env.Qualification(400)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())

	leaderErr := make(chan error, 1)
	go func() {
		_, err := env.EvaluateCtx(leaderCtx, trace.Twolf(), env.Base, qual)
		leaderErr <- err
	}()
	// Wait for the leader's flight to appear in the cache.
	deadline := time.Now().Add(10 * time.Second)
	for env.CacheStats().Entries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader flight never started")
		}
		time.Sleep(time.Millisecond)
	}

	waiterRes := make(chan error, 1)
	go func() {
		_, err := env.EvaluateCtx(context.Background(), trace.Twolf(), env.Base, qual)
		waiterRes <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join the flight
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v (want context.Canceled)", err)
	}
	select {
	case err := <-waiterRes:
		if err != nil {
			t.Fatalf("waiter err = %v (want success after retaking leadership)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("waiter never completed")
	}
	if st := env.CacheStats(); st.Entries != 1 {
		t.Errorf("cache entries = %d (want 1 completed flight)", st.Entries)
	}
}

func TestEvaluateAllCtxCancelledAbortsBatch(t *testing.T) {
	env := NewEnv(cancelOptions())
	qual := env.Qualification(400)
	var jobs []EvalJob
	for _, app := range trace.Apps() {
		jobs = append(jobs, EvalJob{App: app, Proc: env.Base, Qual: qual})
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := env.EvaluateAllCtx(ctx, jobs)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v (want context.Canceled)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled batch never returned")
	}
}

func TestRequalifyAllCtxCancelled(t *testing.T) {
	env := NewEnv(QuickOptions())
	res, err := env.Evaluate(trace.Twolf(), env.Base, env.Qualification(400))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := []Result{res, res, res}
	if _, err := env.RequalifyAllCtx(ctx, results, env.Qualification(345)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (want context.Canceled)", err)
	}
}

func TestEvaluateDeadlineExceeded(t *testing.T) {
	env := NewEnv(cancelOptions())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := env.EvaluateCtx(ctx, trace.Twolf(), env.Base, env.Qualification(400))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v (want context.DeadlineExceeded)", err)
	}
}

// TestPanickingLeaderAbandonsEntry runs a panicking evaluation through
// the leader path with a second caller already waiting on the flight:
// the leader must get an error naming the panic and carrying its stack,
// and the waiter must retake the key as leader and succeed instead of
// blocking on a flight that never completes.
func TestPanickingLeaderAbandonsEntry(t *testing.T) {
	env := NewEnv(QuickOptions())
	app, proc, qual := trace.Gzip(), env.Base, env.Qualification(400)
	key := env.keyFor(app.Name, proc)
	ent, leader := env.cache.acquire(key)
	if !leader {
		t.Fatal("first acquire did not lead")
	}

	waiterErr := make(chan error, 1)
	go func() {
		_, err := env.EvaluateCtx(context.Background(), app, proc, qual)
		waiterErr <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for env.CacheStats().Hits == 0 { // the waiter joined the flight
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}

	err := env.lead(context.Background(), key, ent, app, proc, qual,
		func(context.Context, trace.Profile, config.Proc, core.Qualification) (Result, error) {
			panic("sim: no forward progress")
		})
	if err == nil || !strings.Contains(err.Error(), "panicked: sim: no forward progress") {
		t.Fatalf("leader err = %v, want one naming the panic", err)
	}
	if !strings.Contains(err.Error(), "TestPanickingLeaderAbandonsEntry") {
		t.Errorf("leader err = %v, want the panic site's stack", err)
	}
	select {
	case err := <-waiterErr:
		if err != nil {
			t.Fatalf("waiter err = %v (want success after retaking leadership)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("waiter blocked on the panicked flight")
	}
	if _, err := env.Evaluate(app, proc, qual); err != nil {
		t.Fatalf("evaluate after recovery: %v", err)
	}
	if st := env.CacheStats(); st.Misses != 2 || st.Entries != 1 {
		t.Errorf("cache stats %+v, want 2 misses (panicked leader, waiter) and 1 entry", st)
	}
}
