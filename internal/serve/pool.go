package serve

import (
	"context"
	"errors"
	"time"
)

// ErrQueueFull is returned when a request cannot even be queued: every
// worker slot is busy and the wait queue is at capacity. The handler
// maps it to 429 Too Many Requests (load shedding at the door beats
// stacking unbounded goroutines on a saturated simulator).
var ErrQueueFull = errors.New("serve: worker queue full")

// pool is a bounded execution gate for simulation jobs. Admission is a
// two-stage token scheme:
//
//   - admit (capacity workers+queueDepth): taken non-blockingly at the
//     door; failure is immediate shedding (429), so a traffic spike
//     costs each shed request only a channel poll.
//   - slots (capacity workers): taken blockingly by admitted requests;
//     at most `workers` evaluations run concurrently, the rest wait in
//     FIFO-ish order on the channel.
//
// Jobs execute on the caller's goroutine (the HTTP handler), so
// net/http.Server.Shutdown's active-request accounting is also the
// pool's drain accounting: a draining server finishes every admitted
// job before exiting.
type pool struct {
	slots   chan struct{}
	admit   chan struct{}
	metrics *metrics
}

func newPool(workers, queueDepth int, m *metrics) *pool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &pool{
		slots:   make(chan struct{}, workers),
		admit:   make(chan struct{}, workers+queueDepth),
		metrics: m,
	}
}

// run executes fn under the pool's concurrency bound. It returns
// ErrQueueFull if the request cannot be admitted, ctx's error if the
// request is cancelled while waiting for a worker slot, and nil once fn
// has run (fn's own errors travel out of band — it is a closure).
func (p *pool) run(ctx context.Context, fn func()) error {
	select {
	case p.admit <- struct{}{}:
	default:
		p.metrics.shed.Inc()
		return ErrQueueFull
	}
	defer func() { <-p.admit }()

	p.metrics.queued.Add(1)
	waitStart := time.Now()
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		p.metrics.queued.Add(-1)
		return ctx.Err()
	}
	p.metrics.queued.Add(-1)
	observeSince(p.metrics.latQueueWait, waitStart)

	p.metrics.inflight.Add(1)
	defer func() {
		p.metrics.inflight.Add(-1)
		<-p.slots
	}()
	fn()
	return nil
}
