package main

import (
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Sample is one request's timing, in offsets from the phase start.
// Latency counts from Due, so time a request spent queued behind busy
// connections is part of it; Late is how much later than it could have
// the generator sent it (after both its due time and its connection
// becoming free), which is the generator's own error.
type Sample struct {
	Index int
	Due   time.Duration
	Start time.Duration
	End   time.Duration
	Late  time.Duration
	Err   error
}

// Latency is the request's time from due to completion.
func (s Sample) Latency() time.Duration { return s.End - s.Due }

// Sender issues request i and returns once its response was read and
// checked.
type Sender func(ctx context.Context, i int) error

// RunOpenLoop sends len(due) requests, request i no earlier than
// due[i] after the phase start, from exactly `workers` goroutines. A
// request whose due time passes while every worker is busy waits for
// the next free worker; none is dropped. Requests are taken in due
// order.
func RunOpenLoop(ctx context.Context, due []time.Duration, workers int, send Sender) []Sample {
	out := make([]Sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Since(start)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				sleepUntil(start.Add(due[i]))
				s := Sample{Index: i, Due: due[i], Start: time.Since(start)}
				s.Late = s.Start - max(due[i], free)
				s.Err = send(ctx, i)
				s.End = time.Since(start)
				free = s.End
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// scheduler parks timer sleeps in a poller whose timeout has millisecond
// granularity, which made sub-millisecond waits overshoot by hundreds
// of microseconds; a thread sleep overshoots by the kernel's timer slack
// (tens of microseconds).
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR (a runtime preemption signal) just loops
	}
}

// RunClosedLoop keeps `workers` requests in flight for the given
// duration: each worker sends the next index as soon as its previous
// request completes. It stops taking indices at n or at the deadline,
// and returns the completed samples in completion order per worker.
func RunClosedLoop(ctx context.Context, d time.Duration, n, workers int, send Sender) []Sample {
	var next atomic.Int64
	var mu sync.Mutex
	var out []Sample
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []Sample
			for time.Since(start) < d && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				s := Sample{Index: i, Start: time.Since(start)}
				s.Due = s.Start
				s.Err = send(ctx, i)
				s.End = time.Since(start)
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}
