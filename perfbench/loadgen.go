package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns the intended send offsets of an open-loop phase:
// Poisson arrivals at rate per second over dur, drawn from seed.  The same
// arguments always give the same schedule.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// timing is one request's life, as offsets from the start of its phase.
// In the open loop due is the intended send time; in the closed loop it
// equals sent.  picked is when a worker took the request up: after due
// when every connection was busy at its due time.
type timing struct {
	due, picked, sent, done time.Duration
}

// latency is the time the caller waited, counted from when the request
// was due: a request queued behind a stalled one carries the stall.
func (t timing) latency() time.Duration { return t.done - t.due }

// lag is how late the generator itself sent the request: past its due
// time, or past the moment a connection came free for it when that was
// later.  Waiting for a free connection is not lag; it is part of the
// latency.
func (t timing) lag() time.Duration { return t.sent - max(t.due, t.picked) }

// drive sends requests 0..n-1 over conns workers, each worker standing for
// one keep-alive connection and sending one request at a time.  With a
// schedule (len(due) == n) it is an open loop: request i is sent at
// due[i], or as soon after as a worker is free.  With due == nil it is a
// closed loop: each worker sends its next request as soon as the previous
// one completes.  An open-loop worker sleeps until spinWindow before the
// due time and polls the clock from there.  Requests are handed out in
// index order.  send is called with the worker index and the request
// index; it returns once the reply has been read.  drive returns when
// every request has completed, or early with ctx's error once ctx is
// done.
func drive(ctx context.Context, n, conns int, due []time.Duration, send func(worker, i int)) ([]timing, error) {
	out := make([]timing, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t := timing{picked: time.Since(start)}
				if due != nil {
					t.due = due[i]
					if wait := t.due - spinWindow - time.Since(start); wait > 0 {
						time.Sleep(wait)
					}
					for time.Since(start) < t.due {
					}
				}
				t.sent = time.Since(start)
				if due == nil {
					t.due = t.sent
				}
				send(w, i)
				t.done = time.Since(start)
				out[i] = t
			}
		}(w)
	}
	wg.Wait()
	return out, ctx.Err()
}
