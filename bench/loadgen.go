package main

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns the due times of a Poisson arrival process at rate
// requests per second over [0, window), drawn from r.
func poissonSchedule(r *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var dues []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return dues
		}
		dues = append(dues, d)
	}
}

// sent is one open-loop request, timed from the loop's start.
type sent struct {
	i               int // index into the schedule
	due, sent, done time.Duration
	// lag is the generator's own lateness: how long after the request was
	// both due and its sender free the send actually began. Waiting for a
	// busy sender is the system's backlog, not generator lag.
	lag time.Duration
	err error
}

func (s sent) latency() time.Duration { return latencyFrom(s.due, s.sent, s.done) }

// openLoop issues one request per due time from senders goroutines that
// share the schedule: each takes the next due request as soon as it is free,
// waits for its due time, and sends it, whatever happened to earlier
// requests. It returns every request's timing, relative to the loop's start,
// once all have completed; requests still unsent when ctx ends are dropped
// from the results.
func openLoop(ctx context.Context, dues []time.Duration, senders int, send func(ctx context.Context, sender, i int) error) ([]sent, error) {
	waiters := make([]*waiter, senders)
	for s := range waiters {
		w, err := newWaiter()
		if err != nil {
			for _, w := range waiters[:s] {
				w.Close()
			}
			return nil, err
		}
		waiters[s] = w
	}
	defer func() {
		for _, w := range waiters {
			w.Close()
		}
	}()
	results := make([]sent, len(dues))
	done := make([]bool, len(dues))
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				free := time.Since(start)
				if err := waiters[s].SleepUntil(start.Add(dues[i])); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				r := sent{i: i, due: dues[i], sent: time.Since(start)}
				r.lag = r.sent - max(r.due, free)
				r.err = send(ctx, s, i)
				r.done = time.Since(start)
				results[i], done[i] = r, true
			}
		}(s)
	}
	wg.Wait()
	out := results[:0]
	for i, r := range results {
		if done[i] {
			out = append(out, r)
		}
	}
	return out, firstErr
}
