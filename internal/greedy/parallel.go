package greedy

import (
	"context"
	"sync"

	"repro/internal/faultinject"
)

// BatchOracle is an Oracle that can evaluate many candidates in one call.
// GainBatch appends Gain(u) for each u in us to out and returns it; the
// values must be bit-for-bit identical to per-candidate Gain calls.
//
// With Config.Workers > 1, Run invokes GainBatch (and Gain) concurrently
// from several goroutines between Update calls, so implementations must
// make gain evaluation a pure read of their committed state — which
// index.DTable satisfies: gains are integer accumulations over an immutable
// index and a D-table that only Update mutates.
type BatchOracle interface {
	Oracle
	GainBatch(us []int, out []float64) []float64
}

// each runs f(0), ..., f(m-1) and waits for all of them: f(0) on the
// calling goroutine, the rest on goroutines of their own, so a one-wide
// call pays no synchronization at all.
func each(m int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 1; i < m; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	f(0)
	wg.Wait()
}

// sweep evaluates the gains of every candidate not marked in skip (nil
// skips none), one sweepRange per shard; bufs holds each shard's
// candidate-id scratch buffer across rounds.
func sweep(ctx context.Context, oracle Oracle, gains []float64, bufs [][]int, skip []bool, shards [][2]int) {
	each(len(shards), func(s int) {
		bufs[s] = sweepRange(ctx, oracle, gains, bufs[s], skip, shards[s][0], shards[s][1])
	})
}

// sweepRange evaluates gains[lo:hi] for candidates lo..hi-1 against the
// oracle's current committed set, using GainBatch calls when available. A
// candidate marked in skip (nil skips none) is not evaluated and its gain
// entry is left as it was. It returns the (possibly grown) candidate-id
// scratch buffer so callers can reuse it across rounds.
//
// The range is processed in cancelCheckStride chunks with a ctx check
// between chunks; on cancellation the remaining gains are left stale, which
// is fine because the driver abandons the round (and the result) once it
// observes ctx canceled after the sweep.
func sweepRange(ctx context.Context, oracle Oracle, gains []float64, us []int, skip []bool, lo, hi int) []int {
	bo, batch := oracle.(BatchOracle)
	for c := lo; c < hi; c += cancelCheckStride {
		// Latency-only fault site (worker goroutine: a panic here would kill
		// the process and an error has no channel) — chaos tests use it to
		// make selections slow enough to pile up against deadlines and the
		// admission gate. One atomic load when no plan is armed.
		faultinject.Delay(faultinject.SiteGreedyStride)
		if ctx.Err() != nil {
			return us
		}
		ch := c + cancelCheckStride
		if ch > hi {
			ch = hi
		}
		if batch {
			us = us[:0]
			for u := c; u < ch; u++ {
				if skip == nil || !skip[u] {
					us = append(us, u)
				}
			}
			if len(us) == 0 {
				continue
			}
			// GainBatch appends into out[:0], whose capacity covers the
			// stride, so the results land in place.
			out := bo.GainBatch(us, gains[c:c])
			if len(us) < ch-c {
				// Skipped candidates left holes: scatter the packed results
				// back to their ids, last first so none is overwritten.
				for i := len(us) - 1; i >= 0; i-- {
					gains[us[i]] = out[i]
				}
			}
			continue
		}
		for u := c; u < ch; u++ {
			if skip == nil || !skip[u] {
				gains[u] = oracle.Gain(u)
			}
		}
	}
	return us
}

// shardBounds splits [0, n) into at most workers near-equal ranges.
func shardBounds(n, workers int) [][2]int {
	per := (n + workers - 1) / workers
	var out [][2]int
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
