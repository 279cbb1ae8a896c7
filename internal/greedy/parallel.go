package greedy

import (
	"container/heap"
	"context"
	"sync"

	"repro/internal/faultinject"
)

// BatchOracle is an Oracle that can evaluate many candidates in one call.
// GainBatch appends Gain(u) for each u in us to out and returns it; the
// values must be bit-for-bit identical to per-candidate Gain calls.
//
// The parallel drivers invoke GainBatch (and Gain) concurrently from several
// goroutines between Update calls, so implementations must make gain
// evaluation a pure read of their committed state — which index.DTable
// satisfies: gains are integer accumulations over an immutable index and a
// D-table that only Update mutates.
type BatchOracle interface {
	Oracle
	GainBatch(us []int, out []float64) []float64
}

// sweepRange evaluates gains[lo:hi] for candidates lo..hi-1 against the
// oracle's current committed set, using GainBatch calls when available. A
// candidate marked in skip (nil skips none) is not evaluated and its gain
// entry is left as it was. It returns the (possibly grown) candidate-id
// scratch buffer so callers can reuse it across rounds.
//
// The range is processed in cancelCheckStride chunks with a ctx check
// between chunks; on cancellation the remaining gains are left stale, which
// is fine because every caller abandons the round (and the result) once it
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

// RunWorkers is Run with the per-round candidate scan sharded over the given
// number of goroutines. Each worker scans a contiguous candidate range for
// its local first maximum; the reduction applies the same gain-then-smaller-id
// rule, so selections are bit-for-bit identical to the serial driver for
// every worker count. The oracle's Gain must be safe for concurrent calls
// (see BatchOracle); workers <= 1 falls back to the serial driver.
func RunWorkers(n, k int, oracle Oracle, workers int) (*Result, error) {
	return RunWorkersCtx(context.Background(), n, k, oracle, workers)
}

// RunWorkersCtx is RunWorkers with cooperative cancellation: workers check
// ctx between evaluation strides and the driver returns ctx's error (and no
// result) at the next synchronization point after cancellation. The oracle
// is left mid-selection and must be discarded.
func RunWorkersCtx(ctx context.Context, n, k int, oracle Oracle, workers int) (*Result, error) {
	return RunWorkersStream(ctx, n, k, oracle, workers, nil)
}

// RunWorkersStream is RunWorkersCtx with a per-pick observer (see
// PickObserver); the observer runs on the driver goroutine, never
// concurrently with itself or with gain evaluation.
func RunWorkersStream(ctx context.Context, n, k int, oracle Oracle, workers int, obs PickObserver) (*Result, error) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return RunStream(ctx, n, k, oracle, obs)
	}
	k, err := validate(n, k)
	if err != nil {
		return nil, err
	}
	res := &Result{Selected: make([]int, 0, k), Gains: make([]float64, 0, k)}
	selected := make([]bool, n)
	gains := make([]float64, n)
	shards := shardBounds(n, workers)
	usBufs := make([][]int, len(shards))
	for round := 0; round < k; round++ {
		var wg sync.WaitGroup
		for s, bounds := range shards {
			wg.Add(1)
			go func(s, lo, hi int) {
				defer wg.Done()
				usBufs[s] = sweepRange(ctx, oracle, gains, usBufs[s], selected, lo, hi)
			}(s, bounds[0], bounds[1])
		}
		wg.Wait()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		best, bestGain := -1, 0.0
		for u := 0; u < n; u++ {
			if selected[u] {
				continue
			}
			res.Evaluations++
			if best == -1 || gains[u] > bestGain {
				best, bestGain = u, gains[u]
			}
		}
		if best == -1 {
			break
		}
		selected[best] = true
		oracle.Update(best)
		res.Selected = append(res.Selected, best)
		res.Gains = append(res.Gains, bestGain)
		if err := obs.observe(best, bestGain); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// RunLazyWorkers is RunLazy (CELF) with the two gain-evaluation phases
// parallelized: the initial whole-candidate sweep is sharded over workers
// goroutines, and each time the heap top is stale the top batch of stale
// entries (up to workers of them) is re-evaluated concurrently instead of
// one at a time.
//
// Selections are bit-for-bit identical to the serial RunLazy for every
// worker count: a refreshed gain is an exact, order-independent function of
// the committed set (integer accumulation in the oracle), and a candidate is
// only ever selected when its entry is fresh for the current round — at
// which point it is the unique (gain, smaller-id) lexicographic argmax
// regardless of how many extra entries a batch refreshed along the way.
// Extra refreshes can only tighten cached upper bounds, never change them.
//
// The oracle's Gain/GainBatch must be safe for concurrent invocation between
// Updates (see BatchOracle). workers <= 1 falls back to the serial driver.
func RunLazyWorkers(n, k int, oracle Oracle, workers int) (*Result, error) {
	return RunLazyWorkersCtx(context.Background(), n, k, oracle, workers)
}

// RunLazyWorkersCtx is RunLazyWorkers with cooperative cancellation; see
// RunWorkersCtx for the contract.
func RunLazyWorkersCtx(ctx context.Context, n, k int, oracle Oracle, workers int) (*Result, error) {
	return RunLazyWorkersStream(ctx, n, k, oracle, workers, nil)
}

// RunLazyWorkersStream is RunLazyWorkersCtx with a per-pick observer (see
// PickObserver); the observer runs on the driver goroutine, never
// concurrently with itself or with gain evaluation.
func RunLazyWorkersStream(ctx context.Context, n, k int, oracle Oracle, workers int, obs PickObserver) (*Result, error) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return RunLazyStream(ctx, n, k, oracle, obs)
	}
	k, err := validate(n, k)
	if err != nil {
		return nil, err
	}
	res := &Result{Selected: make([]int, 0, k), Gains: make([]float64, 0, k)}

	// Phase 1: sharded initial sweep against the empty set.
	gains := make([]float64, n)
	shards := shardBounds(n, workers)
	var wg sync.WaitGroup
	for _, bounds := range shards {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sweepRange(ctx, oracle, gains, nil, nil, lo, hi)
		}(bounds[0], bounds[1])
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	res.Evaluations += n

	h := make(celfHeap, 0, n)
	for u := 0; u < n; u++ {
		h = append(h, celfItem{u: int32(u), round: 1, gain: gains[u]})
	}
	heap.Init(&h)

	// Phase 2: CELF loop with batched stale re-evaluation. One loop step
	// costs at least a Gain or an Update, so a per-step ctx check keeps
	// cancellation latency bounded.
	batch := make([]celfItem, 0, workers)
	for round := int32(1); int(round) <= k && h.Len() > 0; {
		faultinject.Delay(faultinject.SiteGreedyStride)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if h[0].round == round {
			top := heap.Pop(&h).(celfItem)
			oracle.Update(int(top.u))
			res.Selected = append(res.Selected, int(top.u))
			res.Gains = append(res.Gains, top.gain)
			if err := obs.observe(int(top.u), top.gain); err != nil {
				return nil, err
			}
			round++
			continue
		}
		// Pop the stale prefix of the heap, up to one entry per worker. Stop
		// early if a fresh entry surfaces: everything below it in the heap is
		// dominated this round and not worth refreshing.
		batch = batch[:0]
		for len(batch) < workers && h.Len() > 0 && h[0].round != round {
			batch = append(batch, heap.Pop(&h).(celfItem))
		}
		// Entries beyond the first run on spawned goroutines; the first is
		// refreshed inline, so a 1-entry batch (the common CELF case) pays
		// no synchronization at all.
		for b := 1; b < len(batch); b++ {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				batch[b].gain = oracle.Gain(int(batch[b].u))
				batch[b].round = round
			}(b)
		}
		batch[0].gain = oracle.Gain(int(batch[0].u))
		batch[0].round = round
		wg.Wait()
		res.Evaluations += len(batch)
		for _, it := range batch {
			heap.Push(&h, it)
		}
	}
	return res, nil
}
