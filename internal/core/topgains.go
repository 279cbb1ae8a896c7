package core

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/index"
)

// This file exports the top-B marginal-gain reads the query-serving daemon
// uses for GET /v1/topgains and the replicate-sharded partial read surface.
// Both objectives are submodular, so per replicate a candidate's integer
// gain sum against any set is at most its sum against the empty set, which
// the index memoizes (Index.EmptySetGainSums). The kernel evaluates
// candidates exactly in descending order of that bound — the lazy
// evaluation of CELF (Leskovec et al., KDD 2007) applied to one top-B
// round — and stops as soon as no remaining bound can enter the top B, so
// a call typically evaluates a few dozen candidates rather than all n.
//
// The bound holds for every index form: D entries only decrease under
// Update (Problem 1) or only flip 0→1 (Problem 2), and a table that has not
// yet synced chunks its index grew reads a subset of the chunks the bound
// sums, each of which contributes ≥ 0.

// topGainsFirstBatch is the smallest first batch of exact evaluations; later
// batches double, up to topGainsStride per worker.
const topGainsFirstBatch = 32

// topGainsStride bounds how many candidates a worker evaluates between
// context checks, so cancellation latency stays bounded on large graphs.
const topGainsStride = 1024

// TopGains returns the b candidates with the largest marginal gains against
// d's current set, excluding nodes marked in exclude (which may be nil, and
// is indexed by node id). Gain evaluation is sharded over workers goroutines
// (0 means all cores); results are ordered by gain descending with ties
// broken by ascending node id, and are bit-for-bit identical to Gain and to
// every worker count because gains are integer accumulations divided by R
// last and the selection rule is a total order.
//
// Gain reads the D-table without mutating it, so concurrent TopGains calls
// over one (frozen) table are safe — the property the daemon's memoized
// read path relies on.
func TopGains(ctx context.Context, d *index.DTable, b int, exclude []bool, workers int) ([]int, []float64, error) {
	nodes, sums, _, err := topSums(ctx, d, b, exclude, workers)
	if err != nil {
		return nil, nil, err
	}
	// The GainBatch expression, so the values are the same bits.
	r := float64(d.Index().R())
	gains := make([]float64, len(sums))
	for i, s := range sums {
		gains[i] = float64(s) / r
	}
	return nodes, gains, nil
}

// TopGainSums is TopGains in the integer domain: it returns the b candidates
// with the largest integer gain sums (Gain before the division by R) against
// d's current set, ordered by sum descending with ties broken by ascending
// node id. It is the shard-side half of distributed top-B: a replicate-range
// shard reports its local top candidates as exact int64 partial sums, which
// the coordinator merges by addition and only then divides — so the merged
// ranking is computed from the same float64 values the unsharded read sees.
func TopGainSums(ctx context.Context, d *index.DTable, b int, exclude []bool, workers int) ([]int, []int64, error) {
	nodes, sums, _, err := topSums(ctx, d, b, exclude, workers)
	return nodes, sums, err
}

// topSums is the bound-pruned kernel behind TopGains and TopGainSums. It
// also returns how many candidates it evaluated exactly.
func topSums(ctx context.Context, d *index.DTable, b int, exclude []bool, workers int) ([]int, []int64, int, error) {
	if d == nil {
		return nil, nil, 0, fmt.Errorf("core: top gains of nil D-table")
	}
	if b < 0 {
		return nil, nil, 0, fmt.Errorf("core: negative top-gain budget %d", b)
	}
	n := d.Index().Graph().N()
	if exclude != nil && len(exclude) != n {
		return nil, nil, 0, fmt.Errorf("core: exclude mask has %d entries for %d nodes", len(exclude), n)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	if b == 0 {
		return []int{}, []int64{}, 0, nil
	}
	bounds, err := d.Index().EmptySetGainSums(d.Problem())
	if err != nil {
		return nil, nil, 0, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cand := boundHeap{bounds: bounds, ids: make([]int32, 0, n)}
	for u := 0; u < n; u++ {
		if exclude == nil || !exclude[u] {
			cand.ids = append(cand.ids, int32(u))
		}
	}
	heap.Init(&cand)
	top := make(rankHeap[int64], 0, min(b, len(cand.ids)))
	var us []int
	var sums []int64
	evals := 0
	maxBatch := topGainsStride * workers
	for batch := min(max(b, topGainsFirstBatch), maxBatch); cand.Len() > 0; batch = min(2*batch, maxBatch) {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, err
		}
		us = us[:0]
		for len(us) < batch && cand.Len() > 0 {
			// Candidates leave in (bound descending, id ascending) order and
			// the weakest kept item only grows stronger, so once a bound
			// cannot beat it no later candidate can either.
			if u := cand.ids[0]; len(top) == b && !(ranked[int64]{u: u, v: bounds[u]}).beats(top[0]) {
				cand.ids = cand.ids[:0]
				break
			}
			us = append(us, int(heap.Pop(&cand).(int32)))
		}
		sums = slices.Grow(sums[:0], len(us))[:len(us)]
		evalSums(d, us, sums, workers)
		evals += len(us)
		for i, u := range us {
			top.offer(ranked[int64]{u: int32(u), v: sums[i]}, b)
		}
	}
	nodes, best := top.drain()
	return nodes, best, evals, nil
}

// evalSums writes the gain sum of us[i] into sums[i], split over up to
// workers goroutines.
func evalSums(d *index.DTable, us []int, sums []int64, workers int) {
	workers = min(workers, len(us))
	if workers <= 1 {
		d.GainSumBatch(us, sums[:0])
		return
	}
	var wg sync.WaitGroup
	per := (len(us) + workers - 1) / workers
	for lo := 0; lo < len(us); lo += per {
		hi := min(lo+per, len(us))
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.GainSumBatch(us[lo:hi], sums[lo:lo])
		}()
	}
	wg.Wait()
}

// boundHeap is a max-heap of candidate ids under (bound descending, id
// ascending), the order topSums evaluates candidates in.
type boundHeap struct {
	ids    []int32
	bounds []int64
}

func (h *boundHeap) Len() int { return len(h.ids) }
func (h *boundHeap) Less(i, j int) bool {
	a, c := h.ids[i], h.ids[j]
	if h.bounds[a] != h.bounds[c] {
		return h.bounds[a] > h.bounds[c]
	}
	return a < c
}
func (h *boundHeap) Swap(i, j int) { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *boundHeap) Push(x any)    { h.ids = append(h.ids, x.(int32)) }
func (h *boundHeap) Pop() any {
	x := h.ids[len(h.ids)-1]
	h.ids = h.ids[:len(h.ids)-1]
	return x
}

// ranked pairs a candidate with its value inside a selection heap.
type ranked[T int64 | float64] struct {
	u int32
	v T
}

// beats reports whether a ranks above c under (value descending, id
// ascending), the selection order of every top-B read.
func (a ranked[T]) beats(c ranked[T]) bool {
	if a.v != c.v {
		return a.v > c.v
	}
	return a.u < c.u
}

// rankHeap is a min-heap under the selection order: the root is the
// weakest kept candidate, the one a better candidate displaces.
type rankHeap[T int64 | float64] []ranked[T]

func (h rankHeap[T]) Len() int           { return len(h) }
func (h rankHeap[T]) Less(i, j int) bool { return h[j].beats(h[i]) }
func (h rankHeap[T]) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *rankHeap[T]) Push(x any)        { *h = append(*h, x.(ranked[T])) }
func (h *rankHeap[T]) Pop() any          { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// offer keeps it when the heap holds fewer than b items or it beats the
// weakest kept one.
func (h *rankHeap[T]) offer(it ranked[T], b int) {
	if len(*h) < b {
		heap.Push(h, it)
	} else if len(*h) > 0 && it.beats((*h)[0]) {
		(*h)[0] = it
		heap.Fix(h, 0)
	}
}

// drain empties the heap into selection order.
func (h *rankHeap[T]) drain() ([]int, []T) {
	nodes := make([]int, len(*h))
	vals := make([]T, len(*h))
	for i := len(*h) - 1; i >= 0; i-- {
		it := heap.Pop(h).(ranked[T])
		nodes[i], vals[i] = int(it.u), it.v
	}
	return nodes, vals
}

// topOf selects the top b entries of a vector indexed by node id, skipping
// nodes marked in exclude (may be nil), in O(n log b).
func topOf[T int64 | float64](vals []T, exclude []bool, b int) ([]int, []T) {
	h := make(rankHeap[T], 0, max(0, min(b, len(vals))))
	for u, v := range vals {
		if exclude == nil || !exclude[u] {
			h.offer(ranked[T]{u: int32(u), v: v}, b)
		}
	}
	return h.drain()
}

// TopOfSums selects the top b entries of a precomputed integer-sum vector
// (indexed by node id), excluding nodes marked in exclude (may be nil), in
// O(n log b): sum descending, ties by ascending node id.
func TopOfSums(sums []int64, exclude []bool, b int) ([]int, []int64) {
	return topOf(sums, exclude, b)
}

// TopOfGains is TopOfSums over a float64 gains vector. The empty-set
// serving path ranks the index's memoized empty-set gain vector with it,
// without copying it into a D-table.
func TopOfGains(gains []float64, exclude []bool, b int) ([]int, []float64) {
	return topOf(gains, exclude, b)
}
