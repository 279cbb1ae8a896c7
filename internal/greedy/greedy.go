// Package greedy implements the cardinality-constrained submodular
// maximization loop of Algorithm 1 in two flavors: plain greedy, which
// re-evaluates every candidate's marginal gain each round, and lazy greedy
// (CELF, the "lazy evaluation strategy [19]" the paper cites), which exploits
// submodularity — a candidate's gain can only shrink as the set grows — to
// skip most re-evaluations.
//
// Both drivers are generic over an Oracle so the same loop serves the
// DP-based greedy algorithm, the sampling-based greedy algorithm, and the
// approximate (inverted-index) greedy algorithm.
//
// RunWorkers and RunLazyWorkers (parallel.go) are the same two drivers with
// gain evaluation sharded over goroutines — the initial CELF sweep is split
// into contiguous candidate ranges and stale heap entries are re-evaluated
// in batches of up to one per worker, using the BatchOracle fast path when
// the oracle provides one. They require a concurrency-safe Gain (pure reads
// between Updates, as index.DTable guarantees) and produce bit-for-bit the
// selections of their serial counterparts for every worker count.
package greedy

import (
	"container/heap"
	"context"
	"fmt"

	"repro/internal/faultinject"
)

// Oracle abstracts an objective over node sets. Gain(u) returns the marginal
// gain of adding candidate u to the oracle's current set; Update(u) commits
// u to the set. Gains must be computed with respect to the committed set.
// For the lazy driver to be correct, Gain must be non-increasing in the
// committed set (submodularity).
type Oracle interface {
	Gain(u int) float64
	Update(u int)
}

// Result reports one greedy selection.
type Result struct {
	// Selected lists the chosen nodes in selection order.
	Selected []int
	// Gains holds the marginal gain recorded when each node was selected,
	// parallel to Selected.
	Gains []float64
	// Evaluations counts Gain calls, the unit the paper's complexity
	// analysis is written in; the lazy/plain ablation compares these.
	Evaluations int
}

// Objective returns the total objective value implied by the recorded gains
// (the telescoping sum of marginals).
func (r *Result) Objective() float64 {
	total := 0.0
	for _, g := range r.Gains {
		total += g
	}
	return total
}

func validate(n, k int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("greedy: no candidates (n=%d)", n)
	}
	if k < 0 {
		return 0, fmt.Errorf("greedy: negative budget k=%d", k)
	}
	if k > n {
		k = n
	}
	return k, nil
}

// cancelCheckStride is how many gain evaluations a driver performs between
// context checks. Cancellation latency is therefore bounded by the cost of
// one stride of evaluations (or one Update), not by a whole round over a
// large candidate set.
const cancelCheckStride = 1024

// PickObserver is notified of each committed pick, in selection order,
// immediately after the driver has applied it to the oracle — the hook the
// streaming selection path rides on. A non-nil error aborts the run: the
// driver returns that error and no result, leaving the oracle
// mid-selection. A nil PickObserver is valid and observes nothing.
//
// The observer cannot change what is selected: picks are reported after
// being committed, so a run with an observer selects bit-for-bit what the
// same run without one selects.
type PickObserver func(u int, gain float64) error

// observe reports one committed pick to obs, if any.
func (obs PickObserver) observe(u int, gain float64) error {
	if obs == nil {
		return nil
	}
	return obs(u, gain)
}

// Run executes plain greedy: k rounds, each scanning all remaining
// candidates (Algorithm 1 verbatim). O(kn) Gain calls, issued as GainBatch
// calls over cancelCheckStride-wide candidate ranges when the oracle is a
// BatchOracle.
func Run(n, k int, oracle Oracle) (*Result, error) {
	return RunCtx(context.Background(), n, k, oracle)
}

// RunCtx is Run with cooperative cancellation: the scan checks ctx every
// cancelCheckStride evaluations and the driver returns ctx's error (and no
// result) once it is observed canceled. The oracle is left mid-selection and
// must be discarded.
func RunCtx(ctx context.Context, n, k int, oracle Oracle) (*Result, error) {
	return RunStream(ctx, n, k, oracle, nil)
}

// RunStream is RunCtx with a per-pick observer; see PickObserver.
func RunStream(ctx context.Context, n, k int, oracle Oracle, obs PickObserver) (*Result, error) {
	k, err := validate(n, k)
	if err != nil {
		return nil, err
	}
	res := &Result{Selected: make([]int, 0, k), Gains: make([]float64, 0, k)}
	selected := make([]bool, n)
	gains := make([]float64, n)
	var us []int
	for round := 0; round < k; round++ {
		us = sweepRange(ctx, oracle, gains, us, selected, 0, n)
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

// celfItem is a heap entry: a candidate with the gain observed at the round
// it was last evaluated.
type celfItem struct {
	u     int32
	round int32
	gain  float64
}

type celfHeap []celfItem

func (h celfHeap) Len() int { return len(h) }

// Less orders by gain descending with ties broken toward the smaller node
// id, matching plain greedy's first-maximum rule so the two drivers make
// identical selections and are directly comparable in tests and ablations.
func (h celfHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].u < h[j].u
}
func (h celfHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *celfHeap) Push(x interface{}) { *h = append(*h, x.(celfItem)) }
func (h *celfHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// RunLazy executes CELF lazy greedy. All candidates are evaluated once in
// round 0, batched like Run's sweeps; afterwards, the top of a max-heap is
// re-evaluated only if its cached gain is stale. Because gains are
// non-increasing (submodularity), a fresh top-of-heap gain that still
// dominates every cached gain is guaranteed optimal for the round.
// Typically O(n + k·small) Gain calls.
func RunLazy(n, k int, oracle Oracle) (*Result, error) {
	return RunLazyCtx(context.Background(), n, k, oracle)
}

// RunLazyCtx is RunLazy with cooperative cancellation; see RunCtx for the
// contract.
func RunLazyCtx(ctx context.Context, n, k int, oracle Oracle) (*Result, error) {
	return RunLazyStream(ctx, n, k, oracle, nil)
}

// RunLazyStream is RunLazyCtx with a per-pick observer; see PickObserver.
func RunLazyStream(ctx context.Context, n, k int, oracle Oracle, obs PickObserver) (*Result, error) {
	k, err := validate(n, k)
	if err != nil {
		return nil, err
	}
	res := &Result{Selected: make([]int, 0, k), Gains: make([]float64, 0, k)}
	// The initial sweep is evaluated against the empty set, which is the
	// state of round 1, so the entries are born fresh for the first pick.
	gains := make([]float64, n)
	sweepRange(ctx, oracle, gains, nil, nil, 0, n)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	res.Evaluations += n
	h := make(celfHeap, 0, n)
	for u := 0; u < n; u++ {
		h = append(h, celfItem{u: int32(u), round: 1, gain: gains[u]})
	}
	heap.Init(&h)
	for round := int32(1); int(round) <= k && h.Len() > 0; {
		// One heap step costs at least a Gain or an Update, so a per-step
		// check keeps cancellation latency bounded without measurable cost.
		faultinject.Delay(faultinject.SiteGreedyStride)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		top := h[0]
		if top.round == round {
			// Fresh this round: by submodularity no other candidate can beat
			// it, so select it.
			heap.Pop(&h)
			oracle.Update(int(top.u))
			res.Selected = append(res.Selected, int(top.u))
			res.Gains = append(res.Gains, top.gain)
			if err := obs.observe(int(top.u), top.gain); err != nil {
				return nil, err
			}
			round++
			continue
		}
		// Stale: recompute against the current set and reinsert.
		h[0].gain = oracle.Gain(int(top.u))
		h[0].round = round
		res.Evaluations++
		heap.Fix(&h, 0)
	}
	return res, nil
}

// funcOracle adapts a pair of closures to the Oracle interface.
type funcOracle struct {
	gain   func(u int) float64
	update func(u int)
}

func (o funcOracle) Gain(u int) float64 { return o.gain(u) }
func (o funcOracle) Update(u int)       { o.update(u) }

// OracleFuncs wraps gain/update closures as an Oracle.
func OracleFuncs(gain func(u int) float64, update func(u int)) Oracle {
	return funcOracle{gain: gain, update: update}
}
