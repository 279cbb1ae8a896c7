// Package greedy implements the cardinality-constrained submodular
// maximization loop of Algorithm 1 behind one driver, Run, in two flavors:
// plain greedy, which re-evaluates every candidate's marginal gain each
// round, and lazy greedy (CELF, the "lazy evaluation strategy [19]" the
// paper cites), which exploits submodularity — a candidate's gain can only
// shrink as the set grows — to skip most re-evaluations.
//
// Run is generic over an Oracle so the same loop serves the DP-based greedy
// algorithm, the sampling-based greedy algorithm, the approximate
// (inverted-index) greedy algorithm and the shard coordinator. Config
// selects the flavor, the number of goroutines gain evaluation is sharded
// over — the plain sweep and CELF's initial sweep are split into contiguous
// candidate ranges, and stale heap entries are re-evaluated in batches of
// up to one per worker, using the BatchOracle fast path when the oracle
// provides one — and an observer of each committed pick. Selections are
// bit-for-bit identical for every worker count. RunStochastic
// (stochastic.go) is the sampled third flavor.
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

// Pick is one committed greedy round: the node chosen in round Round
// (1-based), its recorded marginal gain, and the objective value after the
// round — the running telescoped sum of gains, accumulated in selection
// order so that the last round's Total is bit-for-bit Result.Objective().
type Pick struct {
	Round int
	Node  int
	Gain  float64
	Total float64
}

// Config selects how Run drives the greedy loop.
type Config struct {
	// Lazy selects CELF lazy evaluation instead of the plain per-round scan.
	// It is exact only for a submodular Gain.
	Lazy bool
	// Workers shards gain evaluation over this many goroutines; <= 1 runs
	// every evaluation on the calling goroutine. With more than one worker
	// the oracle's Gain (and GainBatch) must be safe for concurrent calls
	// between Updates (see BatchOracle).
	Workers int
	// Observe, when non-nil, is called with each committed pick, in
	// selection order, on the calling goroutine and after the pick has been
	// applied to the oracle — the hook the streaming selection paths ride
	// on. It cannot change what is selected, so a run with an observer
	// selects bit-for-bit what the same run without one selects. A non-nil
	// error aborts the run: Run returns that error and no result.
	Observe func(Pick) error
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

// Run selects up to k of the candidates 0..n-1 greedily (k above n is
// clamped). Plain greedy is Algorithm 1 verbatim: k rounds, each sweeping
// every remaining candidate, O(kn) Gain calls, issued as GainBatch calls
// over cancelCheckStride-wide candidate ranges when the oracle is a
// BatchOracle. Lazy greedy evaluates every candidate once against the
// empty set, batched the same way, and afterwards re-evaluates the top of a
// max-heap only while its cached gain is stale: because gains are
// non-increasing, a fresh top-of-heap gain that still dominates every
// cached gain is optimal for the round. Typically O(n + k·small) Gain
// calls.
//
// Both flavors break gain ties toward the smaller node id, so they make
// identical selections on a submodular oracle, and every worker count
// selects bit-for-bit what one worker selects: a worker scans a contiguous
// range for its local first maximum, reduced by the same rule, and a batch
// of refreshed CELF entries can only tighten cached upper bounds — a
// candidate is selected only when its entry is fresh for the round, at
// which point it is the unique (gain, smaller id) argmax.
//
// Run checks ctx between evaluation strides and heap steps and returns
// ctx's error (and no result) once it is observed canceled. After an error
// the oracle is left mid-selection and must be discarded.
func Run(ctx context.Context, n, k int, oracle Oracle, cfg Config) (*Result, error) {
	k, err := validate(n, k)
	if err != nil {
		return nil, err
	}
	workers := min(max(cfg.Workers, 1), n)
	rec := &recorder{
		res:     &Result{Selected: make([]int, 0, k), Gains: make([]float64, 0, k)},
		observe: cfg.Observe,
	}
	if cfg.Lazy {
		err = runLazy(ctx, n, k, oracle, workers, rec)
	} else {
		err = runPlain(ctx, n, k, oracle, workers, rec)
	}
	if err != nil {
		return nil, err
	}
	return rec.res, nil
}

// RunLazyWorkersStream is Run with Config{Lazy: true, Workers: workers,
// Observe: obs}. It remains only because the repository benchmark under
// bench/ replays its traced selections through this name.
func RunLazyWorkersStream(ctx context.Context, n, k int, oracle Oracle, workers int, obs func(Pick) error) (*Result, error) {
	return Run(ctx, n, k, oracle, Config{Lazy: true, Workers: workers, Observe: obs})
}

// recorder accumulates the committed picks of one run and reports each to
// the observer.
type recorder struct {
	res     *Result
	observe func(Pick) error
	total   float64
}

// commit applies u to the oracle, records it and reports it.
func (r *recorder) commit(oracle Oracle, u int, gain float64) error {
	oracle.Update(u)
	r.res.Selected = append(r.res.Selected, u)
	r.res.Gains = append(r.res.Gains, gain)
	if r.observe == nil {
		return nil
	}
	r.total += gain
	return r.observe(Pick{Round: len(r.res.Selected), Node: u, Gain: gain, Total: r.total})
}

// runPlain is the plain loop: each round sweeps every unselected candidate,
// sharded over workers, and commits the first maximum.
func runPlain(ctx context.Context, n, k int, oracle Oracle, workers int, rec *recorder) error {
	selected := make([]bool, n)
	gains := make([]float64, n)
	shards := shardBounds(n, workers)
	bufs := make([][]int, len(shards))
	for round := 0; round < k; round++ {
		sweep(ctx, oracle, gains, bufs, selected, shards)
		if err := ctx.Err(); err != nil {
			return err
		}
		best, bestGain := -1, 0.0
		for u := 0; u < n; u++ {
			if selected[u] {
				continue
			}
			rec.res.Evaluations++
			if best == -1 || gains[u] > bestGain {
				best, bestGain = u, gains[u]
			}
		}
		if best == -1 {
			break
		}
		selected[best] = true
		if err := rec.commit(oracle, best, bestGain); err != nil {
			return err
		}
	}
	return nil
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
// id, matching plain greedy's first-maximum rule so the two flavors make
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

// runLazy is the CELF loop: a sharded initial sweep against the empty set,
// then heap steps that commit a fresh top or refresh stale entries.
func runLazy(ctx context.Context, n, k int, oracle Oracle, workers int, rec *recorder) error {
	// The initial sweep is evaluated against the empty set, which is the
	// state of round 1, so the entries are born fresh for the first pick.
	gains := make([]float64, n)
	shards := shardBounds(n, workers)
	sweep(ctx, oracle, gains, make([][]int, len(shards)), nil, shards)
	if err := ctx.Err(); err != nil {
		return err
	}
	rec.res.Evaluations += n
	h := make(celfHeap, n)
	for u := range h {
		h[u] = celfItem{u: int32(u), round: 1, gain: gains[u]}
	}
	heap.Init(&h)

	batch := make([]celfItem, 0, workers)
	for round := int32(1); int(round) <= k && h.Len() > 0; {
		// One heap step costs at least a Gain or an Update, so a per-step
		// check keeps cancellation latency bounded without measurable cost.
		faultinject.Delay(faultinject.SiteGreedyStride)
		if err := ctx.Err(); err != nil {
			return err
		}
		if h[0].round == round {
			// Fresh this round: by submodularity no other candidate can beat
			// it, so select it.
			top := heap.Pop(&h).(celfItem)
			if err := rec.commit(oracle, int(top.u), top.gain); err != nil {
				return err
			}
			round++
			continue
		}
		if workers == 1 {
			// A one-entry refresh: recompute the top in place.
			h[0].gain = oracle.Gain(int(h[0].u))
			h[0].round = round
			rec.res.Evaluations++
			heap.Fix(&h, 0)
			continue
		}
		// Pop the stale prefix of the heap, up to one entry per worker. Stop
		// early if a fresh entry surfaces: everything below it in the heap is
		// dominated this round and not worth refreshing.
		batch = batch[:0]
		for len(batch) < workers && h.Len() > 0 && h[0].round != round {
			batch = append(batch, heap.Pop(&h).(celfItem))
		}
		each(len(batch), func(b int) {
			batch[b].gain = oracle.Gain(int(batch[b].u))
			batch[b].round = round
		})
		rec.res.Evaluations += len(batch)
		for _, it := range batch {
			heap.Push(&h, it)
		}
	}
	return nil
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
