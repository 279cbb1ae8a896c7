package shard

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/index"
)

// Gain answers engine.Gain by scattering the node list to every shard and
// summing the integer partial sums: Gains[i] = float64(Σ_s sums_s[i]) / R,
// the exact float64 expression the unsharded engine evaluates, so the reply
// is bit-identical to it.
func (co *Coordinator) Gain(ctx context.Context, req engine.GainRequest) (*engine.GainResult, error) {
	p, prob, err := co.resolveRead(req.Graph, req.Problem, req.L, req.R, req.Seed, req.Set)
	if err != nil {
		return nil, err
	}
	if len(req.Nodes) == 0 {
		return nil, badRequestf("nodes are required")
	}
	if err := validateSet("nodes", req.Nodes, p.g); err != nil {
		return nil, err
	}
	runCtx, cancel := co.Context(ctx, 0)
	defer cancel()
	start := time.Now()
	results, err := co.scatterGain(runCtx, engine.PartialGainRequest{
		Graph: p.graphName, Problem: prob, L: p.L, Seed: p.seed, Epoch: &p.epoch,
		Set: req.Set, Nodes: req.Nodes,
	}, co.split(p.R))
	if err != nil {
		return nil, err
	}
	gains, meta := mergeGains(results, len(req.Nodes), p.R, make([]float64, 0, len(req.Nodes)))
	co.noteMerge(start, meta)
	return &engine.GainResult{
		Gains:       gains,
		IndexCached: meta.indexCached,
		Memo:        meta.memo,
		Degraded:    meta.degraded,
	}, nil
}

// mergeGains appends, for each of the nodes the shards answered, the
// merged gain float64(Σ_s sums_s[i]) / R to out — the one division the
// unsharded D-table makes, so the values are bit-identical to it — and
// folds the shards' answer metadata.
func mergeGains(results []*engine.PartialGainResult, nodes, R int, out []float64) ([]float64, mergeMeta) {
	meta := newMergeMeta()
	for _, r := range results {
		meta.fold(r.IndexCached, r.Memo, r.Degraded)
	}
	for i := 0; i < nodes; i++ {
		var sum int64
		for _, r := range results {
			sum += r.Sums[i]
		}
		out = append(out, float64(sum)/float64(R))
	}
	return out, meta
}

// Objective answers engine.Objective by scattering an objective-only
// partial-gain request and merging the integer accumulators, then applying
// the same final float64 expression as DTable.EstimateObjective.
func (co *Coordinator) Objective(ctx context.Context, req engine.ObjectiveRequest) (*engine.ObjectiveResult, error) {
	p, prob, err := co.resolveRead(req.Graph, req.Problem, req.L, req.R, req.Seed, req.Set)
	if err != nil {
		return nil, err
	}
	runCtx, cancel := co.Context(ctx, 0)
	defer cancel()
	start := time.Now()
	results, err := co.scatterGain(runCtx, engine.PartialGainRequest{
		Graph: p.graphName, Problem: prob, L: p.L, Seed: p.seed, Epoch: &p.epoch,
		Set: req.Set, WantObjective: true,
	}, co.split(p.R))
	if err != nil {
		return nil, err
	}
	meta := newMergeMeta()
	var acc int64
	for _, r := range results {
		acc += r.ObjectiveSum
		meta.fold(r.IndexCached, r.Memo, r.Degraded)
	}
	avg := float64(acc) / float64(p.R)
	obj := avg
	if prob == index.Problem1 {
		obj = float64(p.g.N())*float64(p.L) - avg
	}
	co.noteMerge(start, meta)
	return &engine.ObjectiveResult{
		Objective:   obj,
		IndexCached: meta.indexCached,
		Memo:        meta.memo,
		Degraded:    meta.degraded,
	}, nil
}

// TopGains answers engine.TopGains with a threshold-algorithm merge of
// per-shard top lists; the merged ranking is bit-identical to the unsharded
// sweep (gain descending, ties by ascending node id).
func (co *Coordinator) TopGains(ctx context.Context, req engine.TopGainsRequest) (*engine.TopGainsResult, error) {
	p, prob, err := co.resolveRead(req.Graph, req.Problem, req.L, req.R, req.Seed, req.Set)
	if err != nil {
		return nil, err
	}
	b := req.B
	if b == 0 {
		b = 10
		if b > co.cfg.MaxK {
			b = co.cfg.MaxK
		}
	}
	if b < 1 || b > co.cfg.MaxK {
		return nil, badRequestf("b=%d outside [1, %d]", req.B, co.cfg.MaxK)
	}
	runCtx, cancel := co.Context(ctx, 0)
	defer cancel()
	start := time.Now()
	nodes, gains, meta, err := co.topMerged(runCtx, p, prob, req.Set, b, req.Workers)
	if err != nil {
		return nil, err
	}
	co.noteMerge(start, meta)
	return &engine.TopGainsResult{
		B:           b,
		Nodes:       nodes,
		Gains:       gains,
		IndexCached: meta.indexCached,
		Memo:        meta.memo,
		Degraded:    meta.degraded,
	}, nil
}

// resolveRead mirrors engine.resolveRead for the coordinator's read surface.
func (co *Coordinator) resolveRead(graph string, problem engine.Problem, L, R int, seed uint64, set []int) (qparams, index.Problem, error) {
	prob, err := resolveProblem(problem)
	if err != nil {
		return qparams{}, 0, err
	}
	p, err := co.resolveParams(graph, L, R, seed)
	if err != nil {
		return qparams{}, 0, err
	}
	if err := validateSet("set", set, p.g); err != nil {
		return qparams{}, 0, err
	}
	return p, prob, nil
}

// candSum is one merged candidate during the threshold-algorithm scan.
type candSum struct {
	u   int
	sum int64
}

// topMerged computes the exact merged top-b candidates against set — the
// threshold algorithm (TA) over per-shard top lists:
//
//  1. Fetch each shard's top C candidates by integer partial sum (C starts
//     at b).
//  2. For every candidate some shard surfaced, fetch its missing partial
//     sums by point lookup, making its merged sum exact.
//  3. An unseen candidate (surfaced by no shard) is bounded above by
//     T = Σ_s (C-th partial sum of shard s): it sits below the cut on every
//     shard. If the b-th merged candidate strictly beats T — or some shard
//     returned its entire candidate set, leaving nothing unseen — the
//     merged top-b is provably exact. Otherwise double C and repeat.
//
// The bound comparison runs in the integer domain, which is exact; the
// final returned ranking is by float64 gain (descending, ties by ascending
// id), the unsharded comparator over identical float64 values. The two
// orders agree because distinct integer sums stay distinct through the
// division by R for every realizable magnitude (sums are < 2^52: bounded by
// n·R·L with R ≤ 1000 and L < 2^16).
//
// The loop terminates: C doubles toward n, and a shard asked for n
// candidates returns its whole candidate set (Exhausted).
func (co *Coordinator) topMerged(ctx context.Context, p qparams, prob index.Problem, set []int, b, workers int) ([]int, []float64, mergeMeta, error) {
	spans := co.split(p.R)
	meta := newMergeMeta()
	n := p.g.N()
	// known[i] holds the exact partial sums shard i has reported, across
	// deepening rounds — point lookups are never repeated.
	known := make([]map[int]int64, len(spans))
	for i := range known {
		known[i] = make(map[int]int64)
	}
	for depth := b; ; depth = min(depth*2, n) {
		base := engine.PartialTopGainsRequest{
			Graph: p.graphName, Problem: prob, L: p.L, Seed: p.seed, Epoch: &p.epoch,
			Set: set, B: min(depth, n), Workers: workers,
		}
		results, err := co.scatterTopGains(ctx, base, spans)
		if err != nil {
			return nil, nil, meta, err
		}
		exhausted := false
		var threshold int64
		for i, r := range results {
			for j, u := range r.Nodes {
				known[i][u] = r.Sums[j]
			}
			if r.Exhausted {
				exhausted = true
			} else {
				// Non-exhausted lists hold exactly B entries; the last is the
				// shard's cut, bounding every candidate it did not surface.
				threshold += r.Sums[len(r.Sums)-1]
			}
			meta.fold(r.IndexCached, r.Memo, r.Degraded)
		}
		// The candidate union: everything any shard surfaced.
		var union []int
		seen := make(map[int]bool)
		for i := range known {
			for u := range known[i] {
				if !seen[u] {
					seen[u] = true
					union = append(union, u)
				}
			}
		}
		if len(union) == 0 {
			// Every candidate is a set member (or n = 0): nothing to rank.
			return []int{}, []float64{}, meta, nil
		}
		if err := co.lookupMissing(ctx, p, prob, set, spans, union, known, &meta); err != nil {
			return nil, nil, meta, err
		}
		merged := make([]candSum, 0, len(union))
		for _, u := range union {
			var total int64
			for i := range known {
				total += known[i][u]
			}
			merged = append(merged, candSum{u: u, sum: total})
		}
		// Rank with the unsharded comparator: float64 gain descending, ties
		// by ascending id.
		sort.Slice(merged, func(i, j int) bool {
			gi, gj := float64(merged[i].sum)/float64(p.R), float64(merged[j].sum)/float64(p.R)
			if gi != gj {
				return gi > gj
			}
			return merged[i].u < merged[j].u
		})
		if len(merged) > b {
			merged = merged[:b]
		}
		// Exactness: either nothing is unseen, or every kept candidate
		// strictly beats the unseen upper bound.
		exact := exhausted
		if !exact && len(merged) == b {
			minKept := merged[0].sum
			for _, c := range merged[1:] {
				if c.sum < minKept {
					minKept = c.sum
				}
			}
			exact = minKept > threshold
		}
		if exact {
			nodes := make([]int, len(merged))
			gains := make([]float64, len(merged))
			for i, c := range merged {
				nodes[i] = c.u
				gains[i] = float64(c.sum) / float64(p.R)
			}
			return nodes, gains, meta, nil
		}
	}
}

// lookupMissing completes the union candidates' merged sums: for each
// shard, every union candidate the shard has not yet reported is fetched by
// a partial-gain point lookup. Lookups run per-shard in parallel.
func (co *Coordinator) lookupMissing(ctx context.Context, p qparams, prob index.Problem, set []int, spans []span, union []int, known []map[int]int64, meta *mergeMeta) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs = make([]error, len(spans))
	)
	for i, sp := range spans {
		var missing []int
		for _, u := range union {
			if _, ok := known[i][u]; !ok {
				missing = append(missing, u)
			}
		}
		if len(missing) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, sp span, missing []int) {
			defer wg.Done()
			res, err := co.callGain(ctx, sp, engine.PartialGainRequest{
				Graph: p.graphName, Problem: prob, L: p.L, Seed: p.seed, Epoch: &p.epoch,
				R0: sp.r0, R1: sp.r1, Set: set, Nodes: missing,
			})
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			mu.Lock()
			for j, u := range missing {
				known[i][u] = res.Sums[j]
			}
			meta.fold(res.IndexCached, res.Memo, res.Degraded)
			mu.Unlock()
		}(i, sp, missing)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
