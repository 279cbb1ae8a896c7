package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/index"
)

// This file is the worker half of replicate-sharded serving: partial reads
// answered over a partial index materialized for the replicate range
// [R0, R1) of the full build. Gains in this system accumulate as integer
// sums over replicates, and the per-(node, replicate) walk seeding makes a
// range build an exact slice of the full build — so partial answers are
// int64 sums the coordinator merges by addition and divides once, producing
// float64 values bit-identical to the unsharded engine. The partial surface
// therefore never normalizes: that is the coordinator's job.
//
// Workers are stateless between rounds — every request carries the full
// seed set — and lean on the same memo cache as the full read path: each
// round's table is built once and extended from the longest cached prefix
// of its canonical (sorted) set. Successive greedy sets do not form a
// prefix chain in that order — a pick whose id is below the set's maximum
// breaks it — so a round's table can replay several Updates, not one.

// PartialGainRequest asks for the integer gain sums of Nodes against Set,
// evaluated over the partial index for replicates [R0, R1) of the build
// identified by (Graph, Problem, L, Seed).
type PartialGainRequest struct {
	Graph   string
	Problem Problem
	L       int
	Seed    uint64
	// R0 and R1 delimit the replicate range [R0, R1) this worker owns.
	R0, R1 int
	// Epoch, when non-nil, pins the request to a graph mutation epoch: a
	// worker whose graph is at any other epoch answers CodeStaleEpoch
	// (retryable) instead of silently contributing pre- or post-mutation
	// sums to a merge built against a different epoch. Coordinators set it;
	// unsharded callers may leave it nil.
	Epoch *uint64
	Set   []int
	Nodes []int
	// WantObjective additionally computes the integer objective accumulator
	// of Set over this range (DTable.ObjectiveSum), so a coordinator can
	// merge objectives in the same request that fetches gains.
	WantObjective bool
}

// PartialGainResult carries the integer sums, parallel to the request's
// Nodes. Sums are exact: merging the [R0,R1) ranges of a partition of
// [0, R) by addition reproduces the full build's integer sums bit-for-bit.
type PartialGainResult struct {
	Sums []int64
	// ObjectiveSum is the integer objective accumulator over this range;
	// only set when the request asked for it.
	ObjectiveSum int64
	// Replicates echoes the range width R1 − R0.
	Replicates  int
	IndexCached bool
	Memo        string
	// Degraded: see GainResult.Degraded.
	Degraded bool
}

// PartialTopGainsRequest asks for the B candidates with the largest integer
// gain sums over the replicate range [R0, R1), Set members excluded. A
// coordinator running the threshold algorithm fetches each shard's top B
// and deepens B until the merged ranking is provably exact.
type PartialTopGainsRequest struct {
	Graph   string
	Problem Problem
	L       int
	Seed    uint64
	R0, R1  int
	// Epoch: see PartialGainRequest.Epoch.
	Epoch   *uint64
	Set     []int
	B       int
	Workers int
}

// PartialTopGainsResult carries the shard-local winners, sum descending
// with ties broken by ascending node id.
type PartialTopGainsResult struct {
	// B echoes the resolved budget.
	B     int
	Nodes []int
	Sums  []int64
	// Exhausted reports that every candidate outside Set was returned — the
	// shard has nothing deeper, so a coordinator must not keep deepening.
	Exhausted   bool
	IndexCached bool
	Memo        string
	// Degraded: see GainResult.Degraded.
	Degraded bool
}

// resolvePartial validates the shared knobs of the partial read surface and
// produces the params for the range's partial index. The range width (not
// R1 alone) is bounded by MaxR, mirroring the full path's R bound: a shard
// never materializes more replicates than an unsharded request could.
func (e *Engine) resolvePartial(graphName string, problem Problem, L int, seed uint64, r0, r1 int, set []int) (params, index.Problem, error) {
	if r0 < 0 || r1 <= r0 {
		return params{}, 0, badRequestf("replicate range [%d, %d) invalid, want 0 <= r0 < r1", r0, r1)
	}
	p, prob, err := e.resolveRead(graphName, problem, L, r1-r0, seed, set)
	if err != nil {
		return params{}, 0, err
	}
	p.r0 = r0
	return p, prob, nil
}

// PartialGain returns the integer gain sums of the requested candidates
// against Set over the replicate range [R0, R1). After the first request
// for a set the answer is a pure read of the frozen memoized table;
// empty-set requests are answered from the index's memoized integer
// empty-set vector with no D-table at all.
func (e *Engine) PartialGain(ctx context.Context, req PartialGainRequest) (*PartialGainResult, error) {
	p, prob, err := e.resolvePartial(req.Graph, req.Problem, req.L, req.Seed, req.R0, req.R1, req.Set)
	if err != nil {
		return nil, err
	}
	if err := epochGuard(p, req.Epoch); err != nil {
		return nil, err
	}
	// Unlike Gain, an empty node list is legal when the request wants the
	// objective sum: that is the coordinator's objective scatter.
	if len(req.Nodes) == 0 && !req.WantObjective {
		return nil, badRequestf("nodes are required")
	}
	if err := validateSet("nodes", req.Nodes, p.g); err != nil {
		return nil, err
	}
	runCtx, cancel := e.Context(ctx, 0)
	defer cancel()
	canon, setKey := canonicalSet(req.Set)
	res := &PartialGainResult{Replicates: p.R}
	h, built, _, err := e.acquireIndexCtx(runCtx, p, e.cfg.DefaultWorkers)
	if err != nil {
		if mh, ok := e.degradedTable(p, prob, canon, setKey); ok {
			res.Sums = mh.Table().GainSumBatch(req.Nodes, make([]int64, 0, len(req.Nodes)))
			if req.WantObjective {
				res.ObjectiveSum = mh.Table().ObjectiveSum(membersOf(canon, p.g.N()))
			}
			mh.Release()
			res.Memo, res.Degraded = MemoHit, true
			return res, nil
		}
		return nil, wrapCompute(err)
	}
	defer h.Release()
	if e.memo != nil && len(canon) == 0 {
		sums, err := h.Index().EmptySetGainSums(prob)
		if err != nil {
			return nil, wrapCompute(err)
		}
		res.Sums = make([]int64, 0, len(req.Nodes))
		for _, u := range req.Nodes {
			res.Sums = append(res.Sums, sums[u])
		}
		if req.WantObjective {
			res.ObjectiveSum, err = h.Index().EmptySetObjectiveSum(prob)
			if err != nil {
				return nil, wrapCompute(err)
			}
		}
		res.Memo = MemoEmpty
		e.memo.noteEmptyHit()
	} else {
		d, release, st, err := e.memoizedTable(p, prob, canon, setKey, h.Index())
		if err != nil {
			return nil, wrapCompute(err)
		}
		res.Sums = d.GainSumBatch(req.Nodes, make([]int64, 0, len(req.Nodes)))
		if req.WantObjective {
			res.ObjectiveSum = d.ObjectiveSum(membersOf(canon, p.g.N()))
		}
		release()
		res.Memo = st
	}
	res.IndexCached = !built
	return res, nil
}

// PartialTopGains returns the B best candidates by integer gain sum over
// the replicate range [R0, R1), Set members excluded, sum descending with
// ties broken by ascending node id.
func (e *Engine) PartialTopGains(ctx context.Context, req PartialTopGainsRequest) (*PartialTopGainsResult, error) {
	p, prob, err := e.resolvePartial(req.Graph, req.Problem, req.L, req.Seed, req.R0, req.R1, req.Set)
	if err != nil {
		return nil, err
	}
	if err := epochGuard(p, req.Epoch); err != nil {
		return nil, err
	}
	b := req.B
	if b == 0 {
		b = 10
		if b > e.cfg.MaxK {
			b = e.cfg.MaxK
		}
	}
	// The partial budget is capped at n, not MaxK: a coordinator's threshold
	// algorithm legitimately deepens past the public top-B cap on its way to
	// an exact merged ranking.
	if b < 1 || b > p.g.N() {
		return nil, badRequestf("b=%d outside [1, %d]", req.B, p.g.N())
	}
	workers := e.resolveWorkers(req.Workers)
	runCtx, cancel := e.Context(ctx, 0)
	defer cancel()
	canon, setKey := canonicalSet(req.Set)
	res := &PartialTopGainsResult{B: b}
	finish := func(nodes []int, sums []int64) {
		res.Nodes, res.Sums = nodes, sums
		res.Exhausted = len(nodes) >= p.g.N()-len(canon)
	}
	h, built, _, err := e.acquireIndexCtx(runCtx, p, workers)
	if err != nil {
		if mh, ok := e.degradedTable(p, prob, canon, setKey); ok {
			// The degraded read runs under its own context, like
			// degradedTopGains: the request context is typically already dead
			// here, and the read touches only resident state.
			nodes, sums, derr := core.TopGainSums(context.Background(), mh.Table(), b, membersOf(canon, p.g.N()), workers)
			mh.Release()
			if derr == nil {
				finish(nodes, sums)
				res.Memo, res.Degraded = MemoHit, true
				return res, nil
			}
		}
		return nil, wrapCompute(err)
	}
	defer h.Release()
	if e.memo != nil && len(canon) == 0 {
		all, err := h.Index().EmptySetGainSums(prob)
		if err != nil {
			return nil, wrapCompute(err)
		}
		nodes, sums := core.TopOfSums(all, nil, b)
		finish(nodes, sums)
		res.Memo = MemoEmpty
		e.memo.noteEmptyHit()
	} else {
		d, release, st, err := e.memoizedTable(p, prob, canon, setKey, h.Index())
		if err != nil {
			return nil, wrapCompute(err)
		}
		nodes, sums, err := core.TopGainSums(runCtx, d, b, membersOf(canon, p.g.N()), workers)
		release()
		if err != nil {
			return nil, wrapCompute(err)
		}
		finish(nodes, sums)
		res.Memo = st
	}
	res.IndexCached = !built
	return res, nil
}

// membersOf renders a canonical set as a node-indexed membership mask.
func membersOf(canon []int, n int) []bool {
	members := make([]bool, n)
	for _, u := range canon {
		members[u] = true
	}
	return members
}
