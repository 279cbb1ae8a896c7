package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/index"
)

// This file is the memoized gain read path's request/response surface: the
// point queries that make the materialized walk index worth serving —
// marginal gains, objective estimates and top-B reads against arbitrary
// seed sets, each a pure read of a frozen cached D-table after the first
// request for its set.

// memoizedTable resolves the serving D-table for a non-empty canonical set:
// the memo cache when enabled, a fresh replay otherwise. The returned
// release func must be called once the table has been read; status is the
// Memo* constant describing which path served it.
func (e *Engine) memoizedTable(p params, prob index.Problem, canon []int, setKey string, ix *index.Index) (d *index.DTable, release func(), status string, err error) {
	if e.memo != nil {
		mh, status, err := e.memo.acquire(memoKey{idx: p.cacheKey(), problem: prob, set: setKey}, canon, ix)
		if err != nil {
			return nil, nil, "", err
		}
		return mh.Table(), mh.Release, status, nil
	}
	d, err = ix.NewDTable(prob)
	if err != nil {
		return nil, nil, "", err
	}
	for _, u := range canon {
		d.Update(u)
	}
	return d, func() {}, MemoOff, nil
}

// degradedTable is the graceful-degradation fallback after an index
// acquisition failure: if the exact (index identity, problem, canonical set)
// table is already memoized and resident over any instance of the index,
// the request can still be answered — exactly — from that frozen table,
// without pinning the index. Returns a pinned
// handle (caller releases) and ticks the engine's degraded counter on
// success. Empty sets are excluded: their answers come off the index itself,
// and an index resident enough to serve them would not have failed to
// acquire in the first place.
func (e *Engine) degradedTable(p params, prob index.Problem, canon []int, setKey string) (*memoHandle, bool) {
	if e.memo == nil || len(canon) == 0 {
		return nil, false
	}
	mh := e.memo.peek(p.cacheKey(), prob, setKey)
	if mh == nil {
		return nil, false
	}
	e.degraded.Add(1)
	return mh, true
}

// resolveRead validates the shared knobs of the read-path requests.
func (e *Engine) resolveRead(graph string, problem Problem, L, R int, seed uint64, set []int) (params, index.Problem, error) {
	prob, err := resolveProblem(problem)
	if err != nil {
		return params{}, 0, err
	}
	p, err := e.resolveParams(graph, L, R, seed)
	if err != nil {
		return params{}, 0, err
	}
	if err := validateSet("set", set, p.g); err != nil {
		return params{}, 0, err
	}
	return p, prob, nil
}

// Gain returns the marginal gain of each requested candidate against the
// committed seed set. After the first request for a set, the answer is a
// pure read of the frozen memoized D-table; empty-set requests are answered
// from the index's memoized empty-set gain vector with no D-table work at
// all.
func (e *Engine) Gain(ctx context.Context, req GainRequest) (*GainResult, error) {
	p, prob, err := e.resolveRead(req.Graph, req.Problem, req.L, req.R, req.Seed, req.Set)
	if err != nil {
		return nil, err
	}
	if len(req.Nodes) == 0 {
		return nil, badRequestf("nodes are required")
	}
	if err := validateSet("nodes", req.Nodes, p.g); err != nil {
		return nil, err
	}
	runCtx, cancel := e.Context(ctx, 0)
	defer cancel()
	canon, setKey := canonicalSet(req.Set)
	h, built, _, err := e.acquireIndexCtx(runCtx, p, e.cfg.DefaultWorkers)
	if err != nil {
		if mh, ok := e.degradedTable(p, prob, canon, setKey); ok {
			gains := mh.Table().GainBatch(req.Nodes, make([]float64, 0, len(req.Nodes)))
			mh.Release()
			return &GainResult{Gains: gains, Memo: MemoHit, Degraded: true}, nil
		}
		return nil, wrapCompute(err)
	}
	defer h.Release()
	var gains []float64
	var status string
	if e.memo != nil && len(canon) == 0 {
		// Set-free gains come straight off the index: no D-table exists on
		// this path at all.
		all, err := h.Index().EmptySetGains(prob)
		if err != nil {
			return nil, wrapCompute(err)
		}
		gains = make([]float64, 0, len(req.Nodes))
		for _, u := range req.Nodes {
			gains = append(gains, all[u])
		}
		status = MemoEmpty
		e.memo.noteEmptyHit()
	} else {
		d, release, st, err := e.memoizedTable(p, prob, canon, setKey, h.Index())
		if err != nil {
			return nil, wrapCompute(err)
		}
		gains = d.GainBatch(req.Nodes, make([]float64, 0, len(req.Nodes)))
		release()
		status = st
	}
	return &GainResult{Gains: gains, IndexCached: !built, Memo: status}, nil
}

// Objective returns the estimated objective value of the seed set. The
// memoized path serves a scalar computed once at table population (the
// D-table objective scan memoizes saturation state, so it must not run on
// the shared frozen table).
func (e *Engine) Objective(ctx context.Context, req ObjectiveRequest) (*ObjectiveResult, error) {
	p, prob, err := e.resolveRead(req.Graph, req.Problem, req.L, req.R, req.Seed, req.Set)
	if err != nil {
		return nil, err
	}
	runCtx, cancel := e.Context(ctx, 0)
	defer cancel()
	canon, setKey := canonicalSet(req.Set)
	h, built, _, err := e.acquireIndexCtx(runCtx, p, e.cfg.DefaultWorkers)
	if err != nil {
		if mh, ok := e.degradedTable(p, prob, canon, setKey); ok {
			objective := mh.Objective()
			mh.Release()
			return &ObjectiveResult{Objective: objective, Memo: MemoHit, Degraded: true}, nil
		}
		return nil, wrapCompute(err)
	}
	defer h.Release()
	var objective float64
	var status string
	switch {
	case e.memo != nil && len(canon) == 0:
		objective, err = h.Index().EmptySetObjective(prob)
		if err != nil {
			return nil, wrapCompute(err)
		}
		status = MemoEmpty
		e.memo.noteEmptyHit()
	case e.memo != nil:
		mh, st, err := e.memo.acquire(memoKey{idx: p.cacheKey(), problem: prob, set: setKey}, canon, h.Index())
		if err != nil {
			return nil, wrapCompute(err)
		}
		objective = mh.Objective()
		mh.Release()
		status = st
	default:
		d, err := h.Index().NewDTable(prob)
		if err != nil {
			return nil, wrapCompute(err)
		}
		members := make([]bool, p.g.N())
		for _, u := range req.Set {
			if !members[u] {
				members[u] = true
				d.Update(u)
			}
		}
		objective = d.EstimateObjective(members)
		status = MemoOff
	}
	return &ObjectiveResult{Objective: objective, IndexCached: !built, Memo: status}, nil
}

// TopGains returns the B best candidates by marginal gain against the seed
// set, set members excluded, gain descending with ties broken by ascending
// node id.
func (e *Engine) TopGains(ctx context.Context, req TopGainsRequest) (*TopGainsResult, error) {
	p, prob, err := e.resolveRead(req.Graph, req.Problem, req.L, req.R, req.Seed, req.Set)
	if err != nil {
		return nil, err
	}
	b := req.B
	if b == 0 {
		// Default B is 10, clamped so a tighter operator-configured MaxK
		// bounds the no-param path too.
		b = 10
		if b > e.cfg.MaxK {
			b = e.cfg.MaxK
		}
	}
	if b < 1 || b > e.cfg.MaxK {
		return nil, badRequestf("b=%d outside [1, %d]", req.B, e.cfg.MaxK)
	}
	workers := e.resolveWorkers(req.Workers)
	runCtx, cancel := e.Context(ctx, 0)
	defer cancel()
	canon, setKey := canonicalSet(req.Set)
	h, built, _, err := e.acquireIndexCtx(runCtx, p, workers)
	if err != nil {
		if mh, ok := e.degradedTable(p, prob, canon, setKey); ok {
			nodes, gains, derr := degradedTopGains(mh, b, canon, p.g.N(), workers)
			mh.Release()
			if derr == nil {
				return &TopGainsResult{B: b, Nodes: nodes, Gains: gains, Memo: MemoHit, Degraded: true}, nil
			}
		}
		return nil, wrapCompute(err)
	}
	defer h.Release()
	var nodes []int
	var gains []float64
	var status string
	switch {
	case e.memo != nil && len(canon) == 0:
		// Empty set: rank the index's memoized gain vector directly.
		all, err := h.Index().EmptySetGains(prob)
		if err != nil {
			return nil, wrapCompute(err)
		}
		nodes, gains = core.TopOfGains(all, nil, b)
		status = MemoEmpty
		e.memo.noteEmptyHit()
	case e.memo != nil:
		mh, st, err := e.memo.acquire(memoKey{idx: p.cacheKey(), problem: prob, set: setKey}, canon, h.Index())
		if err != nil {
			return nil, wrapCompute(err)
		}
		// Per-entry top-B result memo: the table is frozen, so the winners
		// for a budget are computed once and every repeat is an O(B) read
		// instead of a bound-pruned top-B read.
		if cn, cg, ok := mh.CachedTop(b); ok {
			nodes, gains = cn, cg
			e.memo.noteTopHit()
		} else {
			exclude := make([]bool, p.g.N())
			for _, u := range canon {
				exclude[u] = true
			}
			nodes, gains, err = core.TopGains(runCtx, mh.Table(), b, exclude, workers)
			if err != nil {
				mh.Release()
				return nil, wrapCompute(err)
			}
			mh.StoreTop(b, nodes, gains)
		}
		mh.Release()
		status = st
	default:
		d, err := h.Index().NewDTable(prob)
		if err != nil {
			return nil, wrapCompute(err)
		}
		for _, u := range canon {
			d.Update(u)
		}
		exclude := make([]bool, p.g.N())
		for _, u := range canon {
			exclude[u] = true
		}
		nodes, gains, err = core.TopGains(runCtx, d, b, exclude, workers)
		if err != nil {
			return nil, wrapCompute(err)
		}
		status = MemoOff
	}
	return &TopGainsResult{B: b, Nodes: nodes, Gains: gains, IndexCached: !built, Memo: status}, nil
}

// degradedTopGains answers a topgains request purely from a pinned frozen
// table: the per-entry top-B memo when a prior request paid the read, else
// a fresh bound-pruned top-B read of the table. The read runs under its own
// context — the request context is typically already dead on this path, and
// the read touches only resident state (the table and the memoized
// empty-set sums of its index), at most O(n) gain evaluations.
func degradedTopGains(mh *memoHandle, b int, canon []int, n, workers int) ([]int, []float64, error) {
	if nodes, gains, ok := mh.CachedTop(b); ok {
		return nodes, gains, nil
	}
	exclude := make([]bool, n)
	for _, u := range canon {
		exclude[u] = true
	}
	nodes, gains, err := core.TopGains(context.Background(), mh.Table(), b, exclude, workers)
	if err != nil {
		return nil, nil, err
	}
	mh.StoreTop(b, nodes, gains)
	return nodes, gains, nil
}
