package engine

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/index"
)

// resolveSelect validates a SelectRequest against the engine limits.
func (e *Engine) resolveSelect(req SelectRequest) (p params, prob index.Problem, workers int, acc *core.Accuracy, err error) {
	prob, err = resolveProblem(req.Problem)
	if err != nil {
		return params{}, 0, 0, nil, err
	}
	p, err = e.resolveParams(req.Graph, req.L, req.R, req.Seed)
	if err != nil {
		return params{}, 0, 0, nil, err
	}
	// K = 0 yields an empty selection, the library's historical behavior;
	// the HTTP codec enforces its stricter k >= 1 contract before reaching
	// here.
	if req.K < 0 || req.K > e.cfg.MaxK {
		return params{}, 0, 0, nil, badRequestf("k=%d outside [0, %d]", req.K, e.cfg.MaxK)
	}
	acc, err = e.resolveAccuracy(req.Epsilon, req.Delta)
	if err != nil {
		return params{}, 0, 0, nil, err
	}
	return p, prob, e.resolveWorkers(req.Workers), acc, nil
}

// resolveAccuracy resolves the per-request accuracy knobs against the engine
// defaults: nil means the fixed-R path (accuracy off). Zero epsilon inherits
// Config.DefaultEpsilon; zero delta inherits Config.DefaultDelta, then the
// documented 0.05.
func (e *Engine) resolveAccuracy(eps, delta float64) (*core.Accuracy, error) {
	if math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 {
		return nil, badRequestf("epsilon=%v, want >= 0", eps)
	}
	if eps == 0 {
		eps = e.cfg.DefaultEpsilon
	}
	if eps == 0 {
		if delta != 0 {
			return nil, badRequestf("delta=%v without an epsilon target", delta)
		}
		return nil, nil
	}
	if delta == 0 {
		delta = e.cfg.DefaultDelta
	}
	if delta == 0 {
		delta = 0.05
	}
	if math.IsNaN(delta) || delta <= 0 || delta >= 1 {
		return nil, badRequestf("delta=%v outside (0, 1)", delta)
	}
	return &core.Accuracy{Epsilon: eps, Delta: delta, Chunk: e.cfg.AccuracyChunk}, nil
}

// Select runs one top-K selection. Identical selections (same graph,
// problem, budget and index identity) coalesce into one computation;
// workers and timeout deliberately stay out of the coalescing key because
// they cannot change the selected nodes, only wall-clock cost — the
// leader's knobs drive the shared run. The computation context descends
// from the engine lifecycle, not any one caller's context, but is canceled
// early once every interested caller is gone, so abandoned selections stop
// burning cores.
//
// ctx bounds this caller's wait (and is additionally clamped by the
// request/engine timeout); Abort/Close cancel the computation itself.
func (e *Engine) Select(ctx context.Context, req SelectRequest) (*SelectResult, error) {
	p, prob, workers, acc, err := e.resolveSelect(req)
	if err != nil {
		return nil, err
	}
	waitCtx, cancel := e.Context(ctx, req.Timeout)
	defer cancel()

	key := fmt.Sprintf("%s|%s|k=%d|lazy=%t", p.cacheKey(), prob, req.K, req.Strategy.lazy())
	if acc != nil {
		// Accuracy knobs change the computation (and its result), so they
		// coalesce only with identically-targeted requests.
		key += fmt.Sprintf("|eps=%g|delta=%g", acc.Epsilon, acc.Delta)
	}
	compute := func(stop <-chan struct{}) (any, error) {
		cctx, cancel := e.computeCtx(req.Timeout)
		defer cancel()
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-stop:
				cancel()
			case <-watchDone:
			}
		}()
		// Only the singleflight leader reaches this closure: one admission
		// slot covers the whole coalesced run, and followers inherit the
		// leader's overloaded error when the gate sheds it. The shed error
		// deliberately carries no context cause, so the follower retry below
		// does not re-run a deliberately rejected computation.
		release, err := e.gate.admit(cctx)
		if err != nil {
			return nil, err
		}
		defer release()
		return e.runSelect(markAdmitted(cctx), p, prob, req.K, req.Strategy.lazy(), workers, acc, nil)
	}
	v, err, shared := e.sf.Do(waitCtx, key, compute)
	if shared && err != nil && waitCtx.Err() == nil &&
		(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
		// The shared run died on the leader's budget (or the leader walked
		// away), but this request's own budget is intact — rerun with our
		// own knobs, coalescing with any other retriers.
		v, err, shared = e.sf.Do(waitCtx, key, compute)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) && errors.Is(waitCtx.Err(), context.DeadlineExceeded) {
			// The deadline and the last-waiter-gone abort race when this
			// request's own budget expires; report the timeout, not the
			// cancellation it caused.
			err = context.DeadlineExceeded
		}
		return nil, wrapCompute(err)
	}
	if shared {
		e.selectsCoalesced.Add(1)
	}
	// Per-caller copy so the shared result's Coalesced flag stays truthful
	// for each of them (the slices are read-only and safely shared).
	res := *(v.(*SelectResult))
	res.Coalesced = shared
	return &res, nil
}

// SelectStream is Select that emits each greedy round's pick as it is
// decided: emit is called with Round events in round order, from the
// goroutine running the selection, and a non-nil emit error aborts the run
// and is returned. The returned SelectResult — and the concatenation of the
// emitted rounds — is bit-for-bit identical to the blocking Select result
// for the same request, for every worker count.
//
// Streams do not coalesce with each other or with blocking Selects: a
// follower attaching mid-run would have missed the early rounds. The
// computation runs under this caller's context (clamped by the
// request/engine timeout and the engine lifecycle).
func (e *Engine) SelectStream(ctx context.Context, req SelectRequest, emit func(Round) error) (*SelectResult, error) {
	p, prob, workers, acc, err := e.resolveSelect(req)
	if err != nil {
		return nil, err
	}
	runCtx, cancel := e.Context(ctx, req.Timeout)
	defer cancel()
	// Streams do not coalesce, so each one holds its own admission slot for
	// the full run.
	release, err := e.gate.admit(runCtx)
	if err != nil {
		return nil, err
	}
	defer release()
	res, err := e.runSelect(markAdmitted(runCtx), p, prob, req.K, req.Strategy.lazy(), workers, acc, emit)
	if err != nil {
		return nil, wrapCompute(err)
	}
	return res, nil
}

// runSelect executes one selection under the caller-supplied computation
// context, streaming rounds to onRound when non-nil. A non-nil acc routes to
// the adaptive replicate-budget driver.
func (e *Engine) runSelect(ctx context.Context, p params, prob index.Problem, k int, lazy bool, workers int, acc *core.Accuracy, onRound func(Round) error) (*SelectResult, error) {
	if acc != nil {
		return e.runAdaptiveSelect(ctx, p, prob, k, workers, *acc, onRound)
	}
	h, built, indexBuild, err := e.acquireIndexCtx(ctx, p, workers)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	cfg := greedy.Config{Lazy: lazy, Workers: workers}
	if onRound != nil {
		cfg.Observe = func(pk greedy.Pick) error {
			return onRound(Round{Round: pk.Round, Node: pk.Node, Gain: pk.Gain, Objective: pk.Total})
		}
	}
	sel, err := core.ApproxWithIndex(ctx, h.Index(), prob, k, cfg)
	if err != nil {
		return nil, err
	}
	return &SelectResult{
		Nodes:       sel.Nodes,
		Gains:       sel.Gains,
		Evaluations: sel.Evaluations,
		L:           p.L,
		R:           p.R,
		Workers:     workers,
		Lazy:        lazy,
		IndexBuild:  indexBuild,
		TableBuild:  sel.BuildTime,
		Select:      sel.SelectTime,
		IndexCached: !built,
	}, nil
}

// runAdaptiveSelect executes one selection under an adaptive replicate
// budget. The run materializes a private chunked index that grows on demand
// instead of going through the shared cache: the replicate width an adaptive
// run ends at is data-dependent, so caching a partial index under the fixed-R
// key would poison fixed-R requests, and the chunk builds are cheap exactly
// when the run stops early. The caller already holds the admission slot for
// the whole run, which covers the incremental builds.
func (e *Engine) runAdaptiveSelect(ctx context.Context, p params, prob index.Problem, k int, workers int, acc core.Accuracy, onRound func(Round) error) (*SelectResult, error) {
	var onPick func(core.BudgetPick) error
	if onRound != nil {
		onPick = func(bp core.BudgetPick) error {
			return onRound(Round{
				Round:      bp.Round,
				Node:       bp.Node,
				Gain:       bp.Gain,
				Objective:  bp.Total,
				CIWidth:    bp.CIWidth,
				Replicates: bp.Replicates,
			})
		}
	}
	opts := core.Options{K: k, L: p.L, R: p.R, Seed: p.seed, Workers: workers}
	sel, err := core.ApproxAdaptiveStream(ctx, p.g, prob, opts, acc, onPick)
	if err != nil {
		return nil, err
	}
	res := &SelectResult{
		Nodes:          sel.Nodes,
		Gains:          sel.Gains,
		Evaluations:    sel.Evaluations,
		L:              p.L,
		R:              p.R,
		Workers:        workers,
		IndexBuild:     sel.BuildTime,
		Select:         sel.SelectTime,
		Epsilon:        acc.Epsilon,
		Delta:          acc.Delta,
		ReplicatesUsed: sel.ReplicatesUsed,
		ChunksBuilt:    sel.ChunksBuilt,
		EarlyStopped:   sel.EarlyStopped,
		CIWidth:        sel.MaxCIWidth,
	}
	e.recordAdaptive(res)
	return res, nil
}
