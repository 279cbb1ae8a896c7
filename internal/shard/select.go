package shard

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/greedy"
	"repro/internal/index"
)

// Select runs one top-K selection with the engine's own greedy driver —
// greedy.Run, CELF or the plain loop for Strategy Plain — over a
// coordinator-side oracle whose every gain is a scatter of the committed
// set and the candidates to all shards, merged by integer addition (see
// selectOracle). Round 1 is served from each shard's memoized empty-set
// sums; each later CELF re-evaluation is a small PartialGain against that
// round's memoized table.
//
// Selections — Nodes, Gains, the telescoped Objective — and Evaluations are
// bit-identical to the unsharded engine for both strategies and every
// worker count: the merged gain of every candidate is the same float64
// value the unsharded D-table computes, and the driver is the same code.
// Workers resolve as the engine's default configuration resolves them:
// zero or more than GOMAXPROCS means GOMAXPROCS.
func (co *Coordinator) Select(ctx context.Context, req engine.SelectRequest) (*engine.SelectResult, error) {
	return co.selectRun(ctx, req, nil)
}

// SelectStream is Select that emits each round's pick as it is decided,
// mirroring engine.SelectStream: emit receives greedy.Run's picks on the
// calling goroutine in round order, and a non-nil emit error aborts the
// run.
func (co *Coordinator) SelectStream(ctx context.Context, req engine.SelectRequest, emit func(engine.Round) error) (*engine.SelectResult, error) {
	return co.selectRun(ctx, req, emit)
}

func (co *Coordinator) selectRun(ctx context.Context, req engine.SelectRequest, emit func(engine.Round) error) (*engine.SelectResult, error) {
	prob, err := resolveProblem(req.Problem)
	if err != nil {
		return nil, err
	}
	p, err := co.resolveParams(req.Graph, req.L, req.R, req.Seed)
	if err != nil {
		return nil, err
	}
	if req.K < 0 || req.K > co.cfg.MaxK {
		return nil, badRequestf("k=%d outside [0, %d]", req.K, co.cfg.MaxK)
	}
	if req.Epsilon != 0 || req.Delta != 0 {
		// The adaptive stopping rule samples per-replicate gains over the
		// full replicate range; no shard holds it, so the knob cannot be
		// honored here.
		return nil, &engine.Error{Code: engine.CodeUnsupported,
			Message: "accuracy (epsilon/delta) is not supported on sharded deployments"}
	}
	workers := req.Workers
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || workers > procs {
		workers = procs
	}
	lazy := req.Strategy != engine.Plain
	runCtx, cancel := co.Context(ctx, req.Timeout)
	defer cancel()
	o := co.newSelectOracle(runCtx, p, prob)
	defer o.cancel()

	cfg := greedy.Config{Lazy: lazy, Workers: workers}
	if emit != nil {
		cfg.Observe = func(pk greedy.Pick) error {
			return emit(engine.Round{Round: pk.Round, Node: pk.Node, Gain: pk.Gain, Objective: pk.Total})
		}
	}
	start := time.Now()
	sel, err := greedy.Run(o.ctx, p.g.N(), req.K, o, cfg)
	if err := o.outcome(err); err != nil {
		return nil, err
	}
	return &engine.SelectResult{
		Nodes:       sel.Selected,
		Gains:       sel.Gains,
		Evaluations: sel.Evaluations,
		L:           p.L,
		R:           p.R,
		Workers:     workers,
		Lazy:        lazy,
		Select:      time.Since(start),
		IndexCached: !o.built.Load(),
	}, nil
}

// selectOracle is the greedy.BatchOracle a coordinated selection runs on.
// It holds the committed set; GainBatch scatters that set and the
// candidates to every shard under the request's pinned epoch and merges
// the answers exactly as Coordinator.Gain does (mergeGains), so gains are
// bit-identical to the unsharded D-table's.
//
// greedy.Run calls Gain/GainBatch concurrently between Updates; both only
// read the set. A failed scatter cannot travel through the Oracle
// interface, so the oracle records it and cancels its context — the one
// the driver runs under — which stops the driver at its next check.
type selectOracle struct {
	co     *Coordinator
	ctx    context.Context
	cancel context.CancelFunc
	base   engine.PartialGainRequest
	spans  []span
	r      int

	// built records that some scatter materialized a shard index (in
	// practice the initial sweep, the run's first scatter).
	built atomic.Bool
	mu    sync.Mutex
	err   error // the first failure; every later gain answered is moot
}

func (co *Coordinator) newSelectOracle(ctx context.Context, p qparams, prob index.Problem) *selectOracle {
	ctx, cancel := context.WithCancel(ctx)
	return &selectOracle{
		co: co, ctx: ctx, cancel: cancel,
		base: engine.PartialGainRequest{
			Graph: p.graphName, Problem: prob, L: p.L, Seed: p.seed, Epoch: &p.epoch,
			Set: []int{},
		},
		spans: co.split(p.R),
		r:     p.R,
	}
}

func (o *selectOracle) Gain(u int) float64 {
	return o.GainBatch([]int{u}, make([]float64, 0, 1))[0]
}

func (o *selectOracle) Update(u int) { o.base.Set = append(o.base.Set, u) }

// GainBatch appends the merged gains of us to out: one merge per call, so
// /stats merges and merge latency cover selections. After a failure (or
// once the run's context is done) it appends zeros without scattering and
// records why, so the run cannot return a result built on them.
func (o *selectOracle) GainBatch(us []int, out []float64) []float64 {
	if err := o.ctx.Err(); err != nil {
		o.fail(wrapCtx(err))
		return append(out, make([]float64, len(us))...)
	}
	start := time.Now()
	req := o.base
	req.Nodes = us
	results, err := o.co.scatterGain(o.ctx, req, o.spans)
	if err != nil {
		o.fail(err)
		return append(out, make([]float64, len(us))...)
	}
	out, meta := mergeGains(results, len(us), o.r, out)
	if !meta.indexCached {
		o.built.Store(true)
	}
	o.co.noteMerge(start, meta)
	return out
}

// fail records the run's first failure and stops the driver.
func (o *selectOracle) fail(err error) {
	o.mu.Lock()
	if o.err == nil {
		o.err = err
	}
	o.mu.Unlock()
	o.cancel()
}

// outcome resolves a driver's return: a recorded failure wins over the
// context.Canceled it caused in the driver, and a bare context error from
// the caller's deadline or cancellation gets the engine's classification.
func (o *selectOracle) outcome(err error) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err != nil {
		return o.err
	}
	if err == context.Canceled || err == context.DeadlineExceeded {
		return wrapCtx(err)
	}
	return err
}
