package rwdom

import (
	"context"
	"errors"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/shard"
)

// This file is the context-first public API: Open binds a graph to a
// query Engine — the same transport-agnostic serving core the rwdomd
// daemon runs on (internal/engine) — so embedded users get the whole
// serving stack (shared walk indexes, build coalescing, memoized gain
// reads with prefix extension, optional spill-to-disk and byte budgets)
// through plain method calls. Solve's approximate path in rwdom.go runs on
// a throwaway default Engine.

// Engine serves selections and gain queries over one graph. It is safe for
// concurrent use; identical concurrent Select calls coalesce into one
// computation and all queries share one materialized walk index per
// (L, R, seed). Create with Open, release resources with Close.
//
// With WithShards or WithPeers, the Engine fronts a replicate-sharded
// coordinator instead of a single in-process engine: each shard holds walk
// indexes over a disjoint replicate range, and every query is answered by
// merging the shards' integer partial sums — bit-identically to the
// unsharded Engine.
type Engine struct {
	e     *engine.Engine     // nil when sharded
	coord *shard.Coordinator // nil when unsharded
	q     querier
}

// querier is the query surface Engine delegates to — the in-process engine
// or a sharded coordinator.
type querier interface {
	Select(context.Context, engine.SelectRequest) (*engine.SelectResult, error)
	SelectStream(context.Context, engine.SelectRequest, func(engine.Round) error) (*engine.SelectResult, error)
	Gain(context.Context, engine.GainRequest) (*engine.GainResult, error)
	Objective(context.Context, engine.ObjectiveRequest) (*engine.ObjectiveResult, error)
	TopGains(context.Context, engine.TopGainsRequest) (*engine.TopGainsResult, error)
	ApplyDelta(context.Context, engine.ApplyDeltaRequest) (*engine.ApplyDeltaResult, error)
}

// Request/response types, shared verbatim with the engine (and mirrored by
// the HTTP wire format and the client package). Graph fields may be left
// empty: an Engine opened with Open serves exactly one graph.
type (
	// SelectRequest asks for a top-K selection; see Engine.Select.
	SelectRequest = engine.SelectRequest
	// SelectResult is one completed selection.
	SelectResult = engine.SelectResult
	// Round is one streamed greedy round; see Engine.SelectStream.
	Round = engine.Round
	// GainRequest asks for marginal gains against a seed set.
	GainRequest = engine.GainRequest
	// GainResult carries the requested marginal gains.
	GainResult = engine.GainResult
	// ObjectiveRequest asks for the estimated objective of a seed set.
	ObjectiveRequest = engine.ObjectiveRequest
	// ObjectiveResult carries the estimate.
	ObjectiveResult = engine.ObjectiveResult
	// TopGainsRequest asks for the best candidates against a seed set.
	TopGainsRequest = engine.TopGainsRequest
	// TopGainsResult carries the winners, gain descending.
	TopGainsResult = engine.TopGainsResult
	// Strategy selects the greedy driver (Lazy or Plain).
	Strategy = engine.Strategy
	// EngineStats snapshots the engine's cache and coalescing counters.
	EngineStats = engine.Stats
	// ErrorCode is the stable machine-readable code engine errors carry;
	// inspect it with ErrorCodeOf.
	ErrorCode = engine.Code
	// ShardStats snapshots a sharded Engine's coordinator counters; see
	// Engine.ShardStats.
	ShardStats = shard.Stats
	// ShardConnStats is one shard's request/error/retry counters.
	ShardConnStats = shard.ConnStats
	// ShardLatency summarizes the coordinator's merge latencies.
	ShardLatency = shard.LatencySnapshot
	// Delta is one atomic graph mutation: nodes to append, edges to add,
	// edges to remove; see Engine.ApplyDelta.
	Delta = graph.Delta
	// Edge is one undirected edge in a Delta (W <= 0 means unweighted).
	Edge = graph.Edge
	// ApplyDeltaRequest asks for a graph mutation; see Engine.ApplyDelta.
	ApplyDeltaRequest = engine.ApplyDeltaRequest
	// ApplyDeltaResult reports one applied mutation: the new epoch and the
	// fate of every cached artifact (repaired, dropped, memo-invalidated).
	ApplyDeltaResult = engine.ApplyDeltaResult
)

// Greedy strategies for SelectRequest.Strategy; the zero value is Lazy.
const (
	Lazy  = engine.Lazy
	Plain = engine.Plain
)

// Stable error codes carried by Engine method errors.
const (
	ErrBadRequest = engine.CodeBadRequest
	ErrNotFound   = engine.CodeNotFound
	ErrDraining   = engine.CodeDraining
	ErrTimeout    = engine.CodeTimeout
	ErrInternal   = engine.CodeInternal
	// ErrConflict rejects a structurally impossible mutation (adding an
	// edge that exists, removing one that doesn't) or a stale BaseEpoch.
	ErrConflict = engine.CodeConflict
	// ErrStaleEpoch rejects a read pinned to an epoch the graph is not at;
	// re-issue the read to resolve against the current epoch.
	ErrStaleEpoch = engine.CodeStaleEpoch
	// ErrUnsupported rejects a well-formed request combining features the
	// serving mode cannot honor — today, accuracy knobs (epsilon/delta) on a
	// sharded Engine.
	ErrUnsupported = engine.CodeUnsupported
)

// ErrorCodeOf extracts the stable code from any Engine method error.
func ErrorCodeOf(err error) ErrorCode { return engine.CodeOf(err) }

// openConfig is the resolved Open configuration: the wrapped engine's
// config plus the sharding topology.
type openConfig struct {
	engine engine.Config
	shards int
	peers  []string
}

// Option configures Open.
type Option func(*openConfig)

// WithWorkers sets the default worker count for index construction and
// gain evaluation (0 means all cores; per-request Workers overrides it —
// Open leaves the worker cap effectively unbounded, like the request
// caps). Selections are bit-for-bit identical for every value.
func WithWorkers(n int) Option {
	return func(c *openConfig) {
		if n > 0 {
			c.engine.DefaultWorkers = n
		}
	}
}

// WithIndexCache bounds the number of resident walk indexes (< 0 means
// unbounded; default 8).
func WithIndexCache(entries int) Option {
	return func(c *openConfig) { c.engine.CacheSize = entries }
}

// WithIndexCacheBytes additionally bounds the resident indexes' summed heap
// footprint (0 means unbounded). The budget is soft while every resident
// index is pinned by an in-flight call.
func WithIndexCacheBytes(n int64) Option {
	return func(c *openConfig) { c.engine.IndexBytes = n }
}

// WithMemoCache bounds the number of memoized per-set D-tables the gain
// read path keeps resident (< 0 means unbounded; default 128).
func WithMemoCache(entries int) Option {
	return func(c *openConfig) { c.engine.MemoSize = entries }
}

// WithMemoCacheBytes additionally bounds the memoized tables' summed heap
// footprint (0 means unbounded).
func WithMemoCacheBytes(n int64) Option {
	return func(c *openConfig) { c.engine.MemoBytes = n }
}

// WithoutMemo disables the memoized gain read path: every Gain, Objective
// and TopGains call materializes a fresh D-table. Kept for parity testing
// and A/B benchmarking.
func WithoutMemo() Option {
	return func(c *openConfig) { c.engine.DisableMemo = true }
}

// WithSpillDir persists evicted and Close-resident walk indexes under dir,
// so a later Open against the same graph skips their builds.
func WithSpillDir(dir string) Option {
	return func(c *openConfig) { c.engine.SpillDir = dir }
}

// WithSpillFormat selects the on-disk format spills are written in: "v8"
// (compressed store container, the default) or "v8raw" (raw page-aligned
// sections). Any other name, the retired "v7" included, makes Open fail.
// Loads read both encodings, so changing it never invalidates an existing
// spill directory.
func WithSpillFormat(format string) Option {
	return func(c *openConfig) { c.engine.SpillFormat = format }
}

// WithMmapSpills serves v8 spill loads store-backed through a read-only
// memory mapping: a warm Open against a spill directory pages walk rows in
// on demand instead of deserializing them, and mapped indexes cost ~nothing
// against WithIndexCacheBytes (their pages are reclaimable page cache, not
// heap) — the larger-than-RAM serving mode. Answers are bit-identical to
// heap-resident serving.
func WithMmapSpills() Option {
	return func(c *openConfig) { c.engine.MmapSpills = true }
}

// WithDefaultTimeout bounds calls that don't carry their own timeout
// (via SelectRequest.Timeout or the context). Open's default is unbounded —
// embedded callers control lifetimes with contexts.
func WithDefaultTimeout(d time.Duration) Option {
	return func(c *openConfig) { c.engine.DefaultTimeout = d }
}

// WithEvictInterval evicts walk indexes idle for one full interval, keeping
// a long-lived Engine's heap proportional to its working set.
func WithEvictInterval(d time.Duration) Option {
	return func(c *openConfig) { c.engine.EvictInterval = d }
}

// WithLimits caps per-request sample size and budget — the daemon-style
// defense against resource exhaustion, unbounded by default for embedded
// use (0 keeps a side's default).
func WithLimits(maxR, maxK int) Option {
	return func(c *openConfig) {
		if maxR > 0 {
			c.engine.MaxR = maxR
		}
		if maxK > 0 {
			c.engine.MaxK = maxK
		}
	}
}

// WithShards runs the Engine as an in-process replicate-sharded
// coordinator over n worker shards: every walk index is split into n
// disjoint replicate ranges, one per shard, so no single shard ever holds
// the full R replicates. Queries scatter to the shards and merge their
// integer partial sums exactly; answers are bit-identical to the unsharded
// Engine. n <= 1 means unsharded. Mutually exclusive with WithPeers.
func WithShards(n int) Option {
	return func(c *openConfig) { c.shards = n }
}

// WithPeers runs the Engine as a coordinator over remote rwdomd worker
// daemons at the given base URLs (one shard per peer), scattering
// replicate ranges to their /v1/partial endpoints. The local graph is used
// only for validation and merge bookkeeping; each peer must serve the same
// graph under the name "default" (Open's sole-graph name). Mutually
// exclusive with WithShards.
func WithPeers(urls ...string) Option {
	return func(c *openConfig) { c.peers = urls }
}

// WithAccuracy turns the adaptive replicate budget on for every Select whose
// request does not set its own Epsilon: SelectRequest.R becomes a cap, the
// walk index is materialized in replicate chunks, and each greedy round stops
// sampling as soon as a confidence interval on the separation between the
// leading candidate and the runner-up has half-width at most epsilon at
// confidence delta (split over the K rounds). Easy instances finish with a
// fraction of R and report EarlyStopped; hard instances spend the full R and
// report the interval they achieved (SelectResult.CIWidth) instead of
// failing silently. epsilon is in objective units (a per-replicate gain
// average) and must be > 0; delta must be in (0, 1) — 0.05 is the
// conventional choice. Adaptive selections always use the plain greedy
// driver and are bit-reproducible at every worker count. Incompatible with
// WithShards/WithPeers: Open fails, because no shard holds the full
// replicate range the stopping rule samples over.
func WithAccuracy(epsilon, delta float64) Option {
	return func(c *openConfig) {
		c.engine.DefaultEpsilon = epsilon
		c.engine.DefaultDelta = delta
	}
}

// WithAccuracyChunk overrides the replicate-chunk width adaptive selections
// materialize per extension step (0 means ceil(R/8)). Smaller chunks stop
// closer to the minimal sufficient sample at the cost of more sweep passes.
func WithAccuracyChunk(c0 int) Option {
	return func(c *openConfig) { c.engine.AccuracyChunk = c0 }
}

// defaultGraphName is the logical name Open registers its graph under; all
// request Graph fields may be left empty (sole-graph shorthand).
const defaultGraphName = "default"

// Open binds g to a new query Engine. The zero-option Engine is tuned for
// embedded use: no implicit timeouts, effectively unbounded request caps,
// all cores, memoized reads on. The daemon's stricter limits are opt-in
// through Options, as is replicate-sharded serving (WithShards, WithPeers).
func Open(g *Graph, opts ...Option) (*Engine, error) {
	if g == nil || g.N() == 0 {
		return nil, graph.ErrEmptyGraph
	}
	cfg := openConfig{engine: engine.Config{
		Graphs: map[string]*graph.Graph{defaultGraphName: g},
		// Embedded callers chose their parameters deliberately; caps exist
		// for network-facing deployments. (The greedy driver still clamps
		// workers to the candidate count.)
		MaxR:       math.MaxInt32,
		MaxK:       math.MaxInt32,
		MaxWorkers: math.MaxInt32,
	}}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.shards > 1 && len(cfg.peers) > 0 {
		return nil, errors.New("rwdom: WithShards and WithPeers are mutually exclusive")
	}
	if cfg.engine.DefaultEpsilon > 0 && (cfg.shards > 1 || len(cfg.peers) > 0) {
		return nil, errors.New("rwdom: WithAccuracy is not supported on a sharded Engine (no shard holds the full replicate range)")
	}
	if cfg.shards > 1 || len(cfg.peers) > 0 {
		shardCfg := shard.Config{
			Graphs:         cfg.engine.Graphs,
			DefaultTimeout: cfg.engine.DefaultTimeout,
			MaxR:           cfg.engine.MaxR,
			MaxK:           cfg.engine.MaxK,
			// Align per-shard replicate spans to chunk multiples when a chunk
			// width is configured (harmless otherwise — still a partition).
			ChunkSize: cfg.engine.AccuracyChunk,
		}
		var co *shard.Coordinator
		var err error
		if cfg.shards > 1 {
			co, err = shard.NewLocal(shardCfg, cfg.shards, cfg.engine)
		} else {
			co, err = shard.NewRemote(shardCfg, cfg.peers)
		}
		if err != nil {
			return nil, err
		}
		return &Engine{coord: co, q: co}, nil
	}
	e, err := engine.New(cfg.engine)
	if err != nil {
		return nil, err
	}
	return &Engine{e: e, q: e}, nil
}

// Select runs one top-K selection. Identical concurrent Selects (same
// problem, budget and index identity) coalesce into a single computation;
// the walk index is built at most once per (L, R, seed) and shared with
// every other query. Canceling ctx aborts this caller's wait (and the
// computation itself once no caller is interested).
func (e *Engine) Select(ctx context.Context, req SelectRequest) (*SelectResult, error) {
	return e.q.Select(ctx, req)
}

// SelectStream is Select that emits each greedy round's pick as it is
// decided: emit receives Round events in round order and a non-nil emit
// error aborts the run. The returned result — and the concatenation of the
// emitted rounds — is bit-for-bit identical to the blocking Select result
// for the same request, for every worker count.
func (e *Engine) SelectStream(ctx context.Context, req SelectRequest, emit func(Round) error) (*SelectResult, error) {
	return e.q.SelectStream(ctx, req, emit)
}

// Gain returns the marginal gain of each candidate in req.Nodes against the
// seed set req.Set. After the first call for a set, the answer is a pure
// read of a frozen memoized D-table; empty-set calls are answered from the
// index's memoized empty-set gain vector.
func (e *Engine) Gain(ctx context.Context, req GainRequest) (*GainResult, error) {
	return e.q.Gain(ctx, req)
}

// Objective returns the estimated objective value of the seed set req.Set.
func (e *Engine) Objective(ctx context.Context, req ObjectiveRequest) (*ObjectiveResult, error) {
	return e.q.Objective(ctx, req)
}

// TopGains returns the req.B best candidates by marginal gain against
// req.Set (set members excluded), gain descending, ties by ascending id.
func (e *Engine) TopGains(ctx context.Context, req TopGainsRequest) (*TopGainsResult, error) {
	return e.q.TopGains(ctx, req)
}

// ApplyDelta applies one atomic mutation to the served graph and bumps its
// mutation epoch. The mutation is copy-on-write — concurrent queries that
// already resolved their snapshot finish against pre-mutation state,
// bit-identically — and resident walk indexes are repaired incrementally
// (cost proportional to the delta, not the graph), so mutating a warm
// Engine keeps it warm. Structural conflicts and a stale BaseEpoch fail
// with ErrConflict and apply nothing. On a sharded Engine the delta is
// broadcast to every shard before the call returns; a shard that fails to
// apply leaves the Engine answering reads with typed ErrStaleEpoch errors
// rather than silently merging mixed-epoch state.
func (e *Engine) ApplyDelta(ctx context.Context, req ApplyDeltaRequest) (*ApplyDeltaResult, error) {
	return e.q.ApplyDelta(ctx, req)
}

// AdoptIndex makes a pre-built index (BuildIndex / LoadIndexFile) servable
// by this Engine: queries against its (L, R, seed) identity become cache
// hits instead of rebuilding the walks. Sharded Engines build their
// range-partitioned indexes themselves and reject adoption.
func (e *Engine) AdoptIndex(ix *Index) error {
	if e.e == nil {
		return &engine.Error{Code: ErrBadRequest, Message: "AdoptIndex is not supported on a sharded Engine"}
	}
	return e.e.AdoptIndex(defaultGraphName, ix)
}

// Stats snapshots the Engine's cache and coalescing counters. A sharded
// Engine has no single cache; its counters live in ShardStats and the
// snapshot here is zero.
func (e *Engine) Stats() EngineStats {
	if e.e == nil {
		return EngineStats{}
	}
	return e.e.Stats()
}

// ShardStats snapshots the coordinator's scatter-gather counters — shard
// count, merges, retries, per-shard request tallies, merge latency. Nil for
// an unsharded Engine.
func (e *Engine) ShardStats() *ShardStats {
	if e.coord == nil {
		return nil
	}
	st := e.coord.Stats()
	return &st
}

// Close releases Engine resources: in-flight computations are aborted and
// resident indexes spill to the spill directory when one is configured.
// Idempotent.
func (e *Engine) Close() error {
	if e.coord != nil {
		return e.coord.Close()
	}
	return e.e.Close()
}

// strategyOf maps the legacy Lazy flag onto a Strategy.
func strategyOf(lazy bool) Strategy {
	if lazy {
		return Lazy
	}
	return Plain
}

// defaultEngineSelect serves Solve's AlgorithmApprox through a throwaway
// default Engine. The result is bit-for-bit what core.ApproxF1/ApproxF2
// compute (same index builder, same greedy driver), with BuildTime the
// index materialization and SelectTime the greedy loop.
func defaultEngineSelect(g *Graph, opts Options, p index.Problem) (*Selection, error) {
	en, err := Open(g, WithWorkers(opts.Workers))
	if err != nil {
		return nil, err
	}
	defer en.Close()
	res, err := en.Select(context.Background(), SelectRequest{
		Problem:  p,
		K:        opts.K,
		L:        opts.L,
		R:        opts.R,
		Seed:     opts.Seed,
		Strategy: strategyOf(opts.Lazy),
		Workers:  opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	name := "ApproxF1"
	if p == index.Problem2 {
		name = "ApproxF2"
	}
	return &Selection{
		Algorithm:   name,
		Nodes:       res.Nodes,
		Gains:       res.Gains,
		Evaluations: res.Evaluations,
		BuildTime:   res.IndexBuild,
		SelectTime:  res.Select,
	}, nil
}
