// Package engine is the transport-agnostic query-serving brain of the
// random-walk-domination system: it owns the cache stack the paper's
// materialized walk index makes worthwhile — the refcounted LRU of built
// indexes (internal/index.Cache) and the memoized per-set D-table cache —
// and exposes context-first, request/response methods over it:
//
//	Select       top-k seed selection (Problem 1 or 2, plain or CELF-lazy
//	             greedy), identical concurrent selections coalesced into one
//	             computation
//	SelectStream Select that emits each greedy round's pick (node, gain,
//	             objective-so-far) as it is decided; the reassembled rounds
//	             are bit-for-bit the blocking Select result
//	Gain         marginal gains of candidate nodes against a seed set
//	Objective    estimated objective value of a seed set
//	TopGains     the top-B candidates by marginal gain against a seed set
//
// Every transport — the HTTP daemon (internal/server), the public embedded
// API (rwdom.Open), the typed Go client's server side, future gRPC or batch
// front ends — is a thin codec over this one type, so each of them gets the
// whole serving stack (index sharing, build coalescing, memoized reads,
// prefix extension, spill-to-disk, byte budgets) for free instead of
// reimplementing it per transport.
//
// Graphs are mutable at runtime: ApplyDelta applies an edge/node delta
// copy-on-write, bumps the graph's mutation epoch, and repairs the resident
// walk indexes incrementally (internal/index.Repair regenerates only the
// affected walk rows) instead of dropping them for full rebuilds. Every
// cached artifact — index cache keys, spill files, memoized D-tables,
// singleflight selection keys — carries the epoch, so a pre-mutation
// artifact can never serve a post-mutation request.
//
// Errors carry stable machine-readable codes (*Error with CodeBadRequest,
// CodeNotFound, CodeDraining, CodeOverloaded, CodeTimeout, CodeConflict,
// CodeStaleEpoch, CodeUnsupported, CodeInternal) so codecs can map them
// mechanically — the
// HTTP layer to statuses and its JSON error envelope, the client SDK back
// to typed errors.
//
// Under load the engine degrades instead of collapsing: an admission gate
// (Config.MaxConcurrent/MaxQueue) bounds concurrent selections and index
// builds behind a bounded wait queue and sheds the excess with
// CodeOverloaded plus a Retry-After hint, and the read methods fall back to
// an already-memoized frozen D-table (result flagged Degraded) when the
// index itself cannot be acquired.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/index"
)

// Config configures an Engine. Graphs is required; zero values elsewhere get
// the documented defaults.
type Config struct {
	// Graphs maps the logical names requests use to loaded graphs.
	Graphs map[string]*graph.Graph
	// CacheSize bounds the number of resident walk indexes (default 8;
	// < 0 means unbounded). IndexBytes additionally bounds their summed heap
	// footprint (0 means unbounded); the budget is soft while every resident
	// index is pinned by an in-flight request.
	CacheSize  int
	IndexBytes int64
	// SpillDir, when non-empty, persists evicted and Close-resident indexes
	// so later misses and restarts skip the build.
	SpillDir string
	// SpillFormat selects what spill saves write: "v8" (compressed store
	// container, the default) or "v8raw" (raw page-aligned sections); New
	// rejects any other name. Loads read both encodings regardless of this
	// setting; a file in any other format (the retired v7 stream included)
	// costs a counted rebuild. Without MmapSpills a v8 load
	// decodes compressed chunks once, at load, so the loaded index serves at
	// heap speed and counts its full decoded size against IndexBytes.
	SpillFormat string
	// MmapSpills serves v8 spill loads store-backed through a read-only
	// memory mapping: a warm restart pages rows in on demand instead of
	// deserializing, and mapped indexes cost ~nothing against IndexBytes
	// (their pages are reclaimable page cache, not heap). Compressed chunks
	// of a mapped file decode on read through a hot-row cache.
	MmapSpills bool
	// EvictInterval enables background eviction of indexes not used for one
	// full interval (0 disables it).
	EvictInterval time.Duration
	// DefaultTimeout bounds a selection computation whose request does not
	// set its own timeout; MaxTimeout caps what a request may ask for. Zero
	// means unbounded — the caller's context is then the only bound, the
	// right default for embedded library use. The HTTP daemon sets both.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DefaultWorkers is the per-request worker default; MaxWorkers caps the
	// request knob. Both default to runtime.GOMAXPROCS(0).
	DefaultWorkers int
	MaxWorkers     int
	// MaxR and MaxK cap per-request sample size and budget as a defense
	// against accidental resource exhaustion (defaults 1000 and 10000).
	MaxR int
	MaxK int
	// MaxConcurrent bounds concurrently running heavy computations —
	// selection runs and walk-index builds — admitted through the gate
	// (default 2×GOMAXPROCS; < 0 disables admission control entirely).
	// MaxQueue bounds how many admissions may wait for a slot (default
	// 8×MaxConcurrent; < 0 means no queue — at capacity, shed immediately).
	// Work beyond both bounds is shed with a typed CodeOverloaded error
	// carrying the RetryAfterHint backoff (default 1s).
	MaxConcurrent  int
	MaxQueue       int
	RetryAfterHint time.Duration
	// MemoSize bounds the number of memoized D-tables the gain read path
	// keeps resident (default 128; < 0 means unbounded); MemoBytes
	// additionally bounds their summed heap footprint (0 means unbounded,
	// soft while tables are pinned). DisableMemo turns the memoized read
	// path off entirely, so every Gain, Objective and TopGains request
	// materializes a fresh table — kept for parity testing and A/B
	// benchmarking.
	MemoSize    int
	MemoBytes   int64
	DisableMemo bool
	// DefaultEpsilon > 0 turns the adaptive replicate budget on for every
	// Select/SelectStream whose request does not set its own Epsilon: R
	// becomes a cap and rounds stop sampling once the leader's separation
	// interval beats Epsilon at confidence DefaultDelta. Zero (the default)
	// leaves accuracy off unless a request opts in. DefaultDelta defaults to
	// 0.05 when accuracy is on. rwdom.WithAccuracy sets both.
	DefaultEpsilon float64
	DefaultDelta   float64
	// AccuracyChunk is the replicate-chunk width adaptive runs build per
	// extension step (0 means ceil(R/8), the core default).
	AccuracyChunk int
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 8
	}
	if c.DefaultWorkers <= 0 {
		c.DefaultWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxR <= 0 {
		c.MaxR = 1000
	}
	if c.MaxK <= 0 {
		c.MaxK = 10000
	}
	if c.MemoSize == 0 {
		c.MemoSize = 128
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 8 * c.MaxConcurrent
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	return c
}

// Engine answers selection and gain queries over a fixed set of graph
// names (the graphs themselves are mutable through ApplyDelta), sharing one
// cache stack across every transport. Create with New, release resources
// with Close. All methods are safe for concurrent use.
type Engine struct {
	cfg Config
	// graphs is the live name → graph mapping, copied from cfg.Graphs at New
	// and updated in place by ApplyDelta (the map's key set never changes;
	// only values are swapped for their post-mutation successors). graphsMu
	// serializes mutations against each other and against param resolution:
	// readers take the RLock just long enough to snapshot a *graph.Graph —
	// each snapshot is immutable (ApplyDelta is copy-on-write), so the heavy
	// work after resolution runs lock-free against a consistent epoch.
	graphsMu sync.RWMutex
	graphs   map[string]*graph.Graph

	cache *index.Cache
	// memo is the memoized D-table cache behind Gain, Objective and
	// TopGains; nil when cfg.DisableMemo.
	memo *memoCache
	sf   singleflight
	// gate admission-controls heavy work (selection runs, index builds);
	// nil when cfg.MaxConcurrent < 0 (admission disabled).
	gate *gate

	// selectsCoalesced counts Select results served from another request's
	// computation; degraded counts reads answered from frozen memoized
	// state because the live index path failed or was shed.
	selectsCoalesced atomic.Int64
	degraded         atomic.Int64

	// Adaptive-budget counters: selections run under an accuracy target,
	// how many stopped below the R cap, total index chunks materialized, and
	// a histogram of achieved CIWidth/ε ratios (see AccuracyStats).
	adaptiveSelects atomic.Int64
	earlyStops      atomic.Int64
	chunksBuilt     atomic.Int64
	ciWidthHist     [ciBuckets]atomic.Int64

	// lifecycle is canceled by Abort/Close; every computation context
	// descends from it so shutdown aborts stragglers.
	lifecycle context.Context
	abort     context.CancelFunc

	stopEvictor func()
	closeOnce   sync.Once
	closeErr    error
}

// New validates cfg and returns a ready Engine.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Graphs) == 0 {
		return nil, &Error{Code: CodeBadRequest, Message: "engine: no graphs configured"}
	}
	for name, g := range cfg.Graphs {
		if g == nil || g.N() == 0 {
			return nil, &Error{Code: CodeBadRequest, Message: fmt.Sprintf("engine: graph %q is empty", name)}
		}
	}
	if math.IsNaN(cfg.DefaultEpsilon) || math.IsInf(cfg.DefaultEpsilon, 0) || cfg.DefaultEpsilon < 0 {
		return nil, &Error{Code: CodeBadRequest, Message: fmt.Sprintf("engine: default epsilon %v, want >= 0", cfg.DefaultEpsilon)}
	}
	if cfg.DefaultDelta != 0 && !(cfg.DefaultDelta > 0 && cfg.DefaultDelta < 1) {
		return nil, &Error{Code: CodeBadRequest, Message: fmt.Sprintf("engine: default delta %v, want in (0, 1)", cfg.DefaultDelta)}
	}
	if cfg.AccuracyChunk < 0 {
		return nil, &Error{Code: CodeBadRequest, Message: fmt.Sprintf("engine: accuracy chunk %d, want >= 0", cfg.AccuracyChunk)}
	}
	cfg = cfg.withDefaults()
	cache, err := index.NewCacheWith(cfg.CacheSize, cfg.IndexBytes, cfg.SpillDir,
		index.SpillConfig{Format: cfg.SpillFormat, Mmap: cfg.MmapSpills})
	if err != nil {
		return nil, &Error{Code: CodeBadRequest, Message: err.Error()}
	}
	ctx, cancel := context.WithCancel(context.Background())
	graphs := make(map[string]*graph.Graph, len(cfg.Graphs))
	for name, g := range cfg.Graphs {
		graphs[name] = g
	}
	e := &Engine{
		cfg:       cfg,
		graphs:    graphs,
		cache:     cache,
		lifecycle: ctx,
		abort:     cancel,
	}
	if cfg.MaxConcurrent > 0 {
		e.gate = newGate(cfg.MaxConcurrent, cfg.MaxQueue, cfg.RetryAfterHint)
	}
	if !cfg.DisableMemo {
		e.memo = newMemoCache(cfg.MemoSize, cfg.MemoBytes)
		// Link the two caches: when an index is evicted, every memoized
		// table built under its key is dropped (or orphaned until its last
		// in-flight reader releases it), so the eviction actually returns
		// the index's heap.
		cache.OnEviction(func(keys []index.CacheKey) { e.memo.dropIndexes(keys) })
	}
	if cfg.EvictInterval > 0 {
		e.stopEvictor = cache.StartEvictor(cfg.EvictInterval)
	}
	return e, nil
}

// Graph returns the named graph, or the engine's sole graph when name is
// empty and exactly one is configured (the embedded single-graph case).
// The returned graph is an immutable snapshot: after an ApplyDelta a fresh
// call returns the successor, but a held pointer stays valid (and stays at
// its epoch) forever.
func (e *Engine) Graph(name string) (*graph.Graph, bool) {
	e.graphsMu.RLock()
	defer e.graphsMu.RUnlock()
	if name == "" && len(e.graphs) == 1 {
		for _, g := range e.graphs {
			return g, true
		}
	}
	g, ok := e.graphs[name]
	return g, ok
}

// Graphs returns the number of configured graphs.
func (e *Engine) Graphs() int { return len(e.cfg.Graphs) }

// soleGraphName resolves the empty-name shorthand to the engine's sole
// configured graph name; returns name unchanged otherwise. The key set of
// the graphs map is fixed at New, so cfg.Graphs is authoritative for names.
func (e *Engine) soleGraphName(name string) string {
	if name == "" && len(e.cfg.Graphs) == 1 {
		for only := range e.cfg.Graphs {
			return only
		}
	}
	return name
}

// Cache exposes the index cache (for stats, adoption and tests).
func (e *Engine) Cache() *index.Cache { return e.cache }

// AdoptIndex inserts a caller-materialized index into the cache under the
// given graph name (resolved like Graph) so selections against its
// (L, R, seed) identity are served from it instead of rebuilding.
func (e *Engine) AdoptIndex(name string, ix *index.Index) error {
	if ix == nil {
		return &Error{Code: CodeBadRequest, Message: "engine: adopt nil index"}
	}
	name = e.soleGraphName(name)
	g, ok := e.Graph(name)
	if !ok {
		return &Error{Code: CodeNotFound, Message: fmt.Sprintf("unknown graph %q", name)}
	}
	if g != ix.Graph() {
		return &Error{Code: CodeBadRequest, Message: fmt.Sprintf("engine: index was built on a different graph than %q", name)}
	}
	key := index.CacheKey{Graph: name, L: ix.L(), R: ix.R(), Seed: ix.Seed(), R0: ix.R0(), Epoch: ix.GraphEpoch()}
	return e.cache.Adopt(key, ix)
}

// MemoStats snapshots the memoized-gain cache counters; the zero value when
// memoization is disabled.
func (e *Engine) MemoStats() MemoStats {
	if e.memo == nil {
		return MemoStats{}
	}
	return e.memo.Stats()
}

// MemoEnabled reports whether the memoized gain read path is on.
func (e *Engine) MemoEnabled() bool { return e.memo != nil }

// MemoPinnedRefs returns the total refcount across resident memo tables —
// test observability for "no table is still pinned once traffic stops".
// Zero when memoization is disabled.
func (e *Engine) MemoPinnedRefs() int {
	if e.memo == nil {
		return 0
	}
	return e.memo.pinnedRefs()
}

// Stats snapshots the engine-level counters: index-cache and memo traffic,
// coalesced selections, degraded answers, admission-gate pressure, and
// adaptive-accuracy activity.
type Stats struct {
	Cache            index.CacheStats
	Memo             MemoStats
	MemoEnabled      bool
	SelectsCoalesced int64
	// Degraded counts read requests answered from frozen memoized state
	// because the live index path failed or was shed.
	Degraded int64
	// Admission snapshots the heavy-work gate (zero value when disabled).
	Admission AdmissionStats
	// Accuracy snapshots the adaptive replicate-budget counters (zero value
	// when no adaptive selection has run).
	Accuracy AccuracyStats
	// Storage snapshots the spill/storage subsystem: configured format, mmap
	// serving, and aggregate decode counters of resident store-backed indexes.
	Storage index.StorageStats
}

// ciBuckets is the CIWidth/ε histogram width: four quarters of the target
// plus an overflow bucket for capped runs that missed it.
const ciBuckets = 5

// AccuracyStats counts adaptive-budget selections. CIWidthHist buckets each
// completed run's achieved CIWidth/ε ratio: [0,0.25), [0.25,0.5),
// [0.5,0.75), [0.75,1], and >1 (the run hit the R cap before reaching ε).
type AccuracyStats struct {
	AdaptiveSelects int64
	EarlyStops      int64
	ChunksBuilt     int64
	CIWidthHist     [ciBuckets]int64
}

// recordAdaptive folds one completed adaptive selection into the counters.
func (e *Engine) recordAdaptive(res *SelectResult) {
	e.adaptiveSelects.Add(1)
	if res.EarlyStopped {
		e.earlyStops.Add(1)
	}
	e.chunksBuilt.Add(int64(res.ChunksBuilt))
	b := ciBuckets - 1
	if res.Epsilon > 0 && res.CIWidth <= res.Epsilon {
		if b = int(res.CIWidth / res.Epsilon * 4); b > ciBuckets-2 {
			b = ciBuckets - 2
		}
	}
	e.ciWidthHist[b].Add(1)
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Cache:            e.cache.Stats(),
		MemoEnabled:      e.memo != nil,
		SelectsCoalesced: e.selectsCoalesced.Load(),
		Degraded:         e.degraded.Load(),
		Admission:        e.gate.stats(),
		Accuracy: AccuracyStats{
			AdaptiveSelects: e.adaptiveSelects.Load(),
			EarlyStops:      e.earlyStops.Load(),
			ChunksBuilt:     e.chunksBuilt.Load(),
		},
	}
	for i := range e.ciWidthHist {
		s.Accuracy.CIWidthHist[i] = e.ciWidthHist[i].Load()
	}
	s.Storage = e.cache.StorageStats()
	if e.memo != nil {
		s.Memo = e.memo.Stats()
	}
	return s
}

// AdmissionStats snapshots the admission gate (test observability; the zero
// value when admission is disabled).
func (e *Engine) AdmissionStats() AdmissionStats { return e.gate.stats() }

// Abort cancels every in-flight computation (their contexts descend from
// the engine lifecycle). The engine remains usable for new requests; the
// HTTP layer calls this when its drain budget runs out.
func (e *Engine) Abort() { e.abort() }

// Close releases engine resources: aborts outstanding computations, stops
// the background evictor, and spills resident indexes to the spill
// directory. Idempotent.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.abort()
		if e.stopEvictor != nil {
			e.stopEvictor()
		}
		e.closeErr = e.cache.SpillAll()
	})
	return e.closeErr
}

// clampTimeout resolves a per-request timeout knob against the configured
// default and cap. Zero in, zero defaults out means unbounded.
func (e *Engine) clampTimeout(timeout time.Duration) time.Duration {
	if timeout <= 0 {
		timeout = e.cfg.DefaultTimeout
	}
	if e.cfg.MaxTimeout > 0 && timeout > e.cfg.MaxTimeout {
		timeout = e.cfg.MaxTimeout
	}
	return timeout
}

// Context derives the wait context for one request: bounded by the
// (clamped) timeout knob when one applies, by parent, and by the engine
// lifecycle so Abort/Close cancel it. Transports wrap their per-request
// contexts with it before calling engine methods.
func (e *Engine) Context(parent context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	timeout = e.clampTimeout(timeout)
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(parent, timeout)
	} else {
		ctx, cancel = context.WithCancel(parent)
	}
	stop := context.AfterFunc(e.lifecycle, cancel)
	return ctx, func() { stop(); cancel() }
}

// computeCtx derives the context shared selection computations run under:
// bounded by the leader's timeout and the engine lifecycle but NOT by the
// leader's own request context, so one departing client cannot fail the
// coalesced followers.
func (e *Engine) computeCtx(timeout time.Duration) (context.Context, context.CancelFunc) {
	timeout = e.clampTimeout(timeout)
	if timeout > 0 {
		return context.WithTimeout(e.lifecycle, timeout)
	}
	return context.WithCancel(e.lifecycle)
}

// resolveWorkers clamps the per-request workers knob.
func (e *Engine) resolveWorkers(workers int) int {
	if workers <= 0 {
		return e.cfg.DefaultWorkers
	}
	if workers > e.cfg.MaxWorkers {
		return e.cfg.MaxWorkers
	}
	return workers
}

// params are the validated request knobs that identify one materialized
// index. r0 is the first absolute replicate of a partial (replicate-range
// sharded) index — zero on every full-index path, so those keys are
// unchanged. epoch is the mutation epoch of the graph snapshot g: params
// capture (g, epoch) atomically at resolution, so everything downstream —
// the index cache key, the singleflight selection key, the memo key —
// computes against one consistent graph state even if a mutation lands
// mid-request.
type params struct {
	graphName string
	g         *graph.Graph
	L, R      int
	seed      uint64
	r0        int
	epoch     uint64
}

func (p params) cacheKey() index.CacheKey {
	return index.CacheKey{Graph: p.graphName, L: p.L, R: p.R, Seed: p.seed, R0: p.r0, Epoch: p.epoch}
}

// resolveParams validates the shared graph/L/R/seed knobs. R defaults to the
// paper's recommended 100 when zero.
func (e *Engine) resolveParams(graphName string, L, R int, seed uint64) (params, error) {
	g, ok := e.Graph(graphName)
	if !ok {
		return params{}, &Error{Code: CodeNotFound, Message: fmt.Sprintf("unknown graph %q", graphName)}
	}
	// Sole-graph shorthand: key the cache under the real name so explicit
	// and shorthand requests share indexes.
	graphName = e.soleGraphName(graphName)
	// L = 0 (zero-hop walks) is degenerate but legal for embedded use; the
	// HTTP codec enforces its stricter L >= 1 contract before reaching here.
	if L < 0 || L > 1<<16-1 {
		return params{}, badRequestf("L=%d outside [0, %d]", L, 1<<16-1)
	}
	if R == 0 {
		R = 100 // the paper's recommended sample size
	}
	if R < 1 || R > e.cfg.MaxR {
		return params{}, badRequestf("R=%d outside [1, %d]", R, e.cfg.MaxR)
	}
	return params{graphName: graphName, g: g, L: L, R: R, seed: seed, epoch: g.Epoch()}, nil
}

// resolveProblem validates the problem knob; zero means Problem 2 (the
// coverage problem), matching the HTTP default.
func resolveProblem(p index.Problem) (index.Problem, error) {
	switch p {
	case 0, index.Problem2:
		return index.Problem2, nil
	case index.Problem1:
		return index.Problem1, nil
	default:
		return 0, badRequestf("unknown problem %d (want 1 or 2)", int(p))
	}
}

// validateSet checks node ids against the graph.
func validateSet(field string, nodes []int, g *graph.Graph) error {
	for _, u := range nodes {
		if u < 0 || u >= g.N() {
			return badRequestf("%s: node %d outside [0, %d)", field, u, g.N())
		}
	}
	return nil
}

// acquireIndex fetches (or builds) the index for p, reporting whether this
// call triggered the build and how long the build (or spill load) took.
// Builds are heavy work: unless ctx already holds an admission slot (a
// build inside an admitted selection), the build waits at the gate and a
// shed surfaces as CodeOverloaded. Cache hits never touch the gate.
func (e *Engine) acquireIndex(ctx context.Context, p params, workers int) (h *index.Handle, built bool, buildTime time.Duration, err error) {
	start := time.Now()
	h, err = e.cache.Acquire(p.cacheKey(), p.g, func() (*index.Index, error) {
		built = true
		if !isAdmitted(ctx) {
			release, err := e.gate.admit(ctx)
			if err != nil {
				return nil, err
			}
			defer release()
		}
		return index.BuildRangeWorkers(p.g, p.L, p.seed, p.r0, p.r0+p.R, workers)
	})
	if built {
		buildTime = time.Since(start)
	}
	return h, built, buildTime, err
}

// acquired is one acquireIndex outcome.
type acquired struct {
	h     *index.Handle
	built bool
	build time.Duration
	err   error
}

// acquireIndexCtx is acquireIndex bounded by ctx. Index construction itself
// cannot be canceled mid-flight, so on ctx death the request gets its
// timeout/cancel error immediately while the build detaches, finishes in
// the background, and still populates the cache for the next request (its
// handle is released there).
func (e *Engine) acquireIndexCtx(ctx context.Context, p params, workers int) (*index.Handle, bool, time.Duration, error) {
	done := make(chan acquired, 1)
	go func() {
		h, built, build, err := e.acquireIndex(ctx, p, workers)
		done <- acquired{h: h, built: built, build: build, err: err}
	}()
	select {
	case a := <-done:
		return a.h, a.built, a.build, a.err
	case <-ctx.Done():
		go func() {
			if a := <-done; a.err == nil {
				a.h.Release()
			}
		}()
		return nil, false, 0, ctx.Err()
	}
}
