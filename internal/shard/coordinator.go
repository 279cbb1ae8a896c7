package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/latency"
)

// Config configures a Coordinator. The request-shape knobs (MaxR, MaxK,
// timeouts) mirror engine.Config and must match the workers' limits: the
// coordinator enforces them against the logical full-range request, which
// its workers — each seeing only a narrower replicate range — cannot.
type Config struct {
	// Graphs maps the logical names requests use to loaded graphs. The
	// coordinator needs them for validation, for the candidate count its
	// greedy driver runs over and for the threshold algorithm's deepening
	// bound; workers must serve the same graphs under the same names.
	Graphs map[string]*graph.Graph
	// DefaultTimeout bounds a request that does not set its own timeout;
	// MaxTimeout caps what a request may ask for. Zero means unbounded.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxR and MaxK cap the logical per-request sample size and budget
	// (defaults 1000 and 10000), mirroring engine.Config.
	MaxR int
	MaxK int
	// Retries is the coordinator-level re-send budget per shard call when a
	// worker answers draining/overloaded (default 2; < 0 disables). The
	// backoff starts at RetryBackoff (default 100ms), doubles per attempt,
	// and is overridden by the worker's Retry-After hint when one is
	// present. Remote workers additionally get the client SDK's own retry
	// layer underneath.
	Retries      int
	RetryBackoff time.Duration
	// ChunkSize, when > 1, aligns the per-worker replicate spans to
	// multiples of the replicate-chunk width (the index's chunked layout):
	// each worker's range starts and ends on a chunk boundary (except the
	// last, which ends at R), so a worker's subrange index is a whole number
	// of chunks and a spilled chunked index never straddles workers. The
	// split stays a partition of [0, R), so merged answers are bit-identical
	// to the unaligned split. 0 or 1 means unaligned (the historical split).
	ChunkSize int
}

// withDefaults resolves the documented zero-value defaults.
func (cfg Config) withDefaults() Config {
	if cfg.MaxR == 0 {
		cfg.MaxR = 1000
	}
	if cfg.MaxK == 0 {
		cfg.MaxK = 10000
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	return cfg
}

// Coordinator fans requests out over a fixed set of worker connections and
// merges their integer partial answers into bit-exact full answers. It
// implements the same public read/select surface as engine.Engine (the
// server's querier contract), so transports swap one in without caring
// which is behind a route. It is safe for concurrent use.
type Coordinator struct {
	cfg   Config
	conns []Conn

	// graphs is the coordinator's live view of the served graphs, seeded from
	// cfg.Graphs and advanced by ApplyDelta. Reads snapshot (graph, epoch)
	// under the RLock and pin that epoch on every scatter, so a mid-request
	// mutation surfaces as a typed retryable stale_epoch from the workers
	// instead of a silently mixed-epoch merge.
	graphsMu sync.RWMutex
	graphs   map[string]*graph.Graph

	merges         atomic.Int64
	degradedMerges atomic.Int64
	retries        atomic.Int64
	mergeLat       latency.Histogram
	perShard       []connStats

	// closed is closed by Close, aborting any retry backoff still sleeping —
	// a coordinator teardown must not strand goroutines in timers whose
	// request context is unbounded.
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// New builds a coordinator over pre-built worker connections. The
// coordinator takes ownership: Close closes every conn.
func New(cfg Config, conns []Conn) (*Coordinator, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one worker connection")
	}
	if len(cfg.Graphs) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one graph")
	}
	graphs := make(map[string]*graph.Graph, len(cfg.Graphs))
	for name, g := range cfg.Graphs {
		graphs[name] = g
	}
	return &Coordinator{
		cfg:      cfg.withDefaults(),
		conns:    conns,
		graphs:   graphs,
		perShard: make([]connStats, len(conns)),
		closed:   make(chan struct{}),
	}, nil
}

// NewLocal builds an in-process coordinator over shards fresh engines, each
// configured from ecfg (sharing cfg.Graphs). Every engine materializes only
// its replicate subrange of each index, so per-engine resident bytes and
// build wall time scale down with the shard count. The engines are owned:
// Close tears them down.
func NewLocal(cfg Config, shards int, ecfg engine.Config) (*Coordinator, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	conns := make([]Conn, 0, shards)
	for i := 0; i < shards; i++ {
		eng, err := engine.New(ecfg)
		if err != nil {
			for _, c := range conns {
				_ = c.Close()
			}
			return nil, err
		}
		conns = append(conns, &localConn{eng: eng, addr: fmt.Sprintf("local/%d", i), owned: true})
	}
	return New(cfg, conns)
}

// NewRemote builds a coordinator over remote worker daemons at the given
// base URLs, one shard per worker.
func NewRemote(cfg Config, urls []string) (*Coordinator, error) {
	conns := make([]Conn, 0, len(urls))
	for _, u := range urls {
		c, err := NewRemoteConn(u)
		if err != nil {
			return nil, err
		}
		conns = append(conns, c)
	}
	return New(cfg, conns)
}

// Shards returns the worker count.
func (co *Coordinator) Shards() int { return len(co.conns) }

// Close closes every worker connection (and, for owned in-process workers,
// their engines).
func (co *Coordinator) Close() error {
	co.closeOnce.Do(func() {
		close(co.closed)
		for _, c := range co.conns {
			if err := c.Close(); err != nil && co.closeErr == nil {
				co.closeErr = err
			}
		}
	})
	return co.closeErr
}

// qparams are the validated logical (full-range) request knobs. epoch is
// the graph's mutation epoch at resolve time, pinned onto every scatter the
// request performs.
type qparams struct {
	graphName string
	g         *graph.Graph
	L, R      int
	seed      uint64
	epoch     uint64
}

// resolveParams mirrors engine.resolveParams: same defaults, same bounds,
// same messages — a request rejected by the unsharded engine is rejected
// identically here, before anything is scattered. The (graph, epoch) pair is
// snapshotted atomically under the graphs RLock, like the engine's.
func (co *Coordinator) resolveParams(graphName string, L, R int, seed uint64) (qparams, error) {
	co.graphsMu.RLock()
	g, ok := co.graphs[graphName]
	if !ok && graphName == "" && len(co.graphs) == 1 {
		for only, sole := range co.graphs {
			graphName, g, ok = only, sole, true
		}
	}
	co.graphsMu.RUnlock()
	if !ok {
		return qparams{}, &engine.Error{Code: engine.CodeNotFound, Message: fmt.Sprintf("unknown graph %q", graphName)}
	}
	if L < 0 || L > 1<<16-1 {
		return qparams{}, badRequestf("L=%d outside [0, %d]", L, 1<<16-1)
	}
	if R == 0 {
		R = 100 // the paper's recommended sample size
	}
	if R < 1 || R > co.cfg.MaxR {
		return qparams{}, badRequestf("R=%d outside [1, %d]", R, co.cfg.MaxR)
	}
	return qparams{graphName: graphName, g: g, L: L, R: R, seed: seed, epoch: g.Epoch()}, nil
}

// resolveProblem mirrors engine's: zero means Problem 2.
func resolveProblem(p engine.Problem) (index.Problem, error) {
	switch p {
	case 0, index.Problem2:
		return index.Problem2, nil
	case index.Problem1:
		return index.Problem1, nil
	default:
		return 0, badRequestf("unknown problem %d (want 1 or 2)", int(p))
	}
}

// validateSet mirrors engine's node-id check.
func validateSet(field string, nodes []int, g *graph.Graph) error {
	for _, u := range nodes {
		if u < 0 || u >= g.N() {
			return badRequestf("%s: node %d outside [0, %d)", field, u, g.N())
		}
	}
	return nil
}

func badRequestf(format string, args ...any) *engine.Error {
	return &engine.Error{Code: engine.CodeBadRequest, Message: fmt.Sprintf(format, args...)}
}

// Context derives the wait context for one request, clamped by the
// default/max timeout knobs — the coordinator's analogue of
// engine.Context (there is no engine lifecycle here; Close only tears down
// conns).
func (co *Coordinator) Context(parent context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		timeout = co.cfg.DefaultTimeout
	}
	if co.cfg.MaxTimeout > 0 && timeout > co.cfg.MaxTimeout {
		timeout = co.cfg.MaxTimeout
	}
	if timeout > 0 {
		return context.WithTimeout(parent, timeout)
	}
	return context.WithCancel(parent)
}

// span is one worker's slice of the logical replicate range.
type span struct {
	shard  int // index into co.conns
	r0, r1 int // absolute replicate range [r0, r1)
}

// split partitions [0, R) into per-worker spans: worker s gets
// [s·R/N, (s+1)·R/N), the balanced split whose widths differ by at most
// one. Workers whose slice is empty (R < N) are skipped entirely — they
// receive no requests and contribute an implicit zero to every merge.
//
// With cfg.ChunkSize > 1 the same balancing runs in chunk units: the R
// replicates form ceil(R/ChunkSize) chunks, worker s gets chunks
// [s·C/N, (s+1)·C/N), and the final chunk (possibly ragged) ends at R. Every
// boundary lands on a chunk multiple, widths differ by at most one chunk,
// and the spans still partition [0, R) exactly, so merges are unchanged.
func (co *Coordinator) split(R int) []span {
	n := len(co.conns)
	spans := make([]span, 0, n)
	if c := co.cfg.ChunkSize; c > 1 {
		chunks := (R + c - 1) / c
		for s := 0; s < n; s++ {
			lo, hi := (s*chunks/n)*c, (s+1)*chunks/n*c
			if hi > R {
				hi = R
			}
			if hi > lo {
				spans = append(spans, span{shard: s, r0: lo, r1: hi})
			}
		}
		return spans
	}
	for s := 0; s < n; s++ {
		lo, hi := s*R/n, (s+1)*R/n
		if hi > lo {
			spans = append(spans, span{shard: s, r0: lo, r1: hi})
		}
	}
	return spans
}

// callGain is one shard call with the coordinator's retry layer: temporary
// (draining/overloaded/stale_epoch) failures are re-sent up to cfg.Retries
// times with doubling backoff, the worker's Retry-After hint overriding the
// computed wait. Everything else — including bad_request, timeout, and
// transport death — surfaces immediately.
func (co *Coordinator) callGain(ctx context.Context, sp span, req engine.PartialGainRequest) (*engine.PartialGainResult, error) {
	var res *engine.PartialGainResult
	err := co.withRetry(ctx, sp.shard, func() error {
		var err error
		res, err = co.conns[sp.shard].PartialGain(ctx, req)
		return err
	})
	return res, err
}

func (co *Coordinator) callTopGains(ctx context.Context, sp span, req engine.PartialTopGainsRequest) (*engine.PartialTopGainsResult, error) {
	var res *engine.PartialTopGainsResult
	err := co.withRetry(ctx, sp.shard, func() error {
		var err error
		res, err = co.conns[sp.shard].PartialTopGains(ctx, req)
		return err
	})
	return res, err
}

func (co *Coordinator) withRetry(ctx context.Context, shard int, call func() error) error {
	backoff := co.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		co.perShard[shard].requests.Add(1)
		err := call()
		if err == nil {
			return nil
		}
		code := engine.CodeOf(err)
		retryable := code == engine.CodeDraining || code == engine.CodeOverloaded || code == engine.CodeStaleEpoch
		if attempt >= co.cfg.Retries || !retryable {
			co.perShard[shard].errors.Add(1)
			return err
		}
		co.perShard[shard].retries.Add(1)
		co.retries.Add(1)
		wait := backoff
		if ra := engine.RetryAfterOf(err); ra > 0 {
			wait = ra
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			co.perShard[shard].errors.Add(1)
			return wrapCtx(ctx.Err())
		case <-co.closed:
			// Coordinator teardown: abort the backoff instead of sleeping out
			// a wait the dying coordinator will never use. Classified as
			// draining — the process is going away, exactly like a drain.
			t.Stop()
			co.perShard[shard].errors.Add(1)
			return &engine.Error{Code: engine.CodeDraining, Message: "shard: coordinator closed during retry backoff"}
		case <-t.C:
		}
		backoff *= 2
	}
}

// wrapCtx classifies a context error the way engine.wrapCompute does.
func wrapCtx(err error) error {
	if err == context.DeadlineExceeded {
		return &engine.Error{Code: engine.CodeTimeout, Message: err.Error()}
	}
	return &engine.Error{Code: engine.CodeDraining, Message: err.Error()}
}

// gatherErr picks a scatter's root-cause error. The failing shard's cancel
// ripples into the other shards as context.Canceled, which classifies as
// draining — so a non-draining error among the results is the failure that
// actually fired first and must win, or the caller would see retryable
// collateral instead of the real fault (e.g. internal from a dead worker).
func gatherErr(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if engine.CodeOf(err) != engine.CodeDraining {
			return err
		}
	}
	return first
}

// scatterGain fans base out to every span (overriding R0/R1 per span) and
// gathers the results, index-aligned with spans. The first failure cancels
// the stragglers and wins; a merged answer exists only when every shard
// answered.
func (co *Coordinator) scatterGain(ctx context.Context, base engine.PartialGainRequest, spans []span) ([]*engine.PartialGainResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*engine.PartialGainResult, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for i, sp := range spans {
		wg.Add(1)
		go func(i int, sp span) {
			defer wg.Done()
			req := base
			req.R0, req.R1 = sp.r0, sp.r1
			results[i], errs[i] = co.callGain(ctx, sp, req)
			if errs[i] != nil {
				cancel()
			}
		}(i, sp)
	}
	wg.Wait()
	if err := gatherErr(errs); err != nil {
		return nil, err
	}
	return results, nil
}

// scatterTopGains is scatterGain for the per-shard top-B sweep.
func (co *Coordinator) scatterTopGains(ctx context.Context, base engine.PartialTopGainsRequest, spans []span) ([]*engine.PartialTopGainsResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*engine.PartialTopGainsResult, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for i, sp := range spans {
		wg.Add(1)
		go func(i int, sp span) {
			defer wg.Done()
			req := base
			req.R0, req.R1 = sp.r0, sp.r1
			results[i], errs[i] = co.callTopGains(ctx, sp, req)
			if errs[i] != nil {
				cancel()
			}
		}(i, sp)
	}
	wg.Wait()
	if err := gatherErr(errs); err != nil {
		return nil, err
	}
	return results, nil
}

// mergeMeta folds per-shard answer metadata into the merged reply's: the
// merge is cached/memoized only as much as its weakest shard, and degraded
// if any shard answered from frozen state (the values are still exact).
type mergeMeta struct {
	indexCached bool
	memo        string
	degraded    bool
}

func newMergeMeta() mergeMeta {
	return mergeMeta{indexCached: true, memo: engine.MemoHit}
}

// memoRank orders memo statuses from cheapest to costliest answer path.
var memoRank = map[string]int{
	engine.MemoHit:      0,
	engine.MemoEmpty:    1,
	engine.MemoExtended: 2,
	engine.MemoMiss:     3,
	engine.MemoOff:      4,
}

func (m *mergeMeta) fold(indexCached bool, memo string, degraded bool) {
	m.indexCached = m.indexCached && indexCached
	if memoRank[memo] > memoRank[m.memo] {
		m.memo = memo
	}
	m.degraded = m.degraded || degraded
}

// noteMerge records one completed scatter-gather merge.
func (co *Coordinator) noteMerge(start time.Time, m mergeMeta) {
	co.merges.Add(1)
	if m.degraded {
		co.degradedMerges.Add(1)
	}
	co.mergeLat.Observe(time.Since(start))
}
