// Package server is rwdomd's HTTP codec over the transport-agnostic query
// engine (internal/engine): every handler decodes its request, calls the
// corresponding Engine method, and encodes the reply. The serving brain —
// the refcounted LRU index cache, the memoized gain read path, selection
// coalescing, context plumbing — lives entirely in the engine, so this
// package owns only what is HTTP: routing, request parsing, the JSON error
// envelope, per-endpoint metrics, draining, and graceful shutdown. Request
// and reply bodies are the repro/client package's types, encoded and
// decoded directly, so the SDK and the daemon share one wire schema.
//
// Endpoints (all JSON):
//
//	POST /v1/select     top-k seed selection (Problem 1 or 2; plain or lazy
//	                    greedy, sharded over per-request workers); with
//	                    ?stream=1 the reply is NDJSON round events — one
//	                    line per greedy pick as it is decided, then a final
//	                    line carrying the blocking-shape result
//	GET  /v1/gain       marginal gain of candidate nodes against a seed set
//	GET  /v1/objective  estimated objective value of a seed set
//	GET  /v1/topgains   top-B candidates by marginal gain against a seed set
//	POST /v1/graph/{name}/edges
//	                    mutate graph {name}: append nodes, add and remove
//	                    edges in one atomic delta; bumps the graph's
//	                    mutation epoch and repairs resident walk indexes
//	                    incrementally (in sharded mode the delta is
//	                    broadcast to every worker)
//	GET  /healthz       liveness (503 while draining)
//	GET  /stats         index/memo cache traffic, in-flight gauge,
//	                    per-endpoint latency histograms
//
// Errors share one machine-readable envelope on every path:
//
//	{"error":{"code":"bad_request","message":"k=0 outside [1, 10000]"}}
//
// with stable codes bad_request, not_found, conflict, stale_epoch,
// draining, overloaded, timeout and internal (engine.Code), always under
// Content-Type: application/json.
// The client package decodes the same envelope into typed errors, and
// retries draining and overloaded replies with jittered backoff.
//
// Overload is shed, not queued unboundedly: the engine's admission gate
// (Config.MaxConcurrent / MaxQueue) bounds concurrent heavy work, and a
// request that finds both the slots and the wait queue full — or whose
// deadline expires while queued — is rejected with 503 overloaded and a
// Retry-After header before any compute is spent. While the index for a
// read is unavailable (its build shed or failed), gain/objective/topgains
// still answer from an already-memoized frozen table, marked
// "degraded": true in the reply; /stats counts sheds, queue depth/waits
// and degraded answers.
//
// Shutdown is graceful: Serve stops accepting connections, lets in-flight
// queries finish within the drain budget, hard-cancels stragglers through
// the engine's lifecycle context, and spills resident indexes to disk so a
// restart starts warm.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/shard"
)

// Config configures a Server. Graphs is required; zero values elsewhere get
// the documented defaults. Most knobs pass straight through to
// engine.Config — the server adds only the HTTP-level drain budget.
type Config struct {
	// Graphs maps the logical names requests use to loaded graphs.
	Graphs map[string]*graph.Graph
	// CacheSize bounds the number of resident indexes (default 8; < 0 means
	// unbounded). IndexBytes additionally bounds their summed heap footprint
	// (0 means unbounded); the budget is soft while every resident index is
	// pinned by an in-flight request — nothing is ever freed in use.
	CacheSize  int
	IndexBytes int64
	// SpillDir, when non-empty, persists evicted and shutdown-resident
	// indexes so later misses and restarts skip the build.
	SpillDir string
	// SpillFormat selects what spill saves write: "v8" (compressed store
	// container, the default) or "v8raw" (raw sections). A v8 load decodes
	// compressed chunks once onto the heap; MmapSpills instead serves v8
	// spill loads store-backed off a read-only memory mapping, decoding
	// compressed chunks on read. See engine.Config.
	SpillFormat string
	MmapSpills  bool
	// DefaultTimeout bounds a request that doesn't set timeout_ms (default
	// 30s). MaxTimeout caps what a request may ask for (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight queries get this long
	// to finish before their contexts are hard-canceled (default 15s).
	DrainTimeout time.Duration
	// EvictInterval enables background eviction of indexes not used for one
	// full interval (0 disables it).
	EvictInterval time.Duration
	// DefaultWorkers is the per-request worker default; MaxWorkers caps the
	// request knob. Both default to runtime.GOMAXPROCS(0).
	DefaultWorkers int
	MaxWorkers     int
	// MaxR and MaxK cap per-request sample size and budget as a defense
	// against accidental resource exhaustion (defaults 1000 and 10000).
	MaxR int
	MaxK int
	// MemoSize bounds the number of memoized D-tables the gain read path
	// keeps resident (default 128; < 0 means unbounded); MemoBytes
	// additionally bounds their summed heap footprint (0 means unbounded,
	// soft while tables are pinned). DisableMemo turns the memoized read
	// path off entirely, so every /v1/gain, /v1/objective and /v1/topgains
	// request materializes a fresh table — the pre-memo behavior, kept for
	// parity testing and A/B benchmarking.
	MemoSize    int
	MemoBytes   int64
	DisableMemo bool
	// MaxConcurrent bounds concurrent heavy computations (selections and
	// index builds); MaxQueue bounds how many more may wait for a slot.
	// Requests beyond both are shed immediately with HTTP 503 and code
	// "overloaded". Defaults and semantics follow engine.Config: 0 means
	// 2×GOMAXPROCS slots with an 8×slots queue; MaxConcurrent < 0 disables
	// admission control. RetryAfterHint is the Retry-After value attached to
	// shed responses (default 1s).
	MaxConcurrent  int
	MaxQueue       int
	RetryAfterHint time.Duration
	// Shards > 1 enables in-process replicate-sharded serving: the public
	// select/read routes are answered by a coordinator over Shards engines,
	// each materializing only its replicate subrange of every index, merged
	// bit-identically to unsharded serving. Peers instead lists remote
	// worker daemon base URLs, one shard per worker (the workers serve the
	// same graphs and answer this daemon's /v1/partial scatter requests).
	// At most one of the two may be set. Either way this daemon keeps its
	// own full engine for the worker-side /v1/partial endpoints, so
	// coordinators and workers can be layered.
	Shards int
	Peers  []string
	// DefaultEpsilon > 0 turns the adaptive replicate budget on for every
	// select whose body does not set its own epsilon (see
	// engine.Config.DefaultEpsilon); DefaultDelta is the matching confidence
	// default (0.05 when unset). Accuracy requires the full replicate range
	// in one process, so a sharded deployment (Shards/Peers) rejects a
	// non-zero DefaultEpsilon at startup — and per-request epsilons with a
	// 501. AccuracyChunk overrides the replicate-chunk width adaptive runs
	// build per step (0 = ceil(R/8)); in sharded mode it instead aligns the
	// per-worker replicate spans to chunk multiples.
	DefaultEpsilon float64
	DefaultDelta   float64
	AccuracyChunk  int
}

func (c Config) withDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	// Mirror the engine's request-cap defaults so codec-level validation
	// messages quote the limits actually enforced.
	if c.MaxR <= 0 {
		c.MaxR = 1000
	}
	if c.MaxK <= 0 {
		c.MaxK = 10000
	}
	return c
}

// engineConfig maps the server config onto the engine's.
func (c Config) engineConfig() engine.Config {
	return engine.Config{
		Graphs:         c.Graphs,
		CacheSize:      c.CacheSize,
		IndexBytes:     c.IndexBytes,
		SpillDir:       c.SpillDir,
		SpillFormat:    c.SpillFormat,
		MmapSpills:     c.MmapSpills,
		EvictInterval:  c.EvictInterval,
		DefaultTimeout: c.DefaultTimeout,
		MaxTimeout:     c.MaxTimeout,
		DefaultWorkers: c.DefaultWorkers,
		MaxWorkers:     c.MaxWorkers,
		MaxR:           c.MaxR,
		MaxK:           c.MaxK,
		MemoSize:       c.MemoSize,
		MemoBytes:      c.MemoBytes,
		DisableMemo:    c.DisableMemo,
		MaxConcurrent:  c.MaxConcurrent,
		MaxQueue:       c.MaxQueue,
		RetryAfterHint: c.RetryAfterHint,
		DefaultEpsilon: c.DefaultEpsilon,
		DefaultDelta:   c.DefaultDelta,
		AccuracyChunk:  c.AccuracyChunk,
	}
}

// querier is the read/select surface the public routes dispatch through:
// the engine directly in unsharded mode, the scatter-gather coordinator in
// sharded mode. Both produce bit-identical answers; handlers cannot tell
// them apart.
type querier interface {
	Select(context.Context, engine.SelectRequest) (*engine.SelectResult, error)
	SelectStream(context.Context, engine.SelectRequest, func(engine.Round) error) (*engine.SelectResult, error)
	Gain(context.Context, engine.GainRequest) (*engine.GainResult, error)
	Objective(context.Context, engine.ObjectiveRequest) (*engine.ObjectiveResult, error)
	TopGains(context.Context, engine.TopGainsRequest) (*engine.TopGainsResult, error)
}

// Server serves selection queries over a fixed set of graphs. Create with
// New, expose via Handler or Serve, release resources with Close.
type Server struct {
	cfg    Config
	engine *engine.Engine
	// coord is non-nil in sharded mode; q is where the public select/read
	// routes go (coord when sharded, engine otherwise). The engine always
	// serves the worker-side /v1/partial endpoints and /stats.
	coord *shard.Coordinator
	q     querier

	start    time.Time
	inFlight atomic.Int64
	draining atomic.Bool

	// mutateMu serializes graph mutations across the server's appliers (its
	// own engine — which always serves /v1/partial — and, in sharded mode,
	// the coordinator's workers), so every applier observes deltas in the
	// same order. Deltas do not commute in general; without this a pair of
	// concurrent POSTs could reach the engine and the workers in opposite
	// orders and diverge at the same epoch.
	mutateMu sync.Mutex

	mux       *http.ServeMux
	endpoints map[string]*endpointMetrics
	closeOnce sync.Once
	closeErr  error
}

// New validates cfg and returns a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	if len(cfg.Graphs) == 0 {
		return nil, errors.New("server: no graphs configured")
	}
	for name, g := range cfg.Graphs {
		if g == nil || g.N() == 0 {
			return nil, fmt.Errorf("server: graph %q is empty", name)
		}
	}
	if cfg.Shards > 1 && len(cfg.Peers) > 0 {
		return nil, errors.New("server: Shards and Peers are mutually exclusive")
	}
	if cfg.DefaultEpsilon > 0 && (cfg.Shards > 1 || len(cfg.Peers) > 0) {
		return nil, errors.New("server: a default accuracy target (epsilon) is not supported on sharded deployments")
	}
	cfg = cfg.withDefaults()
	eng, err := engine.New(cfg.engineConfig())
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		engine:    eng,
		start:     time.Now(),
		endpoints: make(map[string]*endpointMetrics),
	}
	s.q = eng
	shardCfg := shard.Config{
		Graphs:         cfg.Graphs,
		DefaultTimeout: cfg.DefaultTimeout,
		MaxTimeout:     cfg.MaxTimeout,
		MaxR:           cfg.MaxR,
		MaxK:           cfg.MaxK,
		ChunkSize:      cfg.AccuracyChunk,
	}
	switch {
	case cfg.Shards > 1:
		co, err := shard.NewLocal(shardCfg, cfg.Shards, cfg.engineConfig())
		if err != nil {
			eng.Close()
			return nil, err
		}
		s.coord, s.q = co, co
	case len(cfg.Peers) > 0:
		co, err := shard.NewRemote(shardCfg, cfg.Peers)
		if err != nil {
			eng.Close()
			return nil, err
		}
		s.coord, s.q = co, co
	}
	s.mux = http.NewServeMux()
	s.route("POST /v1/select", "select", s.handleSelect)
	s.route("GET /v1/gain", "gain", s.handleGain)
	s.route("GET /v1/objective", "objective", s.handleObjective)
	s.route("GET /v1/topgains", "topgains", s.handleTopGains)
	s.route("POST /v1/graph/{name}/edges", "mutate", s.handleApplyDelta)
	s.route("GET /v1/partial/gain", "partial_gain", s.handlePartialGain)
	s.route("GET /v1/partial/topgains", "partial_topgains", s.handlePartialTopGains)
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /stats", "stats", s.handleStats)
	return s, nil
}

// Coordinator exposes the scatter-gather coordinator (nil in unsharded
// mode), for stats and tests.
func (s *Server) Coordinator() *shard.Coordinator { return s.coord }

// Handler returns the root handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Engine exposes the underlying query engine (for stats and tests).
func (s *Server) Engine() *engine.Engine { return s.engine }

// Cache exposes the index cache (for stats and tests).
func (s *Server) Cache() *index.Cache { return s.engine.Cache() }

// MemoStats snapshots the memoized-gain cache counters; the zero value when
// memoization is disabled.
func (s *Server) MemoStats() MemoStats { return s.engine.MemoStats() }

// MemoStats re-exports the engine's memo counters for transports and tests
// that predate the engine extraction.
type MemoStats = engine.MemoStats

// route registers an instrumented handler: in-flight gauge, latency
// histogram, error counting, panic containment, and drain refusal.
func (s *Server) route(pattern, name string, h func(http.ResponseWriter, *http.Request)) {
	m := &endpointMetrics{}
	s.endpoints[name] = m
	alwaysOn := name == "healthz" || name == "stats"
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if !alwaysOn && s.draining.Load() {
			// Hint a short back-off: by the time a client retries, either the
			// replacement process is up or the connection is refused outright.
			w.Header().Set("Retry-After", "1")
			writeErrorCode(w, engine.CodeDraining, "server is draining")
			return
		}
		s.inFlight.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				writeErrorCode(sw, engine.CodeInternal, fmt.Sprintf("panic: %v", p))
				if sw.status < 400 {
					// The handler wrote a success status before panicking, so
					// the status check below won't see the failure; count it
					// here (and only here, so panics aren't double-counted).
					m.errors.Add(1)
				}
			}
			m.requests.Add(1)
			if sw.status >= 400 {
				m.errors.Add(1)
			}
			m.lat.Observe(time.Since(start))
			s.inFlight.Add(-1)
		}()
		h(sw, r)
	})
}

// statusWriter records the response status for error accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards streaming flushes so NDJSON rounds leave the process as
// they are decided rather than sitting in the response buffer.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Serve accepts connections on ln until ctx is canceled, then shuts down
// gracefully: new requests are refused, in-flight requests get
// cfg.DrainTimeout to finish, stragglers are hard-canceled through the
// engine lifecycle their computation contexts descend from, and the index
// cache is spilled to disk. It returns nil after a clean (possibly forced)
// shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	err := srv.Shutdown(drainCtx)
	cancel()
	if err != nil {
		// Drain budget exhausted: abort remaining computations and give the
		// handlers a short moment to observe cancellation and respond.
		s.engine.Abort()
		forceCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = srv.Shutdown(forceCtx)
		cancel()
		_ = srv.Close()
	}
	<-errc // Serve has returned http.ErrServerClosed
	if cerr := s.Close(); cerr != nil {
		return cerr
	}
	return nil
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close releases server resources by closing the engine (outstanding
// computations are aborted, the background evictor stops, and resident
// indexes spill to the spill directory) and, in sharded mode, the
// coordinator with its worker connections. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.engine.Close()
		if s.coord != nil {
			if err := s.coord.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}
