package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/index"
)

// ---------------------------------------------------------------------------
// JSON plumbing: one error envelope for every path
// ---------------------------------------------------------------------------

// ErrorBody is the machine-readable error payload: a stable code
// (engine.Code) plus a human-readable message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the JSON error envelope every endpoint shares:
// {"error":{"code":"...","message":"..."}}. The client package decodes the
// same shape into typed errors.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// Memo status constants re-exported for the parity tests and handlers.
const (
	memoHit      = engine.MemoHit
	memoMiss     = engine.MemoMiss
	memoExtended = engine.MemoExtended
	memoEmpty    = engine.MemoEmpty
	memoOff      = engine.MemoOff
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeErrorCode writes the envelope for an explicit code.
func writeErrorCode(w http.ResponseWriter, code engine.Code, message string) {
	writeJSON(w, engine.HTTPStatus(code), ErrorResponse{Error: ErrorBody{Code: string(code), Message: message}})
}

// writeEngineError maps any engine method error onto the envelope: the
// engine's stable code picks both the HTTP status and the serialized code.
// Shed (overloaded) errors carry a backoff hint, serialized as a standard
// Retry-After header (integer seconds, rounded up) for clients and proxies.
func writeEngineError(w http.ResponseWriter, err error) {
	if ra := engine.RetryAfterOf(err); ra > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(int64((ra+time.Second-1)/time.Second), 10))
	}
	writeErrorCode(w, engine.CodeOf(err), err.Error())
}

// writeBadRequest writes a bad_request envelope for codec-level decode
// failures.
func writeBadRequest(w http.ResponseWriter, err error) {
	writeErrorCode(w, engine.CodeBadRequest, err.Error())
}

// parseProblem accepts 1/2, f1/f2, hitting/coverage (case-insensitive).
func parseProblem(s string) (index.Problem, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "1", "f1", "hitting":
		return index.Problem1, nil
	case "", "2", "f2", "coverage":
		return index.Problem2, nil
	default:
		return 0, fmt.Errorf("unknown problem %q (want 1/hitting or 2/coverage)", s)
	}
}

// problemJSON lets /v1/select bodies write "problem": 2 or "problem":
// "coverage" interchangeably.
type problemJSON struct{ p index.Problem }

func (p *problemJSON) UnmarshalJSON(b []byte) error {
	var asString string
	if err := json.Unmarshal(b, &asString); err != nil {
		var asInt int
		if err := json.Unmarshal(b, &asInt); err != nil {
			return fmt.Errorf("problem must be a number or string, got %s", b)
		}
		asString = strconv.Itoa(asInt)
	}
	parsed, err := parseProblem(asString)
	if err != nil {
		return err
	}
	p.p = parsed
	return nil
}

func (p problemJSON) problem() index.Problem {
	if p.p == 0 {
		return index.Problem2
	}
	return p.p
}

// parseNodeList parses "1,5,9" into node ids (range-validated by the
// engine).
func parseNodeList(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	nodes := make([]int, 0, len(parts))
	for _, part := range parts {
		u, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad node id %q", part)
		}
		nodes = append(nodes, u)
	}
	return nodes, nil
}

func durationMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// ---------------------------------------------------------------------------
// POST /v1/select
// ---------------------------------------------------------------------------

// SelectRequest is the /v1/select body.
type SelectRequest struct {
	// Graph names one of the graphs the daemon was started with.
	Graph string `json:"graph"`
	// Problem is 1/"hitting" or 2/"coverage" (default 2).
	Problem problemJSON `json:"problem"`
	// K is the selection budget.
	K int `json:"k"`
	// L is the walk-length bound; R the per-node sample size (default 100).
	L int `json:"L"`
	R int `json:"R"`
	// Seed fixes the walk sampling (default 1); part of the index identity.
	Seed *uint64 `json:"seed"`
	// Algorithm picks the greedy driver: "lazy" (CELF, the default) or
	// "plain". Both shard gain evaluations over Workers goroutines.
	Algorithm string `json:"algorithm"`
	// Workers shards index construction and gain evaluation (0 = server
	// default; capped at the server max). Selections are identical for
	// every value.
	Workers int `json:"workers"`
	// TimeoutMS bounds the request (0 = server default). A request whose
	// budget expires during an index build gets its 504 immediately while
	// the build detaches and still warms the cache; an expired selection
	// loop is canceled outright.
	TimeoutMS int `json:"timeout_ms"`
	// Epsilon > 0 enables the adaptive replicate budget: R becomes a cap and
	// each round stops sampling once the leader's separation interval beats
	// epsilon at confidence delta (default 0.05, or the daemon's -delta).
	// Zero inherits the daemon default (-epsilon, off unless set). Rejected
	// with 501 "unsupported" on sharded deployments.
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

// AccuracyJSON is the adaptive-budget evidence block of a select reply,
// present only when the run had an epsilon target.
type AccuracyJSON struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	// CIWidth is the largest per-round separation half-width among the
	// committed rounds; CIWidth <= epsilon certifies every round met the
	// target. ReplicatesUsed is the final materialized replicate width (<= R),
	// ChunksBuilt the index chunks materialized, EarlyStopped whether the run
	// finished below the R cap.
	CIWidth        float64 `json:"ci_width"`
	ReplicatesUsed int     `json:"replicates_used"`
	ChunksBuilt    int     `json:"chunks_built"`
	EarlyStopped   bool    `json:"early_stopped"`
}

// SelectResponse is the /v1/select reply.
type SelectResponse struct {
	Graph       string    `json:"graph"`
	Problem     string    `json:"problem"`
	K           int       `json:"k"`
	L           int       `json:"L"`
	R           int       `json:"R"`
	Seed        uint64    `json:"seed"`
	Algorithm   string    `json:"algorithm"`
	Workers     int       `json:"workers"`
	Nodes       []int     `json:"nodes"`
	Gains       []float64 `json:"gains"`
	Objective   float64   `json:"objective"`
	Evaluations int       `json:"evaluations"`
	BuildMS     float64   `json:"build_ms"`
	SelectMS    float64   `json:"select_ms"`
	// IndexCached reports that the walk index was already materialized (or
	// loaded from spill) rather than built for this request; Coalesced that
	// the whole selection was shared with an identical concurrent request.
	IndexCached bool `json:"index_cached"`
	Coalesced   bool `json:"coalesced"`
	// Accuracy carries the adaptive-budget evidence; omitted on fixed-R runs.
	Accuracy *AccuracyJSON `json:"accuracy,omitempty"`
}

// decodeSelect parses and translates the body into the engine request
// (the daemon's seed default of 1 is applied into ereq.Seed).
func decodeSelect(r *http.Request, w http.ResponseWriter) (req SelectRequest, ereq engine.SelectRequest, err error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, ereq, fmt.Errorf("bad request body: %w", err)
	}
	seed := uint64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}
	strategy := engine.Lazy
	switch strings.ToLower(req.Algorithm) {
	case "", "lazy":
	case "plain":
		strategy = engine.Plain
	default:
		return req, ereq, fmt.Errorf("unknown algorithm %q (want lazy or plain)", req.Algorithm)
	}
	ereq = engine.SelectRequest{
		Graph:    req.Graph,
		Problem:  req.Problem.problem(),
		K:        req.K,
		L:        req.L,
		R:        req.R,
		Seed:     seed,
		Strategy: strategy,
		Workers:  req.Workers,
		Timeout:  time.Duration(req.TimeoutMS) * time.Millisecond,
		Epsilon:  req.Epsilon,
		Delta:    req.Delta,
	}
	return req, ereq, nil
}

// encodeSelect builds the wire reply from the engine result.
func encodeSelect(req SelectRequest, ereq engine.SelectRequest, res *engine.SelectResult) SelectResponse {
	var acc *AccuracyJSON
	if res.Epsilon > 0 {
		acc = &AccuracyJSON{
			Epsilon:        res.Epsilon,
			Delta:          res.Delta,
			CIWidth:        res.CIWidth,
			ReplicatesUsed: res.ReplicatesUsed,
			ChunksBuilt:    res.ChunksBuilt,
			EarlyStopped:   res.EarlyStopped,
		}
	}
	return SelectResponse{
		Accuracy:    acc,
		Graph:       req.Graph,
		Problem:     ereq.Problem.String(),
		K:           req.K,
		L:           res.L,
		R:           res.R,
		Seed:        ereq.Seed,
		Algorithm:   ereq.Strategy.String(),
		Workers:     res.Workers,
		Nodes:       res.Nodes,
		Gains:       res.Gains,
		Objective:   res.Objective(),
		Evaluations: res.Evaluations,
		BuildMS:     durationMS(res.TableBuild),
		SelectMS:    durationMS(res.Select),
		IndexCached: res.IndexCached,
		Coalesced:   res.Coalesced,
	}
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	req, ereq, err := decodeSelect(r, w)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	// The HTTP contract is stricter than the engine's (which allows the
	// degenerate k = 0 and L = 0 for embedded use): both must be >= 1 here.
	if req.K < 1 || req.K > s.cfg.MaxK {
		writeBadRequest(w, fmt.Errorf("k=%d outside [1, %d]", req.K, s.cfg.MaxK))
		return
	}
	if req.L < 1 {
		writeBadRequest(w, fmt.Errorf("L=%d outside [1, %d]", req.L, 1<<16-1))
		return
	}
	if streaming(r) {
		s.handleSelectStream(w, r, req, ereq)
		return
	}
	res, err := s.q.Select(r.Context(), ereq)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, encodeSelect(req, ereq, res))
}

// ---------------------------------------------------------------------------
// GET /v1/gain
// ---------------------------------------------------------------------------

// GainResponse is the /v1/gain reply: Gains[i] is the marginal gain of
// adding Nodes[i] to the current set.
//
// Cost note: the read path is memoized, so the n·R D-table for a seed set
// is materialized at most once (reusing the longest cached prefix of the
// set when one is resident) and every later request for the same set is a
// pure read of the frozen table; empty-set requests are answered from the
// index's memoized empty-set gain vector with no D-table work at all. Memo
// reports which of those paths served this request (see the engine.Memo*
// constants); "off" means the daemon runs with memoization disabled and
// paid a fresh table replay.
type GainResponse struct {
	Graph       string    `json:"graph"`
	Problem     string    `json:"problem"`
	Set         []int     `json:"set"`
	Nodes       []int     `json:"nodes"`
	Gains       []float64 `json:"gains"`
	IndexCached bool      `json:"index_cached"`
	Memo        string    `json:"memo"`
	// Degraded marks an answer served from an already-memoized table while
	// the walk index itself was unavailable (build shed by admission control
	// or failed); the values are exact, but a cold set would have errored.
	Degraded bool `json:"degraded,omitempty"`
}

// queryParams parses the common graph/L/R/seed/problem/set query parameters
// of the GET endpoints.
type queryParams struct {
	graph   string
	problem index.Problem
	L, R    int
	seed    uint64
	set     []int
}

func parseQueryParams(r *http.Request) (queryParams, error) {
	q := r.URL.Query()
	p, err := parseProblem(q.Get("problem"))
	if err != nil {
		return queryParams{}, err
	}
	atoi := func(key string, def int) (int, error) {
		v := q.Get(key)
		if v == "" {
			return def, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("bad %s=%q", key, v)
		}
		return n, nil
	}
	L, err := atoi("L", 0)
	if err != nil {
		return queryParams{}, err
	}
	R, err := atoi("R", 0)
	if err != nil {
		return queryParams{}, err
	}
	seed := uint64(1)
	if v := q.Get("seed"); v != "" {
		seed, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			return queryParams{}, fmt.Errorf("bad seed=%q", v)
		}
	}
	set, err := parseNodeList(q.Get("set"))
	if err != nil {
		return queryParams{}, err
	}
	// Stricter than the engine: the HTTP contract requires L >= 1.
	if L < 1 {
		return queryParams{}, fmt.Errorf("L=%d outside [1, %d]", L, 1<<16-1)
	}
	return queryParams{graph: q.Get("graph"), problem: p, L: L, R: R, seed: seed, set: set}, nil
}

func (s *Server) handleGain(w http.ResponseWriter, r *http.Request) {
	qp, err := parseQueryParams(r)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	nodes, err := parseNodeList(r.URL.Query().Get("nodes"))
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	res, err := s.q.Gain(r.Context(), engine.GainRequest{
		Graph:   qp.graph,
		Problem: qp.problem,
		L:       qp.L,
		R:       qp.R,
		Seed:    qp.seed,
		Set:     qp.set,
		Nodes:   nodes,
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, GainResponse{
		Graph:       qp.graph,
		Problem:     qp.problem.String(),
		Set:         qp.set,
		Nodes:       nodes,
		Gains:       res.Gains,
		IndexCached: res.IndexCached,
		Memo:        res.Memo,
		Degraded:    res.Degraded,
	})
}

// ---------------------------------------------------------------------------
// GET /v1/objective
// ---------------------------------------------------------------------------

// ObjectiveResponse is the /v1/objective reply.
type ObjectiveResponse struct {
	Graph       string  `json:"graph"`
	Problem     string  `json:"problem"`
	Set         []int   `json:"set"`
	Objective   float64 `json:"objective"`
	IndexCached bool    `json:"index_cached"`
	Memo        string  `json:"memo"`
	Degraded    bool    `json:"degraded,omitempty"`
}

func (s *Server) handleObjective(w http.ResponseWriter, r *http.Request) {
	qp, err := parseQueryParams(r)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	res, err := s.q.Objective(r.Context(), engine.ObjectiveRequest{
		Graph:   qp.graph,
		Problem: qp.problem,
		L:       qp.L,
		R:       qp.R,
		Seed:    qp.seed,
		Set:     qp.set,
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ObjectiveResponse{
		Graph:       qp.graph,
		Problem:     qp.problem.String(),
		Set:         qp.set,
		Objective:   res.Objective,
		IndexCached: res.IndexCached,
		Memo:        res.Memo,
		Degraded:    res.Degraded,
	})
}

// ---------------------------------------------------------------------------
// GET /v1/topgains
// ---------------------------------------------------------------------------

// TopGainsResponse is the /v1/topgains reply: the B best candidates by
// marginal gain against the given seed set (set members excluded), gain
// descending with ties broken by ascending node id.
type TopGainsResponse struct {
	Graph       string    `json:"graph"`
	Problem     string    `json:"problem"`
	Set         []int     `json:"set"`
	B           int       `json:"b"`
	Nodes       []int     `json:"nodes"`
	Gains       []float64 `json:"gains"`
	IndexCached bool      `json:"index_cached"`
	Memo        string    `json:"memo"`
	Degraded    bool      `json:"degraded,omitempty"`
}

func (s *Server) handleTopGains(w http.ResponseWriter, r *http.Request) {
	qp, err := parseQueryParams(r)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	q := r.URL.Query()
	b := 0
	if v := q.Get("b"); v != "" {
		b, err = strconv.Atoi(v)
		if err != nil {
			writeBadRequest(w, fmt.Errorf("bad b=%q", v))
			return
		}
		if b == 0 {
			// Explicit zero is invalid (zero means "default" engine-side).
			writeBadRequest(w, fmt.Errorf("b=0 outside [1, %d]", s.cfg.MaxK))
			return
		}
	}
	workers := 0
	if v := q.Get("workers"); v != "" {
		workers, err = strconv.Atoi(v)
		if err != nil {
			writeBadRequest(w, fmt.Errorf("bad workers=%q", v))
			return
		}
	}
	res, err := s.q.TopGains(r.Context(), engine.TopGainsRequest{
		Graph:   qp.graph,
		Problem: qp.problem,
		L:       qp.L,
		R:       qp.R,
		Seed:    qp.seed,
		Set:     qp.set,
		B:       b,
		Workers: workers,
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, TopGainsResponse{
		Graph:       qp.graph,
		Problem:     qp.problem.String(),
		Set:         qp.set,
		B:           res.B,
		Nodes:       res.Nodes,
		Gains:       res.Gains,
		IndexCached: res.IndexCached,
		Memo:        res.Memo,
		Degraded:    res.Degraded,
	})
}

// ---------------------------------------------------------------------------
// GET /healthz and GET /stats
// ---------------------------------------------------------------------------

// HealthResponse is the /healthz reply.
type HealthResponse struct {
	Status  string  `json:"status"` // "ok" or "draining"
	UptimeS float64 `json:"uptime_s"`
	Graphs  int     `json:"graphs"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:  "ok",
		UptimeS: time.Since(s.start).Seconds(),
		Graphs:  len(s.cfg.Graphs),
	}
	status := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// MemoStatsJSON mirrors engine.MemoStats for /stats, plus whether the
// memoized read path is enabled at all.
type MemoStatsJSON struct {
	Enabled        bool  `json:"enabled"`
	Hits           int64 `json:"hits"`
	Coalesced      int64 `json:"coalesced_populates"`
	Misses         int64 `json:"misses"`
	PrefixExtended int64 `json:"prefix_extended"`
	EmptyHits      int64 `json:"empty_hits"`
	TopGainsHits   int64 `json:"topgains_hits"`
	Evictions      int64 `json:"evictions"`
	Invalidated    int64 `json:"invalidated"`
	PopulateErrors int64 `json:"populate_errors"`
	Resident       int   `json:"resident"`
	ResidentBytes  int64 `json:"resident_bytes"`
}

// CacheStatsJSON mirrors index.CacheStats for /stats.
type CacheStatsJSON struct {
	Hits            int64    `json:"hits"`
	Coalesced       int64    `json:"coalesced_builds"`
	Misses          int64    `json:"misses"`
	SpillLoads      int64    `json:"spill_loads"`
	SpillSaves      int64    `json:"spill_saves"`
	SpillLoadErrors int64    `json:"spill_load_errors"`
	SpillSaveErrors int64    `json:"spill_save_errors"`
	SpillSkipped    int64    `json:"spill_skipped"`
	MmapLoads       int64    `json:"mmap_loads"`
	Evictions       int64    `json:"evictions"`
	BuildErrors     int64    `json:"build_errors"`
	Resident        int      `json:"resident"`
	ResidentBytes   int64    `json:"resident_bytes"`
	Keys            []string `json:"keys"`
}

// StorageStatsJSON mirrors index.StorageStats for /stats: the spill storage
// subsystem — configured on-disk format, whether v8 loads serve off mmap'd
// pages, and the aggregate mapping/decode counters of resident store-backed
// indexes. Present only when the daemon has a spill directory.
type StorageStatsJSON struct {
	SpillFormat    string `json:"spill_format"`
	Mmap           bool   `json:"mmap"`
	MappedIndexes  int    `json:"mapped_indexes"`
	MappedBytes    int64  `json:"mapped_bytes"`
	DecodeHits     int64  `json:"decode_hits"`
	DecodeMisses   int64  `json:"decode_misses"`
	DecodeErrors   int64  `json:"decode_errors"`
	PageInRestarts int64  `json:"page_in_restarts"`
}

// AdmissionStatsJSON mirrors engine.AdmissionStats for /stats: the admission
// gate's shape (slots and queue bound) plus its traffic counters. Every 503
// "overloaded" response corresponds to exactly one Shed tick.
type AdmissionStatsJSON struct {
	Enabled       bool  `json:"enabled"`
	MaxConcurrent int   `json:"max_concurrent"`
	MaxQueue      int   `json:"max_queue"`
	Admitted      int64 `json:"admitted"`
	Shed          int64 `json:"shed"`
	InFlight      int   `json:"in_flight"`
	QueueDepth    int   `json:"queue_depth"`
	QueueWaits    int64 `json:"queue_waits"`
	QueueWaitNS   int64 `json:"queue_wait_ns"`
}

// AccuracyStatsJSON mirrors engine.AccuracyStats for /stats: adaptive
// (epsilon-targeted) selection traffic. CIWidthHist buckets each completed
// run's achieved CIWidth/epsilon ratio into [0,0.25), [0.25,0.5), [0.5,0.75),
// [0.75,1], and >1 (the run hit the R cap before reaching epsilon).
type AccuracyStatsJSON struct {
	AdaptiveSelects int64   `json:"adaptive_selects"`
	EarlyStops      int64   `json:"early_stops"`
	ChunksBuilt     int64   `json:"chunks_built"`
	CIWidthHist     []int64 `json:"ci_width_hist"`
}

// StatsResponse is the /stats reply.
type StatsResponse struct {
	UptimeS          float64                     `json:"uptime_s"`
	Draining         bool                        `json:"draining"`
	InFlight         int64                       `json:"in_flight"`
	SelectsCoalesced int64                       `json:"selects_coalesced"`
	Degraded         int64                       `json:"degraded"`
	Admission        AdmissionStatsJSON          `json:"admission"`
	Cache            CacheStatsJSON              `json:"cache"`
	Memo             MemoStatsJSON               `json:"memo"`
	Endpoints        map[string]EndpointSnapshot `json:"endpoints"`
	// Accuracy reports adaptive-budget selection counters; present once any
	// adaptive selection has run on this daemon.
	Accuracy *AccuracyStatsJSON `json:"accuracy,omitempty"`
	// Shards reports coordinator-side scatter-gather counters; present only
	// when this daemon fronts shards (-shards or -peer).
	Shards *ShardsStatsJSON `json:"shards,omitempty"`
	// Storage reports the spill storage subsystem (format, mmap serving,
	// decode counters); present only when a spill directory is configured.
	Storage *StorageStatsJSON `json:"storage,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	withBuckets := r.URL.Query().Get("buckets") != "0"
	es := s.engine.Stats()
	keys := s.Cache().Keys()
	keyStrings := make([]string, len(keys))
	for i, k := range keys {
		keyStrings[i] = k.String()
	}
	endpoints := make(map[string]EndpointSnapshot, len(s.endpoints))
	for name, m := range s.endpoints {
		endpoints[name] = m.Snapshot(withBuckets)
	}
	var memo MemoStatsJSON
	if es.MemoEnabled {
		memo = MemoStatsJSON{
			Enabled:        true,
			Hits:           es.Memo.Hits,
			Coalesced:      es.Memo.Coalesced,
			Misses:         es.Memo.Misses,
			PrefixExtended: es.Memo.PrefixExtended,
			EmptyHits:      es.Memo.EmptyHits,
			TopGainsHits:   es.Memo.TopHits,
			Evictions:      es.Memo.Evictions,
			Invalidated:    es.Memo.Invalidated,
			PopulateErrors: es.Memo.PopulateErrors,
			Resident:       es.Memo.Resident,
			ResidentBytes:  es.Memo.ResidentBytes,
		}
	}
	var accuracy *AccuracyStatsJSON
	if es.Accuracy.AdaptiveSelects > 0 {
		accuracy = &AccuracyStatsJSON{
			AdaptiveSelects: es.Accuracy.AdaptiveSelects,
			EarlyStops:      es.Accuracy.EarlyStops,
			ChunksBuilt:     es.Accuracy.ChunksBuilt,
			CIWidthHist:     es.Accuracy.CIWidthHist[:],
		}
	}
	var storage *StorageStatsJSON
	if s.cfg.SpillDir != "" {
		storage = &StorageStatsJSON{
			SpillFormat:    es.Storage.SpillFormat,
			Mmap:           es.Storage.Mmap,
			MappedIndexes:  es.Storage.MappedIndexes,
			MappedBytes:    es.Storage.MappedBytes,
			DecodeHits:     es.Storage.DecodeHits,
			DecodeMisses:   es.Storage.DecodeMisses,
			DecodeErrors:   es.Storage.DecodeErrors,
			PageInRestarts: es.Storage.PageInRestarts,
		}
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Shards:           s.shardsStats(),
		Accuracy:         accuracy,
		Storage:          storage,
		UptimeS:          time.Since(s.start).Seconds(),
		Draining:         s.draining.Load(),
		InFlight:         s.inFlight.Load(),
		SelectsCoalesced: es.SelectsCoalesced,
		Degraded:         es.Degraded,
		Admission: AdmissionStatsJSON{
			Enabled:       es.Admission.Enabled,
			MaxConcurrent: es.Admission.MaxConcurrent,
			MaxQueue:      es.Admission.MaxQueue,
			Admitted:      es.Admission.Admitted,
			Shed:          es.Admission.Shed,
			InFlight:      es.Admission.InFlight,
			QueueDepth:    es.Admission.QueueDepth,
			QueueWaits:    es.Admission.QueueWaits,
			QueueWaitNS:   es.Admission.QueueWaitNS,
		},
		Memo: memo,
		Cache: CacheStatsJSON{
			Hits:            es.Cache.Hits,
			Coalesced:       es.Cache.Coalesced,
			Misses:          es.Cache.Misses,
			SpillLoads:      es.Cache.SpillLoads,
			SpillSaves:      es.Cache.SpillSaves,
			SpillLoadErrors: es.Cache.SpillLoadErrors,
			SpillSaveErrors: es.Cache.SpillSaveErrors,
			SpillSkipped:    es.Cache.SpillSkipped,
			MmapLoads:       es.Cache.MmapLoads,
			Evictions:       es.Cache.Evictions,
			BuildErrors:     es.Cache.BuildErrors,
			Resident:        es.Cache.Resident,
			ResidentBytes:   es.Cache.ResidentBytes,
			Keys:            keyStrings,
		},
		Endpoints: endpoints,
	})
}
