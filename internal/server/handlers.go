package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/index"
)

// ---------------------------------------------------------------------------
// JSON plumbing: one error envelope for every path
// ---------------------------------------------------------------------------

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
	writeJSON(w, engine.HTTPStatus(code), client.ErrorResponse{Error: client.ErrorBody{Code: string(code), Message: message}})
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
// "coverage" interchangeably (see selectBody).
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

// selectBody decodes the /v1/select body: client.SelectRequest with its
// Problem shadowed so a number is accepted as well as a name.
type selectBody struct {
	client.SelectRequest
	Problem problemJSON `json:"problem"`
}

// decodeSelect parses and translates the body into the engine request
// (the daemon's seed default of 1 is applied into ereq.Seed).
func decodeSelect(r *http.Request, w http.ResponseWriter) (ereq engine.SelectRequest, err error) {
	var req selectBody
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return ereq, fmt.Errorf("bad request body: %w", err)
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
		return ereq, fmt.Errorf("unknown algorithm %q (want lazy or plain)", req.Algorithm)
	}
	return engine.SelectRequest{
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
	}, nil
}

// encodeSelect builds the wire reply from the engine result.
func encodeSelect(ereq engine.SelectRequest, res *engine.SelectResult) client.SelectResponse {
	var acc *client.Accuracy
	if res.Epsilon > 0 {
		acc = &client.Accuracy{
			Epsilon:        res.Epsilon,
			Delta:          res.Delta,
			CIWidth:        res.CIWidth,
			ReplicatesUsed: res.ReplicatesUsed,
			ChunksBuilt:    res.ChunksBuilt,
			EarlyStopped:   res.EarlyStopped,
		}
	}
	return client.SelectResponse{
		Accuracy:    acc,
		Graph:       ereq.Graph,
		Problem:     ereq.Problem.String(),
		K:           ereq.K,
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
	ereq, err := decodeSelect(r, w)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	// The HTTP contract is stricter than the engine's (which allows the
	// degenerate k = 0 and L = 0 for embedded use): both must be >= 1 here.
	if ereq.K < 1 || ereq.K > s.cfg.MaxK {
		writeBadRequest(w, fmt.Errorf("k=%d outside [1, %d]", ereq.K, s.cfg.MaxK))
		return
	}
	if ereq.L < 1 {
		writeBadRequest(w, fmt.Errorf("L=%d outside [1, %d]", ereq.L, 1<<16-1))
		return
	}
	if streaming(r) {
		s.handleSelectStream(w, r, ereq)
		return
	}
	res, err := s.q.Select(r.Context(), ereq)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, encodeSelect(ereq, res))
}

// ---------------------------------------------------------------------------
// GET /v1/gain
// ---------------------------------------------------------------------------

// The read endpoints below are memoized: the n·R D-table for a seed set is
// materialized at most once (reusing the longest cached prefix of the set
// when one is resident) and every later request for the same set is a pure
// read of the frozen table; empty-set requests are answered from the
// index's memoized empty-set gain vector with no D-table work at all. The
// reply's memo field reports which of those paths served the request (see
// the engine.Memo* constants); "off" means the daemon runs with memoization
// disabled and paid a fresh table replay.

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
	writeJSON(w, http.StatusOK, client.GainResponse{
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
	writeJSON(w, http.StatusOK, client.ObjectiveResponse{
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
	writeJSON(w, http.StatusOK, client.TopGainsResponse{
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

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := client.Health{
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

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	withBuckets := r.URL.Query().Get("buckets") != "0"
	es := s.engine.Stats()
	keys := s.Cache().Keys()
	keyStrings := make([]string, len(keys))
	for i, k := range keys {
		keyStrings[i] = k.String()
	}
	endpoints := make(map[string]client.EndpointStats, len(s.endpoints))
	for name, m := range s.endpoints {
		endpoints[name] = m.Snapshot(withBuckets)
	}
	var memo client.MemoStats
	if es.MemoEnabled {
		memo = client.MemoStats{
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
	var accuracy *client.AccuracyStats
	if es.Accuracy.AdaptiveSelects > 0 {
		accuracy = &client.AccuracyStats{
			AdaptiveSelects: es.Accuracy.AdaptiveSelects,
			EarlyStops:      es.Accuracy.EarlyStops,
			ChunksBuilt:     es.Accuracy.ChunksBuilt,
			CIWidthHist:     es.Accuracy.CIWidthHist[:],
		}
	}
	var storage *client.StorageStats
	if s.cfg.SpillDir != "" {
		storage = &client.StorageStats{
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
	writeJSON(w, http.StatusOK, client.Stats{
		Shards:           s.shardsStats(),
		Accuracy:         accuracy,
		Storage:          storage,
		UptimeS:          time.Since(s.start).Seconds(),
		Draining:         s.draining.Load(),
		InFlight:         s.inFlight.Load(),
		SelectsCoalesced: es.SelectsCoalesced,
		Degraded:         es.Degraded,
		Admission: client.AdmissionStats{
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
		Cache: client.CacheStats{
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
