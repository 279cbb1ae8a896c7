package server

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/client"
	"repro/internal/engine"
)

// The /v1/partial endpoints are the worker side of replicate-sharded
// serving: integer gain sums (and objective accumulators) over a replicate
// range [r0, r1) of the build identified by (graph, problem, L, seed). A
// coordinator daemon merges disjoint ranges by addition and divides once,
// so these endpoints never normalize — their replies are exact int64 sums.
// They are served from this daemon's own engine even in coordinator mode,
// so coordinators and workers can be layered freely.

// parseEpoch parses the optional epoch pin parameter (see
// engine.PartialGainRequest.Epoch): nil when absent.
func parseEpoch(r *http.Request) (*uint64, error) {
	v := r.URL.Query().Get("epoch")
	if v == "" {
		return nil, nil
	}
	e, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad epoch=%q", v)
	}
	return &e, nil
}

// parseRange parses the required r0/r1 replicate-range parameters; range
// validity (0 <= r0 < r1, width <= max-R) is the engine's call.
func parseRange(r *http.Request) (r0, r1 int, err error) {
	q := r.URL.Query()
	for _, p := range []struct {
		key string
		dst *int
	}{{"r0", &r0}, {"r1", &r1}} {
		v := q.Get(p.key)
		if v == "" {
			return 0, 0, fmt.Errorf("missing %s (the replicate range [r0, r1) is required)", p.key)
		}
		*p.dst, err = strconv.Atoi(v)
		if err != nil {
			return 0, 0, fmt.Errorf("bad %s=%q", p.key, v)
		}
	}
	return r0, r1, nil
}

func (s *Server) handlePartialGain(w http.ResponseWriter, r *http.Request) {
	qp, err := parseQueryParams(r)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	r0, r1, err := parseRange(r)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	q := r.URL.Query()
	nodes, err := parseNodeList(q.Get("nodes"))
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	wantObjective := false
	switch q.Get("objective") {
	case "", "0":
	case "1":
		wantObjective = true
	default:
		writeBadRequest(w, fmt.Errorf("bad objective=%q (want 0 or 1)", q.Get("objective")))
		return
	}
	epoch, err := parseEpoch(r)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	res, err := s.engine.PartialGain(r.Context(), engine.PartialGainRequest{
		Graph:         qp.graph,
		Problem:       qp.problem,
		L:             qp.L,
		Seed:          qp.seed,
		R0:            r0,
		R1:            r1,
		Epoch:         epoch,
		Set:           qp.set,
		Nodes:         nodes,
		WantObjective: wantObjective,
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	resp := client.PartialGainResponse{
		Graph:       qp.graph,
		Problem:     qp.problem.String(),
		R0:          r0,
		R1:          r1,
		Set:         qp.set,
		Nodes:       nodes,
		Sums:        res.Sums,
		Replicates:  res.Replicates,
		IndexCached: res.IndexCached,
		Memo:        res.Memo,
		Degraded:    res.Degraded,
	}
	if wantObjective {
		resp.ObjectiveSum = &res.ObjectiveSum
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePartialTopGains(w http.ResponseWriter, r *http.Request) {
	qp, err := parseQueryParams(r)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	r0, r1, err := parseRange(r)
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
			writeBadRequest(w, fmt.Errorf("b=0 invalid (omit b for the default)"))
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
	epoch, err := parseEpoch(r)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	res, err := s.engine.PartialTopGains(r.Context(), engine.PartialTopGainsRequest{
		Graph:   qp.graph,
		Problem: qp.problem,
		L:       qp.L,
		Seed:    qp.seed,
		R0:      r0,
		R1:      r1,
		Epoch:   epoch,
		Set:     qp.set,
		Workers: workers,
		B:       b,
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, client.PartialTopGainsResponse{
		Graph:       qp.graph,
		Problem:     qp.problem.String(),
		R0:          r0,
		R1:          r1,
		Set:         qp.set,
		B:           res.B,
		Nodes:       res.Nodes,
		Sums:        res.Sums,
		Exhausted:   res.Exhausted,
		IndexCached: res.IndexCached,
		Memo:        res.Memo,
		Degraded:    res.Degraded,
	})
}

// shardsStats renders the coordinator's counters for /stats (nil when
// unsharded).
func (s *Server) shardsStats() *client.ShardsStats {
	if s.coord == nil {
		return nil
	}
	cs := s.coord.Stats()
	out := &client.ShardsStats{
		Shards:         cs.Shards,
		Merges:         cs.Merges,
		DegradedMerges: cs.DegradedMerges,
		Retries:        cs.Retries,
		MergeLatency:   cs.MergeLatency,
		PerShard:       make([]client.ShardConnStats, len(cs.PerShard)),
	}
	for i, p := range cs.PerShard {
		out.PerShard[i] = client.ShardConnStats{Addr: p.Addr, Requests: p.Requests, Errors: p.Errors, Retries: p.Retries}
	}
	return out
}
