package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/graph"
)

// POST /v1/graph/{name}/edges — the HTTP codec over engine.ApplyDelta (and,
// in sharded mode, the coordinator's broadcast). The body is one atomic
// delta; the reply reports the new epoch and what happened to the cached
// artifacts. Structural conflicts (adding an existing edge, removing an
// absent one, a stale base_epoch) answer 409 conflict; after a partial
// broadcast failure in sharded mode the reply is the worker's error and the
// cluster is at the new epoch, with the laggard worker answering pinned
// reads stale_epoch until it recovers.

// maxAddNodes caps one delta's node growth. The new graph's adjacency
// offsets are allocated up front, so without a cap one short body asking for
// billions of nodes would exhaust the daemon's memory.
const maxAddNodes = 1 << 20

func edgesFromJSON(in []client.Edge) []graph.Edge {
	if len(in) == 0 {
		return nil
	}
	out := make([]graph.Edge, len(in))
	for i, e := range in {
		out[i] = graph.Edge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

func (s *Server) handleApplyDelta(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req client.ApplyDeltaRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeBadRequest(w, fmt.Errorf("bad delta body: %w", err))
		return
	}
	if req.AddNodes > maxAddNodes {
		writeBadRequest(w, fmt.Errorf("add_nodes=%d above the per-delta cap of %d", req.AddNodes, maxAddNodes))
		return
	}
	ereq := engine.ApplyDeltaRequest{
		Graph: name,
		Delta: graph.Delta{
			AddNodes:    req.AddNodes,
			AddEdges:    edgesFromJSON(req.Add),
			RemoveEdges: edgesFromJSON(req.Remove),
		},
		BaseEpoch: req.BaseEpoch,
	}

	s.mutateMu.Lock()
	defer s.mutateMu.Unlock()

	// The daemon's own engine applies first: it always serves the
	// worker-side /v1/partial endpoints (even in coordinator mode, for an
	// external coordinator layered above this one), so its graph must track
	// every mutation. Its validation is also the cheapest all-or-nothing
	// gate — a rejected delta leaves engine, coordinator and workers all
	// untouched.
	res, err := s.engine.ApplyDelta(r.Context(), ereq)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	resp := client.ApplyDeltaResponse{
		Graph:           name,
		Epoch:           res.Epoch,
		Nodes:           res.Nodes,
		Edges:           res.Edges,
		Touched:         res.Touched,
		IndexesRepaired: res.IndexesRepaired,
		IndexesDropped:  res.IndexesDropped,
		MemosDropped:    res.MemosDropped,
	}
	if s.coord != nil {
		cres, cerr := s.coord.ApplyDelta(r.Context(), ereq)
		if cerr != nil {
			// The engine (and any workers that acknowledged) committed; only
			// the reply is an error. The coordinator has already moved to the
			// new epoch, so laggard workers answer pinned reads with a typed
			// stale_epoch instead of silently merging mixed-epoch sums.
			writeEngineError(w, cerr)
			return
		}
		resp.IndexesRepaired += cres.IndexesRepaired
		resp.IndexesDropped += cres.IndexesDropped
		resp.MemosDropped += cres.MemosDropped
	}
	writeJSON(w, http.StatusOK, resp)
}
