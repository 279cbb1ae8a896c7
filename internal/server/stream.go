package server

import (
	"encoding/json"
	"net/http"

	"repro/client"
	"repro/internal/engine"
)

// This file is the streaming half of POST /v1/select: with ?stream=1 the
// reply is NDJSON — one client.Round line per greedy pick, emitted as the
// engine decides it, then one client.StreamDone line whose result field is
// the exact blocking-mode client.SelectResponse. The emitted rounds reassemble
// bit-for-bit into the blocking selection (the engine guarantees it; the
// stream parity tests lock it down), so a client can render progress and
// still end up with the same answer it would have gotten without streaming.

// streaming reports whether the request asked for NDJSON round events.
func streaming(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true":
		return true
	}
	return false
}

// handleSelectStream serves one streamed selection. Errors before the first
// byte get the normal error envelope and status; once rounds are flowing
// the status is committed, so a late failure is reported as a terminal
// NDJSON error-envelope line instead.
func (s *Server) handleSelectStream(w http.ResponseWriter, r *http.Request, ereq engine.SelectRequest) {
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	wrote := false
	emit := func(v any) error {
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			wrote = true
		}
		if err := enc.Encode(v); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	res, err := s.q.SelectStream(r.Context(), ereq, func(rd engine.Round) error {
		return emit(client.Round{
			Round: rd.Round, Node: rd.Node, Gain: rd.Gain, Objective: rd.Objective,
			CIWidth: rd.CIWidth, Replicates: rd.Replicates,
		})
	})
	if err != nil {
		if !wrote {
			writeEngineError(w, err)
			return
		}
		code := engine.CodeOf(err)
		_ = emit(client.ErrorResponse{Error: client.ErrorBody{Code: string(code), Message: err.Error()}})
		return
	}
	resp := encodeSelect(ereq, res)
	_ = emit(client.StreamDone{Done: true, Result: &resp})
}
