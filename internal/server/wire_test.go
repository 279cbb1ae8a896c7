package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/graph"
)

// The daemon encodes and decodes the client package's types; these aliases
// keep the server tests' older names for them.
type (
	SelectResponse     = client.SelectResponse
	GainResponse       = client.GainResponse
	ObjectiveResponse  = client.ObjectiveResponse
	TopGainsResponse   = client.TopGainsResponse
	HealthResponse     = client.Health
	StatsResponse      = client.Stats
	ApplyDeltaResponse = client.ApplyDeltaResponse
	ErrorResponse      = client.ErrorResponse
	ErrorBody          = client.ErrorBody
)

// goldenTypes names the client type each single-object golden file decodes
// into; the error_* and partial_error_* files are error envelopes and
// select_stream_ok is NDJSON (see TestGoldensDecodeIntoClientTypes).
var goldenTypes = map[string]func() any{
	"gain_ok":                   func() any { return new(client.GainResponse) },
	"gain_empty_set_ok":         func() any { return new(client.GainResponse) },
	"healthz_ok":                func() any { return new(client.Health) },
	"mutate_ok":                 func() any { return new(client.ApplyDeltaResponse) },
	"objective_ok":              func() any { return new(client.ObjectiveResponse) },
	"partial_gain_ok":           func() any { return new(client.PartialGainResponse) },
	"partial_gain_objective_ok": func() any { return new(client.PartialGainResponse) },
	"partial_gain_empty_set_ok": func() any { return new(client.PartialGainResponse) },
	"partial_topgains_ok":       func() any { return new(client.PartialTopGainsResponse) },
	"select_ok":                 func() any { return new(client.SelectResponse) },
	"topgains_ok":               func() any { return new(client.TopGainsResponse) },
}

var clientCodes = []string{
	client.CodeBadRequest, client.CodeNotFound, client.CodeDraining,
	client.CodeOverloaded, client.CodeTimeout, client.CodeConflict,
	client.CodeStaleEpoch, client.CodeUnsupported, client.CodeInternal,
}

// decodeStrict decodes the first JSON value of raw the way the daemon's
// body decoders do, rejecting fields v does not declare.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// roundTrip decodes one JSON object into v strictly and returns v
// re-encoded in the golden suite's canonical form.
func roundTrip(t *testing.T, name string, raw []byte, v any) string {
	t.Helper()
	if err := decodeStrict(raw, v); err != nil {
		t.Fatalf("%s: does not decode into %T: %v", name, v, err)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return canonicalize(t, out)
}

// TestGoldensDecodeIntoClientTypes pins the client types to the golden
// wire contract: every golden body decodes into its client type with no
// unknown field and re-encodes to the same canonical JSON, so a field that
// exists on only one side of the wire fails here.
func TestGoldensDecodeIntoClientTypes(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden files: %v", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".golden")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got string
		switch {
		case strings.HasPrefix(name, "error_") || strings.HasPrefix(name, "partial_error_"):
			var env client.ErrorResponse
			got = roundTrip(t, name, want, &env)
			if !slices.Contains(clientCodes, env.Error.Code) {
				t.Errorf("%s: code %q is not a client.Code* constant", name, env.Error.Code)
			}
		case name == "select_stream_ok":
			dec := json.NewDecoder(bytes.NewReader(want))
			for {
				var line json.RawMessage
				if err := dec.Decode(&line); errors.Is(err, io.EOF) {
					break
				} else if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var v any = new(client.Round)
				if bytes.Contains(line, []byte(`"done"`)) {
					v = new(client.StreamDone)
				}
				got += roundTrip(t, name, line, v)
			}
		default:
			newType, ok := goldenTypes[name]
			if !ok {
				t.Fatalf("%s: no client type mapped for this golden file", name)
			}
			got = roundTrip(t, name, want, newType())
		}
		if got != string(want) {
			t.Errorf("%s: client type round trip diverges from the golden file\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
	}
}

// FuzzWireBodies feeds arbitrary bytes to the two POST body decoders, the
// select body (with its number-or-name problem) and the /edges delta body.
// A body the decoder rejects must get a bad_request envelope; any other
// body must get a 200 whose reply decodes into its client type, or an
// envelope with a typed, non-internal code and that code's HTTP status. An
// internal code would mean a panic reached the route's recovery handler.
func FuzzWireBodies(f *testing.F) {
	for _, body := range []string{
		`{"graph":"g","problem":"coverage","k":2,"L":3,"R":4,"seed":7,"workers":1}`,
		`{"graph":"g","problem":1,"k":1,"L":2}`,
		`{"graph":"g","problem":"f1","k":3,"L":4,"algorithm":"plain","timeout_ms":500}`,
		`{"graph":"g","k":2,"L":3,"R":4,"epsilon":0.5,"delta":0.1}`,
		`{"graph":"g","problem":3,"k":1,"L":2}`,
		`{"graph":"g","k":1,"L":2,"extra":true}`,
		`{"add":[{"u":0,"v":11}]}`,
		`{"add_nodes":2,"add":[{"u":12,"v":13,"w":1}],"base_epoch":0}`,
		`{"remove":[{"u":0,"v":1}],"base_epoch":5}`,
		`{"add_nodes":-1}`,
		`{"add_nodes":9000000000}`,
		`{"Graph":"g","add_nodes":1}`,
		`{}`,
		``,
		`[1,2]`,
	} {
		f.Add(body)
	}
	g := testGraph(f, 12, 1)
	f.Fuzz(func(t *testing.T, body string) {
		// A fresh server per input: a delta that succeeds changes the graph
		// the next input would see.
		s, err := New(Config{
			Graphs:         map[string]*graph.Graph{"g": g},
			MaxR:           4,
			MaxK:           3,
			MaxWorkers:     1,
			DefaultTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var sel selectBody
		checkWireReply(t, s, "/v1/select", body, decodeStrict([]byte(body), &sel), new(client.SelectResponse))
		var delta client.ApplyDeltaRequest
		checkWireReply(t, s, "/v1/graph/g/edges", body, decodeStrict([]byte(body), &delta), new(client.ApplyDeltaResponse))
	})
}

// checkWireReply posts body to path and checks the reply against the
// FuzzWireBodies property; decodeErr is the body decoder's verdict.
func checkWireReply(t *testing.T, s *Server, path, body string, decodeErr error, ok any) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	raw := rec.Body.Bytes()
	if rec.Code == http.StatusOK {
		if decodeErr != nil {
			t.Fatalf("%s %q: 200 for a body the decoder rejects (%v)", path, body, decodeErr)
		}
		if err := decodeStrict(raw, ok); err != nil {
			t.Fatalf("%s %q: 200 reply does not decode into %T: %v\n%s", path, body, ok, err, raw)
		}
		return
	}
	var env client.ErrorResponse
	if err := decodeStrict(raw, &env); err != nil {
		t.Fatalf("%s %q: HTTP %d without an error envelope: %v\n%s", path, body, rec.Code, err, raw)
	}
	code := env.Error.Code
	switch {
	case decodeErr != nil && code != client.CodeBadRequest:
		t.Fatalf("%s %q: decoder rejects the body (%v) but the reply is %q", path, body, decodeErr, code)
	case code == client.CodeInternal || !slices.Contains(clientCodes, code):
		t.Fatalf("%s %q: untyped failure %q: %s", path, body, code, env.Error.Message)
	case rec.Code != engine.HTTPStatus(engine.Code(code)):
		t.Fatalf("%s %q: code %q with HTTP %d, want %d", path, body, code, rec.Code, engine.HTTPStatus(engine.Code(code)))
	}
}

// One short delta body must not be able to make the daemon allocate
// without bound: add_nodes above the cap is a bad request.
func TestDeltaBodyCapsAddNodes(t *testing.T) {
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"g": testGraph(t, 12, 1)}})
	for _, body := range []string{
		fmt.Sprintf(`{"add_nodes":%d}`, maxAddNodes+1),
		`{"add_nodes":1099511627776}`,
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graph/g/edges", strings.NewReader(body)))
		var env client.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusBadRequest || env.Error.Code != client.CodeBadRequest {
			t.Errorf("%s: HTTP %d %s, want 400 bad_request", body, rec.Code, rec.Body.Bytes())
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graph/g/edges", strings.NewReader(fmt.Sprintf(`{"add_nodes":%d}`, maxAddNodes))))
	if rec.Code != http.StatusOK {
		t.Errorf("add_nodes at the cap: HTTP %d %s, want 200", rec.Code, rec.Body.Bytes())
	}
}
