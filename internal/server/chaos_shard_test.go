package server

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// Shard-topology chaos: a coordinator daemon whose workers misbehave. The
// contract mirrors the single-daemon chaos suite — every public answer is
// either bit-identical to the fault-free run or a typed error; a faulty
// worker must never produce a silently wrong merge, because the coordinator
// only merges when every shard's partial answer arrived.

// flakyWorker wraps a worker daemon so its /v1/partial endpoints shed the
// first failN requests with 503 overloaded and Retry-After: 0, then behave
// normally. Retry-After 0 tells the typed client to re-send immediately, so
// the retry path is exercised without slowing the test down.
func flakyWorker(t *testing.T, g *graph.Graph, failN int64) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	w := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	var failed atomic.Int64
	inner := w.Handler()
	ws := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/partial/gain" || r.URL.Path == "/v1/partial/topgains" {
			if failed.Add(1) <= failN {
				rw.Header().Set("Retry-After", "0")
				rw.Header().Set("Content-Type", "application/json")
				rw.WriteHeader(http.StatusServiceUnavailable)
				rw.Write([]byte(`{"error":{"code":"overloaded","message":"chaos: injected worker shed"}}`))
				return
			}
			failed.Add(-1) // only count actual sheds
		}
		inner.ServeHTTP(rw, r)
	}))
	t.Cleanup(ws.Close)
	return ws, &failed
}

// TestChaosFlakyWorkerShardRetriesToParity: one of two workers sheds a
// burst of partial requests longer than the client SDK's in-call retry
// budget, forcing the coordinator's own Retry-After backoff layer to
// re-send. Every response must still be a 200 bit-identical to the
// fault-free baseline, and the retries must be visible in /stats.
func TestChaosFlakyWorkerShardRetriesToParity(t *testing.T) {
	g := testGraph(t, 400, 11)
	baseline := chaosBaseline(t, g)

	healthy := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	healthyTS := httptest.NewServer(healthy.Handler())
	t.Cleanup(healthyTS.Close)

	// The selects run with workers=2, so up to selectScatters partial calls
	// are in flight on the flaky worker at once, and the client SDK gives
	// each call 1+sdkRetries attempts. Sheds are consecutive, so one more
	// shed than those calls can absorb between them guarantees that some
	// call exhausts its SDK budget and the coordinator must re-send.
	const selectScatters, sdkRetries = 2, 3
	flakyTS, shed := flakyWorker(t, g, selectScatters*(1+sdkRetries)+1)

	coord := newTestServer(t, Config{
		Graphs: map[string]*graph.Graph{"test": g},
		Peers:  []string{healthyTS.URL, flakyTS.URL},
	})
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(coordTS.Close)

	for _, it := range chaosWorkload {
		status, canon, code, err := chaosDo(coordTS.Client(), coordTS.URL, it)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK {
			t.Fatalf("%s: HTTP %d code %q through flaky shard, want eventual success", it.name, status, code)
		}
		if diff := canonDiff(baseline[it.name], canon); diff != "" {
			t.Fatalf("%s: merged answer through flaky shard diverges: %s", it.name, diff)
		}
	}

	if shed.Load() == 0 {
		t.Fatal("the flaky worker never shed — the retry path was not exercised")
	}
	st := getStats(t, coordTS.URL)
	if st.Shards == nil {
		t.Fatal("coordinator /stats has no shards block")
	}
	if st.Shards.Retries == 0 {
		t.Fatalf("coordinator absorbed %d sheds without recording a retry: %+v", shed.Load(), st.Shards)
	}
}

// TestChaosKilledWorkerShardFailsTyped: a worker that is down (connection
// refused) can never be merged around — the coordinator must answer with a
// typed error envelope, not a partial or silently wrong result.
func TestChaosKilledWorkerShardFailsTyped(t *testing.T) {
	g := testGraph(t, 400, 11)

	healthy := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	healthyTS := httptest.NewServer(healthy.Handler())
	t.Cleanup(healthyTS.Close)

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // the port is now refused

	coord := newTestServer(t, Config{
		Graphs: map[string]*graph.Graph{"test": g},
		Peers:  []string{healthyTS.URL, deadURL},
	})
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(coordTS.Close)

	for _, it := range chaosWorkload[:4] {
		status, canon, code, err := chaosDo(coordTS.Client(), coordTS.URL, it)
		if err != nil {
			t.Fatal(err)
		}
		if status == http.StatusOK {
			t.Fatalf("%s: 200 (%+v) with a dead shard — a merge over half the replicates", it.name, canon)
		}
		switch code {
		case "internal", "overloaded", "timeout":
		default:
			t.Fatalf("%s: error code %q (HTTP %d), want a typed retryable/internal code", it.name, code, status)
		}
	}

	// The healthy worker's partial surface is untouched: asking it directly
	// still works, so recovery is a matter of restoring the dead peer.
	resp, err := http.Get(healthyTS.URL + "/v1/partial/gain?graph=test&L=4&seed=1&r0=0&r1=12&nodes=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy worker partial status %d", resp.StatusCode)
	}
}
