package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/index"
	"repro/internal/testleak"
)

func testGraph(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.BarabasiAlbert(n, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	testleak.Check(t)
	if cfg.Graphs == nil {
		cfg.Graphs = map[string]*graph.Graph{"test": testGraph(t, 600, 1)}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func postSelect(t testing.TB, url string, body string) (*SelectResponse, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+"/v1/select", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SelectResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return &sr, resp
}

func TestSelectMatchesDirectComputation(t *testing.T) {
	g := testGraph(t, 600, 1)
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		problem index.Problem
		body    string
	}{
		{index.Problem1, `{"graph":"test","problem":"hitting","k":6,"L":4,"R":30,"seed":7}`},
		{index.Problem2, `{"graph":"test","problem":2,"k":6,"L":4,"R":30,"seed":7,"algorithm":"plain"}`},
	} {
		sr, resp := postSelect(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("select status %d", resp.StatusCode)
		}
		ix, err := index.Build(g, 4, 30, 7)
		if err != nil {
			t.Fatal(err)
		}
		lazy := tc.problem == index.Problem1
		want, err := core.ApproxWithIndex(context.Background(), ix, tc.problem, 6, greedy.Config{Lazy: lazy, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(sr.Nodes) != len(want.Nodes) {
			t.Fatalf("%v: served %d nodes, want %d", tc.problem, len(sr.Nodes), len(want.Nodes))
		}
		for i := range want.Nodes {
			if sr.Nodes[i] != want.Nodes[i] {
				t.Fatalf("%v: served nodes %v, want %v", tc.problem, sr.Nodes, want.Nodes)
			}
		}
		if sr.Objective <= 0 {
			t.Fatalf("%v: non-positive objective %v", tc.problem, sr.Objective)
		}
	}
}

func TestConcurrentIdenticalSelectsBuildIndexOnce(t *testing.T) {
	g := testGraph(t, 800, 2)
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 12
	body := `{"graph":"test","k":10,"L":5,"R":40,"seed":3,"algorithm":"plain","workers":1}`
	responses := make([]*SelectResponse, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sr, resp := postSelect(t, ts.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			responses[i] = sr
		}(i)
	}
	wg.Wait()
	cs := s.Cache().Stats()
	if cs.Misses != 1 {
		t.Fatalf("index cache misses = %d, want exactly 1 (build must run once)", cs.Misses)
	}
	if cs.BuildErrors != 0 || cs.Resident != 1 {
		t.Fatalf("unexpected cache stats %+v", cs)
	}
	for i, sr := range responses {
		if sr == nil {
			t.Fatal("missing response")
		}
		for j, u := range responses[0].Nodes {
			if sr.Nodes[j] != u {
				t.Fatalf("client %d selected %v, client 0 selected %v", i, sr.Nodes, responses[0].Nodes)
			}
		}
	}
}

func TestGainAndObjectiveEndpoints(t *testing.T) {
	g := testGraph(t, 500, 4)
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ix, err := index.Build(g, 4, 25, 9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ix.NewDTable(index.Problem2)
	if err != nil {
		t.Fatal(err)
	}
	set := []int{1, 2}
	members := make([]bool, g.N())
	for _, u := range set {
		members[u] = true
		d.Update(u)
	}

	resp, err := http.Get(ts.URL + "/v1/gain?graph=test&problem=2&L=4&R=25&seed=9&set=1,2&nodes=0,5,9")
	if err != nil {
		t.Fatal(err)
	}
	var gr GainResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gain status %d", resp.StatusCode)
	}
	for i, u := range []int{0, 5, 9} {
		if want := d.Gain(u); gr.Gains[i] != want {
			t.Fatalf("gain(%d) = %v, want %v", u, gr.Gains[i], want)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/objective?graph=test&problem=2&L=4&R=25&seed=9&set=1,2")
	if err != nil {
		t.Fatal(err)
	}
	var or ObjectiveResponse
	if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if want := d.EstimateObjective(members); or.Objective != want {
		t.Fatalf("objective = %v, want %v", or.Objective, want)
	}
}

func TestValidationAndErrorStatuses(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"unknown graph", `{"graph":"nope","k":3,"L":4}`, http.StatusNotFound},
		{"zero k", `{"graph":"test","k":0,"L":4}`, http.StatusBadRequest},
		{"zero L", `{"graph":"test","k":3,"L":0}`, http.StatusBadRequest},
		{"bad algorithm", `{"graph":"test","k":3,"L":4,"algorithm":"dp"}`, http.StatusBadRequest},
		{"bad problem", `{"graph":"test","k":3,"L":4,"problem":"f3"}`, http.StatusBadRequest},
		{"unknown field", `{"graph":"test","k":3,"L":4,"bogus":1}`, http.StatusBadRequest},
	} {
		_, resp := postSelect(t, ts.URL, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/gain?graph=test&L=4&nodes=999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range node: status %d, want 400", resp.StatusCode)
	}
}

func TestHealthzAndStats(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, hr)
	}

	if _, resp := postSelect(t, ts.URL, `{"graph":"test","k":3,"L":3,"R":20}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("select status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.Cache.Misses != 1 || sr.Cache.Resident != 1 {
		t.Fatalf("stats cache = %+v, want 1 miss, 1 resident", sr.Cache)
	}
	sel, ok := sr.Endpoints["select"]
	if !ok || sel.Requests != 1 || sel.Errors != 0 {
		t.Fatalf("stats select endpoint = %+v, want 1 request, 0 errors", sel)
	}
	if sel.Latency.Count != 1 || len(sel.Latency.Buckets) == 0 {
		t.Fatalf("stats select latency = %+v, want 1 observation with buckets", sel.Latency)
	}
	if len(sr.Cache.Keys) != 1 {
		t.Fatalf("stats cache keys = %v, want 1", sr.Cache.Keys)
	}
}

// startServing runs s.Serve on a fresh localhost listener and returns the
// base URL, the cancel that begins graceful shutdown, and a channel carrying
// Serve's return value.
func startServing(t *testing.T, s *Server) (string, context.CancelFunc, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	return "http://" + ln.Addr().String(), cancel, done
}

func waitForOtherInFlight(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var sr StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		// The /stats request itself is in flight, so >= 2 means another
		// request is being served.
		if sr.InFlight >= 2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no request became in-flight before the deadline")
}

func TestGracefulShutdownDrainsInFlightRequests(t *testing.T) {
	g := testGraph(t, 2000, 5)
	s := newTestServer(t, Config{
		Graphs:       map[string]*graph.Graph{"test": g},
		DrainTimeout: 30 * time.Second,
	})
	url, cancel, done := startServing(t, s)

	// A deliberately heavy request: plain greedy over every candidate each
	// round, one worker.
	type result struct {
		status int
		nodes  int
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/select", "application/json",
			bytes.NewBufferString(`{"graph":"test","k":25,"L":5,"R":60,"seed":11,"algorithm":"plain","workers":1}`))
		if err != nil {
			resc <- result{status: -1}
			return
		}
		defer resp.Body.Close()
		var sr SelectResponse
		_ = json.NewDecoder(resp.Body).Decode(&sr)
		resc <- result{status: resp.StatusCode, nodes: len(sr.Nodes)}
	}()
	waitForOtherInFlight(t, url)
	cancel() // SIGTERM equivalent: begin graceful shutdown

	res := <-resc
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request finished with status %d, want 200 (drain must let it complete)", res.status)
	}
	if res.nodes != 25 {
		t.Fatalf("drained request returned %d nodes, want 25", res.nodes)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
	// The listener is closed; new requests must fail at the connection.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("request after shutdown unexpectedly succeeded")
	}
}

func TestDrainTimeoutHardCancelsStragglers(t *testing.T) {
	g := testGraph(t, 3000, 6)
	s := newTestServer(t, Config{
		Graphs:       map[string]*graph.Graph{"test": g},
		DrainTimeout: 50 * time.Millisecond,
		MaxTimeout:   10 * time.Minute,
	})
	url, cancel, done := startServing(t, s)

	// Warm the index so the uncancelable build phase is out of the way and
	// the slowness sits in the (cancelable) selection loop.
	if _, resp := postSelect(t, url, `{"graph":"test","k":1,"L":5,"R":60,"seed":12}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d", resp.StatusCode)
	}

	statusc := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/select", "application/json",
			bytes.NewBufferString(`{"graph":"test","k":400,"L":5,"R":60,"seed":12,"algorithm":"plain","workers":1,"timeout_ms":600000}`))
		if err != nil {
			statusc <- -1
			return
		}
		defer resp.Body.Close()
		statusc <- resp.StatusCode
	}()
	waitForOtherInFlight(t, url)
	cancel()

	status := <-statusc
	if status != http.StatusServiceUnavailable && status != http.StatusGatewayTimeout {
		t.Fatalf("straggler finished with status %d, want 503/504 (hard cancel after drain timeout)", status)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}

func TestShutdownSpillsIndexesForWarmRestart(t *testing.T) {
	g := testGraph(t, 500, 7)
	dir := t.TempDir()
	mk := func() *Server {
		return newTestServer(t, Config{
			Graphs:   map[string]*graph.Graph{"test": g},
			SpillDir: dir,
		})
	}
	s1 := mk()
	ts1 := httptest.NewServer(s1.Handler())
	if _, resp := postSelect(t, ts1.URL, `{"graph":"test","k":4,"L":4,"R":30,"seed":5}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("first select status %d", resp.StatusCode)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mk()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	sr, resp := postSelect(t, ts2.URL, `{"graph":"test","k":4,"L":4,"R":30,"seed":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart select status %d", resp.StatusCode)
	}
	if !sr.IndexCached {
		t.Fatal("restarted server rebuilt the index instead of loading the spill file")
	}
	if cs := s2.Cache().Stats(); cs.SpillLoads != 1 {
		t.Fatalf("restart spill loads = %d, want 1", cs.SpillLoads)
	}
}

func TestDrainingRejectsNewWork(t *testing.T) {
	s := newTestServer(t, Config{})
	s.draining.Store(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, resp := postSelect(t, ts.URL, `{"graph":"test","k":3,"L":3}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("select while draining: status %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusServiceUnavailable || hr.Status != "draining" {
		t.Fatalf("healthz while draining = %d %q, want 503 draining", hresp.StatusCode, hr.Status)
	}
}

func TestTimeoutDuringColdBuildDetachesAndWarmsCache(t *testing.T) {
	g := testGraph(t, 3000, 9)
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 1ms budget on a cold index: the build cannot finish in time, the
	// client must get its 504 immediately, and the detached build must
	// still land in the cache.
	_, resp := postSelect(t, ts.URL, `{"graph":"test","k":3,"L":6,"R":100,"seed":21,"timeout_ms":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("cold select with 1ms budget: status %d, want 504", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Cache().Stats().Resident == 0 {
		if time.Now().After(deadline) {
			t.Fatal("detached build never populated the cache")
		}
		time.Sleep(10 * time.Millisecond)
	}
	sr, resp := postSelect(t, ts.URL, `{"graph":"test","k":3,"L":6,"R":100,"seed":21}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up select: status %d", resp.StatusCode)
	}
	if !sr.IndexCached {
		t.Fatal("follow-up select rebuilt the index the detached build should have cached")
	}
}

func TestPerRequestTimeout(t *testing.T) {
	g := testGraph(t, 3000, 8)
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the index (build is not cancelable), then ask for a heavy
	// selection with a 1ms budget.
	if _, resp := postSelect(t, ts.URL, `{"graph":"test","k":1,"L":5,"R":60,"seed":13}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d", resp.StatusCode)
	}
	_, resp := postSelect(t, ts.URL, `{"graph":"test","k":400,"L":5,"R":60,"seed":13,"algorithm":"plain","workers":1,"timeout_ms":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out select: status %d, want 504", resp.StatusCode)
	}
	if fmt.Sprint(resp.Header.Get("Content-Type")) != "application/json" {
		t.Fatalf("error content type %q", resp.Header.Get("Content-Type"))
	}
}
