package rwdom

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/index"
)

// The context-first API must agree bit-for-bit with the one-shot Solve
// facade (and hence with the deprecated shims, which delegate to it).
func TestOpenSelectMatchesSolveFacade(t *testing.T) {
	g := testGraph(t)
	en, err := Open(g, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	ctx := context.Background()

	for _, p := range []Problem{Problem1, Problem2} {
		res, err := en.Select(ctx, SelectRequest{Problem: p, K: 5, L: 4, R: 40, Seed: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(g, p, Options{K: 5, L: 4, R: 40, Seed: 3, Lazy: true, Algorithm: AlgorithmApprox, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Nodes) != len(want.Nodes) {
			t.Fatalf("problem %v: %d nodes vs %d", p, len(res.Nodes), len(want.Nodes))
		}
		for i := range want.Nodes {
			if res.Nodes[i] != want.Nodes[i] {
				t.Fatalf("problem %v: engine %v, legacy %v", p, res.Nodes, want.Nodes)
			}
			if math.Float64bits(res.Gains[i]) != math.Float64bits(want.Gains[i]) {
				t.Fatalf("problem %v: gains diverge at %d", p, i)
			}
		}
	}

	// The second identical request must hit the resident index.
	res, err := en.Select(ctx, SelectRequest{Problem: Problem1, K: 5, L: 4, R: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexCached {
		t.Fatal("repeat selection rebuilt the index")
	}
	if st := en.Stats(); st.Cache.Hits == 0 {
		t.Fatalf("engine stats show no cache hits: %+v", st.Cache)
	}
}

// Streaming through the public API: rounds reassemble into the blocking
// result.
func TestOpenSelectStream(t *testing.T) {
	g := testGraph(t)
	en, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	ctx := context.Background()
	req := SelectRequest{K: 6, L: 4, R: 30, Seed: 5}
	want, err := en.Select(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []Round
	got, err := en.SelectStream(ctx, req, func(rd Round) error {
		rounds = append(rounds, rd)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != len(want.Nodes) {
		t.Fatalf("%d rounds for %d picks", len(rounds), len(want.Nodes))
	}
	for i, rd := range rounds {
		if rd.Node != want.Nodes[i] || got.Nodes[i] != want.Nodes[i] {
			t.Fatalf("round %d: node %d, want %d", i+1, rd.Node, want.Nodes[i])
		}
	}
	if math.Float64bits(rounds[len(rounds)-1].Objective) != math.Float64bits(want.Objective()) {
		t.Fatal("streamed objective diverges from blocking result")
	}
}

// Gain/Objective/TopGains through the public API, including the memoized
// read path statuses.
func TestOpenReadPath(t *testing.T) {
	g := testGraph(t)
	en, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	ctx := context.Background()

	gr, err := en.Gain(ctx, GainRequest{L: 4, R: 30, Seed: 5, Set: []int{1, 2}, Nodes: []int{0, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Gains) != 2 || gr.Memo != "miss" {
		t.Fatalf("first gain: %+v", gr)
	}
	gr2, err := en.Gain(ctx, GainRequest{L: 4, R: 30, Seed: 5, Set: []int{2, 1, 1}, Nodes: []int{0, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if gr2.Memo != "hit" {
		t.Fatalf("canonicalized repeat should hit: %+v", gr2)
	}
	for i := range gr.Gains {
		if math.Float64bits(gr.Gains[i]) != math.Float64bits(gr2.Gains[i]) {
			t.Fatal("memoized gains diverge")
		}
	}

	or, err := en.Objective(ctx, ObjectiveRequest{L: 4, R: 30, Seed: 5, Set: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if or.Objective <= 0 {
		t.Fatalf("objective %v", or.Objective)
	}

	tg, err := en.TopGains(ctx, TopGainsRequest{L: 4, R: 30, Seed: 5, Set: []int{1}, B: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tg.Nodes) != 3 || tg.B != 3 {
		t.Fatalf("topgains %+v", tg)
	}
	for _, u := range tg.Nodes {
		if u == 1 {
			t.Fatal("set member among top gains")
		}
	}
}

// Typed error codes through the public API.
func TestOpenErrorCodes(t *testing.T) {
	g := testGraph(t)
	en, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	ctx := context.Background()

	if _, err := en.Select(ctx, SelectRequest{Graph: "other", K: 3, L: 4}); ErrorCodeOf(err) != ErrNotFound {
		t.Fatalf("unknown graph: code %v", ErrorCodeOf(err))
	}
	if _, err := en.Gain(ctx, GainRequest{L: 4, Set: []int{1 << 30}, Nodes: []int{0}}); ErrorCodeOf(err) != ErrBadRequest {
		t.Fatalf("bad set: code %v", ErrorCodeOf(err))
	}
	if _, err := en.Select(ctx, SelectRequest{K: 3, L: 6, R: 100, Seed: 99, Timeout: time.Millisecond}); ErrorCodeOf(err) != ErrTimeout {
		t.Fatalf("cold-build 1ms budget: code %v", ErrorCodeOf(err))
	}
	if _, err := Open(g, WithSpillFormat("v7")); err == nil || !strings.Contains(err.Error(), "v8") || !strings.Contains(err.Error(), "v8raw") {
		t.Fatalf("spill format v7: err %v, want an error naming v8 and v8raw", err)
	}
}

// AdoptIndex through the public API: the engine serves the caller's index.
func TestOpenAdoptIndex(t *testing.T) {
	g := testGraph(t)
	ix, err := BuildIndexParallel(g, 4, 30, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	en, err := Open(g)
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	if err := en.AdoptIndex(ix); err != nil {
		t.Fatal(err)
	}
	res, err := en.Select(context.Background(), SelectRequest{Problem: Problem1, K: 4, L: 4, R: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexCached {
		t.Fatal("adopted index was rebuilt")
	}
	want, err := core.ApproxWithIndexWorkers(ix, index.Problem1, 4, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Nodes {
		if res.Nodes[i] != want.Nodes[i] {
			t.Fatalf("adopted selection %v, want %v", res.Nodes, want.Nodes)
		}
	}
}

// WithWorkers sets the default only: an explicit per-request Workers knob
// must win (regression: the option used to lower the worker cap too).
func TestWithWorkersPerRequestOverride(t *testing.T) {
	g := testGraph(t)
	en, err := Open(g, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	res, err := en.Select(context.Background(), SelectRequest{K: 3, L: 4, R: 30, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 4 {
		t.Fatalf("per-request Workers=4 resolved to %d (WithWorkers(1) must not cap it)", res.Workers)
	}
	res, err = en.Select(context.Background(), SelectRequest{K: 3, L: 4, R: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 1 {
		t.Fatalf("default workers resolved to %d, want the WithWorkers(1) default", res.Workers)
	}
}
