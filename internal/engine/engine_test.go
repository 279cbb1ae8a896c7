package engine

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/index"
)

// TestSelectStreamParity is the streaming acceptance criterion: the rounds
// emitted by SelectStream, concatenated, must reassemble bit-identically
// into the blocking Select result — for both problems, lazy and plain,
// across worker counts — and the running objective must telescope exactly.
func TestSelectStreamParity(t *testing.T) {
	g := testGraph(t, 500, 11)
	e := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	for _, problem := range []Problem{Problem1, Problem2} {
		for _, strategy := range []Strategy{Lazy, Plain} {
			for _, workers := range []int{1, 2, 4} {
				req := SelectRequest{
					Graph:    "test",
					Problem:  problem,
					K:        8,
					L:        5,
					R:        25,
					Seed:     9,
					Strategy: strategy,
					Workers:  workers,
				}
				want, err := e.Select(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				var rounds []Round
				got, err := e.SelectStream(context.Background(), req, func(rd Round) error {
					rounds = append(rounds, rd)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				label := func() string {
					return problem.String() + "/" + strategy.String()
				}
				if len(rounds) != len(want.Nodes) || len(got.Nodes) != len(want.Nodes) {
					t.Fatalf("%s workers=%d: %d rounds, %d streamed nodes, want %d",
						label(), workers, len(rounds), len(got.Nodes), len(want.Nodes))
				}
				total := 0.0
				for i, rd := range rounds {
					if rd.Round != i+1 {
						t.Fatalf("%s: round %d numbered %d", label(), i+1, rd.Round)
					}
					if rd.Node != want.Nodes[i] || got.Nodes[i] != want.Nodes[i] {
						t.Fatalf("%s workers=%d: round %d node %d (result %d), want %d",
							label(), workers, i+1, rd.Node, got.Nodes[i], want.Nodes[i])
					}
					if math.Float64bits(rd.Gain) != math.Float64bits(want.Gains[i]) {
						t.Fatalf("%s workers=%d: round %d gain %v, want %v", label(), workers, i+1, rd.Gain, want.Gains[i])
					}
					total += rd.Gain
					if math.Float64bits(rd.Objective) != math.Float64bits(total) {
						t.Fatalf("%s: round %d objective %v, want running total %v", label(), i+1, rd.Objective, total)
					}
				}
				if math.Float64bits(rounds[len(rounds)-1].Objective) != math.Float64bits(want.Objective()) {
					t.Fatalf("%s: final streamed objective %v, want %v",
						label(), rounds[len(rounds)-1].Objective, want.Objective())
				}
				if got.Evaluations != want.Evaluations {
					t.Fatalf("%s: streamed evaluations %d, want %d", label(), got.Evaluations, want.Evaluations)
				}
			}
		}
	}
}

// A non-nil emit error must abort the stream and surface as-is.
func TestSelectStreamEmitErrorAborts(t *testing.T) {
	e := newTestEngine(t, Config{})
	boom := errors.New("client went away")
	calls := 0
	_, err := e.SelectStream(context.Background(), SelectRequest{Graph: "test", K: 5, L: 4, R: 20}, func(Round) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("stream error = %v, want %v", err, boom)
	}
	if calls != 2 {
		t.Fatalf("emit called %d times after abort, want 2", calls)
	}
}

// TestErrorCodes pins the stable machine-readable code for each failure
// class — the contract every transport codec maps mechanically.
func TestErrorCodes(t *testing.T) {
	e := newTestEngine(t, Config{})
	ctx := context.Background()

	if _, err := e.Select(ctx, SelectRequest{Graph: "nope", K: 3, L: 4}); CodeOf(err) != CodeNotFound {
		t.Fatalf("unknown graph: code %q, want %q (err %v)", CodeOf(err), CodeNotFound, err)
	}
	if _, err := e.Select(ctx, SelectRequest{Graph: "test", K: -1, L: 4}); CodeOf(err) != CodeBadRequest {
		t.Fatalf("k=-1: code %q, want %q", CodeOf(err), CodeBadRequest)
	}
	if _, err := e.Select(ctx, SelectRequest{Graph: "test", K: 3, L: -1}); CodeOf(err) != CodeBadRequest {
		t.Fatalf("L=-1: code %q, want %q", CodeOf(err), CodeBadRequest)
	}
	// The engine's domain is wider than the HTTP contract's: K = 0 is the
	// degenerate empty selection, not an error.
	if res, err := e.Select(ctx, SelectRequest{Graph: "test", K: 0, L: 4, R: 10}); err != nil || len(res.Nodes) != 0 {
		t.Fatalf("k=0: res %v err %v, want empty selection", res, err)
	}
	if _, err := e.Gain(ctx, GainRequest{Graph: "test", L: 4, Set: []int{999999}, Nodes: []int{1}}); CodeOf(err) != CodeBadRequest {
		t.Fatalf("out-of-range set: code %q, want %q", CodeOf(err), CodeBadRequest)
	}
	if _, err := e.Gain(ctx, GainRequest{Graph: "test", L: 4}); CodeOf(err) != CodeBadRequest {
		t.Fatalf("missing nodes: code %q, want %q", CodeOf(err), CodeBadRequest)
	}
	if _, err := e.TopGains(ctx, TopGainsRequest{Graph: "test", L: 4, B: -1}); CodeOf(err) != CodeBadRequest {
		t.Fatalf("b=-1: code %q, want %q", CodeOf(err), CodeBadRequest)
	}

	// A cold index with a 1ms budget: the build detaches and the caller gets
	// a timeout-coded error.
	if _, err := e.Select(ctx, SelectRequest{Graph: "test", K: 3, L: 6, R: 100, Seed: 77, Timeout: time.Millisecond}); CodeOf(err) != CodeTimeout {
		t.Fatalf("timeout: code %q, want %q", CodeOf(err), CodeTimeout)
	}

	// The retired v7 spill format is rejected at construction like any
	// unknown name, and the error names the formats that are accepted.
	if _, err := New(Config{Graphs: map[string]*graph.Graph{"test": testGraph(t, 50, 1)}, SpillFormat: "v7"}); CodeOf(err) != CodeBadRequest ||
		!strings.Contains(err.Error(), "v8") || !strings.Contains(err.Error(), "v8raw") {
		t.Fatalf("spill format v7: err %v (code %q), want a bad request naming v8 and v8raw", err, CodeOf(err))
	}

	// Aborted engine (drain/hard-stop): computations die with the draining
	// code.
	e2 := newTestEngine(t, Config{})
	e2.Abort()
	if _, err := e2.Select(ctx, SelectRequest{Graph: "test", K: 3, L: 4, R: 20}); CodeOf(err) != CodeDraining {
		t.Fatalf("aborted engine: code %q, want %q", CodeOf(err), CodeDraining)
	}
}

// The per-entry top-B result memo: a repeated same-set TopGains request is
// served from the stored winners — identical payload, TopHits counter
// bumped — and distinct budgets are cached independently.
func TestTopGainsResultMemo(t *testing.T) {
	e := newTestEngine(t, Config{})
	ctx := context.Background()
	req := TopGainsRequest{Graph: "test", L: 4, R: 20, Seed: 3, Set: []int{1, 2}, B: 5}

	first, err := e.TopGains(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if ms := e.MemoStats(); ms.TopHits != 0 {
		t.Fatalf("TopHits after first sweep = %d, want 0", ms.TopHits)
	}
	second, err := e.TopGains(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if ms := e.MemoStats(); ms.TopHits != 1 {
		t.Fatalf("TopHits after repeat = %d, want 1", ms.TopHits)
	}
	if len(second.Nodes) != len(first.Nodes) {
		t.Fatalf("repeat returned %d nodes, want %d", len(second.Nodes), len(first.Nodes))
	}
	for i := range first.Nodes {
		if second.Nodes[i] != first.Nodes[i] ||
			math.Float64bits(second.Gains[i]) != math.Float64bits(first.Gains[i]) {
			t.Fatalf("memoized top gains diverge at %d: %v vs %v", i, second, first)
		}
	}

	// A different budget is its own sweep (and its own memo slot): the
	// bigger result must extend the smaller one.
	reqB8 := req
	reqB8.B = 8
	third, err := e.TopGains(ctx, reqB8)
	if err != nil {
		t.Fatal(err)
	}
	if ms := e.MemoStats(); ms.TopHits != 1 {
		t.Fatalf("TopHits after new budget = %d, want 1 (fresh sweep)", ms.TopHits)
	}
	if len(third.Nodes) != 8 {
		t.Fatalf("b=8 returned %d nodes", len(third.Nodes))
	}
	for i := range first.Nodes {
		if third.Nodes[i] != first.Nodes[i] {
			t.Fatalf("b=8 prefix diverges from b=5 winners: %v vs %v", third.Nodes, first.Nodes)
		}
	}
	if _, err := e.TopGains(ctx, reqB8); err != nil {
		t.Fatal(err)
	}
	if ms := e.MemoStats(); ms.TopHits != 2 {
		t.Fatalf("TopHits after b=8 repeat = %d, want 2", ms.TopHits)
	}
}

// AdoptIndex must make a caller-materialized index servable: the selection
// is a cache hit and matches the direct core computation bit-for-bit.
func TestAdoptIndex(t *testing.T) {
	g := testGraph(t, 400, 4)
	e := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"g": g}})
	ix, err := index.BuildWorkers(g, 4, 30, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AdoptIndex("g", ix); err != nil {
		t.Fatal(err)
	}
	res, err := e.Select(context.Background(), SelectRequest{Graph: "g", K: 6, L: 4, R: 30, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexCached {
		t.Fatal("selection rebuilt an index that was adopted")
	}
	want, err := core.ApproxWithIndex(context.Background(), ix, index.Problem2, 6, greedy.Config{Lazy: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Nodes {
		if res.Nodes[i] != want.Nodes[i] {
			t.Fatalf("adopted selection %v, want %v", res.Nodes, want.Nodes)
		}
	}
	// Adoption is idempotent and checks identity.
	if err := e.AdoptIndex("g", ix); err != nil {
		t.Fatal(err)
	}
	other := testGraph(t, 100, 9)
	otherIx, err := index.BuildWorkers(other, 4, 30, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AdoptIndex("g", otherIx); CodeOf(err) != CodeBadRequest {
		t.Fatalf("foreign-graph adopt: code %q, want %q", CodeOf(err), CodeBadRequest)
	}
}

// The sole-graph shorthand: an empty graph name resolves to the engine's
// only graph and shares its cache key with explicit requests.
func TestSoleGraphShorthand(t *testing.T) {
	e := newTestEngine(t, Config{})
	ctx := context.Background()
	a, err := e.Select(ctx, SelectRequest{K: 4, L: 4, R: 20, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Select(ctx, SelectRequest{Graph: "test", K: 4, L: 4, R: 20, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !b.IndexCached {
		t.Fatal("explicit name missed the index the shorthand request built")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("shorthand %v != explicit %v", a.Nodes, b.Nodes)
		}
	}
}
