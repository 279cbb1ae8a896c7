package shard

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
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

// newParityPair builds an unsharded reference engine and an in-process
// coordinator with the given shard count over the same graph.
func newParityPair(t testing.TB, g *graph.Graph, shards int) (*engine.Engine, *Coordinator) {
	t.Helper()
	testleak.Check(t)
	graphs := map[string]*graph.Graph{"test": g}
	ref, err := engine.New(engine.Config{Graphs: graphs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	co, err := NewLocal(Config{Graphs: graphs}, shards, engine.Config{Graphs: graphs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return ref, co
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSelectMergeParity is the tentpole acceptance criterion: sharded
// selections must be bit-identical to the unsharded engine — Nodes, Gains,
// and the telescoped Objective — for 1, 2 and 4 shards, both problems,
// lazy and plain, across worker counts. R = 25 is deliberately not
// divisible by 4, exercising uneven range splits (and with it the implicit
// R/N rounding of the split).
func TestSelectMergeParity(t *testing.T) {
	g := testGraph(t, 400, 11)
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4} {
		var pair *Coordinator
		var ref *engine.Engine
		ref, pair = newParityPair(t, g, shards)
		for _, problem := range []engine.Problem{engine.Problem1, engine.Problem2} {
			for _, strategy := range []engine.Strategy{engine.Lazy, engine.Plain} {
				for _, workers := range []int{1, 3} {
					req := engine.SelectRequest{
						Graph: "test", Problem: problem, K: 7,
						L: 5, R: 25, Seed: 9,
						Strategy: strategy, Workers: workers,
					}
					want, err := ref.Select(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					got, err := pair.Select(ctx, req)
					if err != nil {
						t.Fatalf("shards=%d %v/%v: %v", shards, problem, strategy, err)
					}
					if !sameInts(got.Nodes, want.Nodes) {
						t.Fatalf("shards=%d %v/%v workers=%d: nodes %v, want %v",
							shards, problem, strategy, workers, got.Nodes, want.Nodes)
					}
					if !sameFloats(got.Gains, want.Gains) {
						t.Fatalf("shards=%d %v/%v workers=%d: gains %v, want %v",
							shards, problem, strategy, workers, got.Gains, want.Gains)
					}
					if math.Float64bits(got.Objective()) != math.Float64bits(want.Objective()) {
						t.Fatalf("shards=%d %v/%v: objective %v, want %v",
							shards, problem, strategy, got.Objective(), want.Objective())
					}
					if got.Evaluations != want.Evaluations || got.Lazy != want.Lazy {
						t.Fatalf("shards=%d %v/%v workers=%d: evaluations %d lazy %t, want %d %t",
							shards, problem, strategy, workers, got.Evaluations, got.Lazy, want.Evaluations, want.Lazy)
					}
				}
			}
		}
	}
}

// Streamed coordinator rounds must reassemble bit-identically into the
// blocking result, with the objective telescoping exactly — mirroring the
// engine's streaming contract.
func TestSelectStreamMergeParity(t *testing.T) {
	g := testGraph(t, 300, 3)
	ref, co := newParityPair(t, g, 3)
	req := engine.SelectRequest{Graph: "test", K: 6, L: 4, R: 20, Seed: 5}
	want, err := ref.Select(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []engine.Round
	got, err := co.SelectStream(context.Background(), req, func(rd engine.Round) error {
		rounds = append(rounds, rd)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(got.Nodes, want.Nodes) || !sameFloats(got.Gains, want.Gains) {
		t.Fatalf("streamed result diverged: %v / %v, want %v / %v", got.Nodes, got.Gains, want.Nodes, want.Gains)
	}
	total := 0.0
	for i, rd := range rounds {
		if rd.Round != i+1 || rd.Node != want.Nodes[i] {
			t.Fatalf("round %d: got (%d, node %d), want node %d", i+1, rd.Round, rd.Node, want.Nodes[i])
		}
		total += rd.Gain
		if math.Float64bits(rd.Objective) != math.Float64bits(total) {
			t.Fatalf("round %d objective %v, want running total %v", i+1, rd.Objective, total)
		}
	}
}

// TestReadMergeParity pins the read surface: Gain, Objective and TopGains
// answers must be bit-identical to the unsharded engine for every shard
// count, problem, and seed-set shape (empty, singleton, larger).
func TestReadMergeParity(t *testing.T) {
	g := testGraph(t, 350, 7)
	ctx := context.Background()
	sets := [][]int{{}, {4}, {9, 3, 120}}
	nodes := []int{0, 5, 17, 200, 349}
	for _, shards := range []int{1, 2, 4} {
		ref, co := newParityPair(t, g, shards)
		for _, problem := range []engine.Problem{engine.Problem1, engine.Problem2} {
			for _, set := range sets {
				greq := engine.GainRequest{Graph: "test", Problem: problem, L: 5, R: 25, Seed: 9, Set: set, Nodes: nodes}
				want, err := ref.Gain(ctx, greq)
				if err != nil {
					t.Fatal(err)
				}
				got, err := co.Gain(ctx, greq)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if !sameFloats(got.Gains, want.Gains) {
					t.Fatalf("shards=%d %v set=%v: gains %v, want %v", shards, problem, set, got.Gains, want.Gains)
				}

				oreq := engine.ObjectiveRequest{Graph: "test", Problem: problem, L: 5, R: 25, Seed: 9, Set: set}
				wantO, err := ref.Objective(ctx, oreq)
				if err != nil {
					t.Fatal(err)
				}
				gotO, err := co.Objective(ctx, oreq)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(gotO.Objective) != math.Float64bits(wantO.Objective) {
					t.Fatalf("shards=%d %v set=%v: objective %v, want %v", shards, problem, set, gotO.Objective, wantO.Objective)
				}

				for _, b := range []int{1, 5, 40} {
					treq := engine.TopGainsRequest{Graph: "test", Problem: problem, L: 5, R: 25, Seed: 9, Set: set, B: b}
					wantT, err := ref.TopGains(ctx, treq)
					if err != nil {
						t.Fatal(err)
					}
					gotT, err := co.TopGains(ctx, treq)
					if err != nil {
						t.Fatal(err)
					}
					if !sameInts(gotT.Nodes, wantT.Nodes) || !sameFloats(gotT.Gains, wantT.Gains) {
						t.Fatalf("shards=%d %v set=%v b=%d: top %v/%v, want %v/%v",
							shards, problem, set, b, gotT.Nodes, gotT.Gains, wantT.Nodes, wantT.Gains)
					}
				}
			}
		}
	}
}

// The coordinator rejects malformed requests with the engine's exact codes
// before anything is scattered.
func TestCoordinatorValidation(t *testing.T) {
	g := testGraph(t, 50, 1)
	_, co := newParityPair(t, g, 2)
	ctx := context.Background()
	cases := []struct {
		name string
		call func() error
		code engine.Code
	}{
		{"unknown graph", func() error {
			_, err := co.Select(ctx, engine.SelectRequest{Graph: "nope", K: 1, L: 3})
			return err
		}, engine.CodeNotFound},
		{"negative k", func() error {
			_, err := co.Select(ctx, engine.SelectRequest{Graph: "test", K: -1, L: 3})
			return err
		}, engine.CodeBadRequest},
		{"bad L", func() error {
			_, err := co.Select(ctx, engine.SelectRequest{Graph: "test", K: 1, L: -1})
			return err
		}, engine.CodeBadRequest},
		{"R over cap", func() error {
			_, err := co.Gain(ctx, engine.GainRequest{Graph: "test", L: 3, R: 100000, Nodes: []int{1}})
			return err
		}, engine.CodeBadRequest},
		{"no nodes", func() error {
			_, err := co.Gain(ctx, engine.GainRequest{Graph: "test", L: 3, R: 10})
			return err
		}, engine.CodeBadRequest},
		{"node out of range", func() error {
			_, err := co.Gain(ctx, engine.GainRequest{Graph: "test", L: 3, R: 10, Nodes: []int{50}})
			return err
		}, engine.CodeBadRequest},
		{"set out of range", func() error {
			_, err := co.Objective(ctx, engine.ObjectiveRequest{Graph: "test", L: 3, R: 10, Set: []int{-1}})
			return err
		}, engine.CodeBadRequest},
		{"b out of range", func() error {
			_, err := co.TopGains(ctx, engine.TopGainsRequest{Graph: "test", L: 3, R: 10, B: -2})
			return err
		}, engine.CodeBadRequest},
		{"unknown problem", func() error {
			_, err := co.TopGains(ctx, engine.TopGainsRequest{Graph: "test", Problem: index.Problem(9), L: 3, R: 10})
			return err
		}, engine.CodeBadRequest},
	}
	for _, tc := range cases {
		if err := tc.call(); engine.CodeOf(err) != tc.code {
			t.Fatalf("%s: code %q (err %v), want %q", tc.name, engine.CodeOf(err), err, tc.code)
		}
	}
}

// More shards than replicates: the extra workers get empty ranges and no
// traffic, and the merge still reproduces the unsharded answer exactly.
func TestMoreShardsThanReplicates(t *testing.T) {
	g := testGraph(t, 120, 2)
	ref, co := newParityPair(t, g, 4)
	req := engine.SelectRequest{Graph: "test", K: 3, L: 4, R: 3, Seed: 2}
	want, err := ref.Select(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := co.Select(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(got.Nodes, want.Nodes) || !sameFloats(got.Gains, want.Gains) {
		t.Fatalf("R<shards diverged: %v/%v, want %v/%v", got.Nodes, got.Gains, want.Nodes, want.Gains)
	}
	// With R = 3 over 4 workers the balanced split leaves exactly one worker
	// (shard 0: [0·3/4, 1·3/4) = ∅) with an empty range and no traffic.
	st := co.Stats()
	if st.PerShard[0].Requests != 0 {
		t.Fatalf("empty-range shard saw %d requests, want 0", st.PerShard[0].Requests)
	}
	for s := 1; s < 4; s++ {
		if st.PerShard[s].Requests == 0 {
			t.Fatalf("shard %d saw no traffic; expected only shard 0 to be empty", s)
		}
	}
}
