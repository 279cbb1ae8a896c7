package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
)

// firstEdge returns the first edge of g's iteration order.
func firstEdge(t *testing.T, g *graph.Graph) graph.Edge {
	t.Helper()
	var e graph.Edge
	found := false
	g.Edges(func(u, v int, w float64) bool {
		e, found = graph.Edge{U: u, V: v}, true
		return false
	})
	if !found {
		t.Fatal("graph has no edges")
	}
	return e
}

func TestApplyDeltaConflicts(t *testing.T) {
	g := testGraph(t, 200, 9)
	e := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	edge := firstEdge(t, g)

	cases := []struct {
		name string
		req  ApplyDeltaRequest
		code Code
	}{
		{"empty delta", ApplyDeltaRequest{Graph: "test"}, CodeBadRequest},
		{"unknown graph", ApplyDeltaRequest{Graph: "nope", Delta: graph.Delta{RemoveEdges: []graph.Edge{edge}}}, CodeNotFound},
		{"add existing", ApplyDeltaRequest{Graph: "test", Delta: graph.Delta{AddEdges: []graph.Edge{edge}}}, CodeConflict},
		{"remove missing", ApplyDeltaRequest{Graph: "test", Delta: graph.Delta{RemoveEdges: []graph.Edge{{U: 0, V: 199}}}}, CodeConflict},
		{"node out of range", ApplyDeltaRequest{Graph: "test", Delta: graph.Delta{AddEdges: []graph.Edge{{U: 0, V: 5000}}}}, CodeBadRequest},
		{"stale base epoch", ApplyDeltaRequest{Graph: "test", Delta: graph.Delta{RemoveEdges: []graph.Edge{edge}}, BaseEpoch: ptrU64(7)}, CodeConflict},
	}
	for _, tc := range cases {
		_, err := e.ApplyDelta(context.Background(), tc.req)
		if CodeOf(err) != tc.code {
			t.Errorf("%s: code = %v (err %v), want %v", tc.name, CodeOf(err), err, tc.code)
		}
	}
	if g2, _ := e.Graph("test"); g2 != g || g2.Epoch() != 0 {
		t.Fatal("failed mutations must leave the graph untouched")
	}

	// The happy path, conditional on the correct base epoch.
	res, err := e.ApplyDelta(context.Background(), ApplyDeltaRequest{Graph: "test", Delta: graph.Delta{RemoveEdges: []graph.Edge{edge}}, BaseEpoch: ptrU64(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || res.Touched != 2 {
		t.Fatalf("result = %+v, want epoch 1 touching 2 nodes", res)
	}
	if g2, _ := e.Graph("test"); g2.Epoch() != 1 || g2.M() != g.M()-1 {
		t.Fatalf("post-mutation graph: epoch %d, m %d; want 1, %d", g2.Epoch(), g2.M(), g.M()-1)
	}
}

func ptrU64(v uint64) *uint64 { return &v }

// TestApplyDeltaRepairsResidentIndex is the warm-path tentpole check: a
// mutation on an engine with a resident walk index repairs it in place and
// re-keys it at the new epoch, so the next request is a cache hit — and its
// answers are bit-identical to a cold engine over the same mutated graph.
func TestApplyDeltaRepairsResidentIndex(t *testing.T) {
	g := testGraph(t, 300, 6)
	e := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	req := SelectRequest{Graph: "test", K: 5, L: 4, R: 20, Seed: 3}
	if _, err := e.Select(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	edge := firstEdge(t, g)
	res, err := e.ApplyDelta(context.Background(), ApplyDeltaRequest{Graph: "test", Delta: graph.Delta{RemoveEdges: []graph.Edge{edge}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexesRepaired != 1 || res.IndexesDropped != 0 {
		t.Fatalf("repaired %d, dropped %d; want 1 repaired", res.IndexesRepaired, res.IndexesDropped)
	}

	got, err := e.Select(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IndexCached {
		t.Fatal("post-mutation select rebuilt the index despite a successful repair")
	}

	ng, _ := e.Graph("test")
	fresh := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": ng}})
	want, err := fresh.Select(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Gains, want.Gains) || got.Evaluations != want.Evaluations {
		t.Fatalf("repaired-index selection diverges from rebuild:\n got %v %v (%d evals)\nwant %v %v (%d evals)",
			got.Nodes, got.Gains, got.Evaluations, want.Nodes, want.Gains, want.Evaluations)
	}
}

// TestApplyDeltaDropsPinnedIndex: an index pinned by an in-flight request at
// mutation time cannot be repaired in place (the reader is concurrently
// scanning its rows), so it is orphaned — the reader finishes on a
// consistent pre-mutation answer — and a private copy of it is repaired and
// adopted under the post-mutation key instead.
func TestApplyDeltaDropsPinnedIndex(t *testing.T) {
	g := testGraph(t, 300, 6)
	e := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	key := index.CacheKey{Graph: "test", L: 4, R: 10, Seed: 1}
	h, err := e.cache.Acquire(key, g, func() (*index.Index, error) {
		return index.BuildWorkers(g, key.L, key.R, key.Seed, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, wantHops := h.Index().Row(5, 0) // any row read; pins the pre-mutation walks

	res, err := e.ApplyDelta(context.Background(), ApplyDeltaRequest{Graph: "test", Delta: graph.Delta{RemoveEdges: []graph.Edge{firstEdge(t, g)}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexesRepaired != 1 || res.IndexesDropped != 0 {
		t.Fatalf("repaired %d, dropped %d; want a copy of the pinned index repaired", res.IndexesRepaired, res.IndexesDropped)
	}
	// The held handle still reads the untouched pre-mutation index.
	gotIDs, gotHops := h.Index().Row(5, 0)
	if !reflect.DeepEqual(gotIDs, wantIDs) || !reflect.DeepEqual(gotHops, wantHops) {
		t.Fatal("pinned index mutated under its reader")
	}
	if h.Index().GraphEpoch() != 0 {
		t.Fatal("pinned index must stay at its pre-mutation epoch")
	}
	h.Release()
}

// TestApplyDeltaInvalidatesMemo is the PR's satellite-2 regression: before
// the graph epoch became part of the index identity end-to-end, a memoized
// D-table built pre-mutation kept serving Gain after the mutation — the
// memo key (index key, problem, set) was unchanged, so the read path never
// noticed the graph moved. Now the epoch rides in the index cache key and
// therefore the memo key: the stale table is taken out of the cache at
// mutation time — patched by the repair and published again under the new
// key — and the post-mutation answer matches a cold engine exactly.
func TestApplyDeltaInvalidatesMemo(t *testing.T) {
	g := testGraph(t, 300, 6)
	e := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	edge := firstEdge(t, g)
	req := GainRequest{Graph: "test", L: 4, R: 20, Seed: 3, Set: []int{1, 2}, Nodes: []int{edge.U, edge.V}}

	stale, err := e.Gain(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Memo != MemoMiss {
		t.Fatalf("first gain memo = %q, want %q", stale.Memo, MemoMiss)
	}

	res, err := e.ApplyDelta(context.Background(), ApplyDeltaRequest{Graph: "test", Delta: graph.Delta{RemoveEdges: []graph.Edge{edge}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemosDropped != 0 {
		t.Fatalf("MemosDropped = %d, want 0 (the table is carried)", res.MemosDropped)
	}
	if inv := e.MemoStats().Invalidated; inv != 1 {
		t.Fatalf("MemoStats.Invalidated = %d, want 1", inv)
	}

	got, err := e.Gain(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Memo != MemoHit {
		t.Fatalf("post-mutation gain memo = %q, want %q (the table is carried to the new key)", got.Memo, MemoHit)
	}
	ng, _ := e.Graph("test")
	fresh := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": ng}})
	want, err := fresh.Gain(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Gains, want.Gains) {
		t.Fatalf("post-mutation gains %v, want %v", got.Gains, want.Gains)
	}
	if reflect.DeepEqual(stale.Gains, want.Gains) {
		t.Fatal("test premise: removing an incident edge must change the queried gains")
	}
}

// TestPartialEpochPin: a shard scatter pinned to an epoch the worker's graph
// is not at — behind it or ahead of it — answers a typed retryable
// stale-epoch error rather than contributing cross-epoch sums to a merge.
func TestPartialEpochPin(t *testing.T) {
	g := testGraph(t, 200, 9)
	e := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	req := PartialGainRequest{Graph: "test", L: 4, Seed: 3, R0: 0, R1: 10, Nodes: []int{1}}

	req.Epoch = ptrU64(0)
	if _, err := e.PartialGain(context.Background(), req); err != nil {
		t.Fatalf("matching epoch pin: %v", err)
	}
	req.Epoch = ptrU64(3)
	_, err := e.PartialGain(context.Background(), req)
	if CodeOf(err) != CodeStaleEpoch {
		t.Fatalf("future epoch pin: code = %v (err %v), want %v", CodeOf(err), err, CodeStaleEpoch)
	}

	if _, err := e.ApplyDelta(context.Background(), ApplyDeltaRequest{Graph: "test", Delta: graph.Delta{RemoveEdges: []graph.Edge{firstEdge(t, g)}}}); err != nil {
		t.Fatal(err)
	}
	req.Epoch = ptrU64(0)
	_, err = e.PartialGain(context.Background(), req)
	if CodeOf(err) != CodeStaleEpoch {
		t.Fatalf("pre-mutation epoch pin: code = %v (err %v), want %v", CodeOf(err), err, CodeStaleEpoch)
	}
	var ee *Error
	if !errors.As(err, &ee) || ee.Code != CodeStaleEpoch {
		t.Fatalf("stale-epoch error is not typed: %v", err)
	}
	req.Epoch = ptrU64(1)
	if _, err := e.PartialGain(context.Background(), req); err != nil {
		t.Fatalf("post-mutation epoch pin: %v", err)
	}
}

// TestApplyDeltaSelectParity is the engine half of the PR's parity suite: a
// warm engine carried through a delta sequence by incremental repair must
// answer every read — both problems, both greedy drivers, multiple worker
// counts — bit-identically to a cold engine built over the equivalently
// mutated graph. (The shard half, N ∈ {1, 2, 4}, lives in internal/shard.)
func TestApplyDeltaSelectParity(t *testing.T) {
	g := testGraph(t, 300, 6)
	e := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": g}})

	// Warm the index, then mutate through a small sequence: remove two
	// spread edges, re-add one, append an isolated node and wire it in.
	if _, err := e.Select(context.Background(), SelectRequest{Graph: "test", K: 3, L: 4, R: 20, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	i := 0
	g.Edges(func(u, v int, w float64) bool {
		if i%37 == 0 && len(edges) < 2 {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
		i++
		return len(edges) < 2
	})
	deltas := []graph.Delta{
		{RemoveEdges: edges},
		{AddEdges: edges[:1]},
		{AddNodes: 1, AddEdges: []graph.Edge{{U: 300, V: 7}, {U: 300, V: 42}}},
	}
	ref := g // referee lineage: same deltas, no engine
	for _, d := range deltas {
		if _, err := e.ApplyDelta(context.Background(), ApplyDeltaRequest{Graph: "test", Delta: d}); err != nil {
			t.Fatal(err)
		}
		ng, _, err := ref.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		ref = ng
	}
	fresh := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": ref}})

	for _, prob := range []Problem{Problem1, Problem2} {
		for _, strat := range []Strategy{Lazy, Plain} {
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("p%d/%s/w=%d", int(prob), strat, workers)
				req := SelectRequest{Graph: "test", Problem: prob, K: 6, L: 4, R: 20, Seed: 3, Strategy: strat, Workers: workers}
				got, err := e.Select(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: warm select: %v", name, err)
				}
				want, err := fresh.Select(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: cold select: %v", name, err)
				}
				if !reflect.DeepEqual(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Gains, want.Gains) || got.Evaluations != want.Evaluations {
					t.Errorf("%s: repaired engine diverges from rebuild:\n got %v %v (%d evals)\nwant %v %v (%d evals)",
						name, got.Nodes, got.Gains, got.Evaluations, want.Nodes, want.Gains, want.Evaluations)
				}
			}
		}
	}
}
