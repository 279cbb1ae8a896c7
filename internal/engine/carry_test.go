package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// TestApplyDeltaCarriesMemoTables: the memoized tables and empty-set sums a
// delta patches answer Gain, Objective and TopGains bit-identically to a
// cold engine over the same mutated graph, after every delta of a sequence
// that removes and re-adds edges, wires in a new node next to a set member
// and adds an edge at the highest-degree node — both problems, several
// sets. Each post-delta Gain is a memo hit: the tables were carried, not
// rebuilt.
func TestApplyDeltaCarriesMemoTables(t *testing.T) {
	g := testGraph(t, 300, 6)
	e := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	ctx := context.Background()
	const L, R, seed = 4, 20, 3

	var edges []graph.Edge
	i := 0
	g.Edges(func(u, v int, w float64) bool {
		if i%53 == 0 {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
		i++
		return len(edges) < 4
	})
	hub := 0
	for u := range g.N() {
		if g.Degree(u) > g.Degree(hub) {
			hub = u
		}
	}
	spoke := graph.Edge{U: hub, V: 0}
	for ; spoke.V == hub || g.HasEdge(hub, spoke.V); spoke.V++ {
	}
	sets := [][]int{
		{},
		{edges[0].U},
		{7, 42, 99, 150, edges[1].V},
		{3, 11, 19, 27, 35, 43, 51, 59, 67, 75, 83, 91, 107, 131, 163, 187, 211, 239, 263, hub},
	}
	deltas := []graph.Delta{
		{RemoveEdges: edges},
		{AddEdges: edges[:2]},
		{AddNodes: 1, AddEdges: []graph.Edge{{U: 300, V: 42}, {U: 300, V: hub}}},
		{AddEdges: []graph.Edge{spoke}},
		{AddEdges: edges[2:], RemoveEdges: []graph.Edge{spoke}},
	}
	all := func(n int) []int {
		out := make([]int, n)
		for u := range out {
			out[u] = u
		}
		return out
	}

	type answer struct {
		gains, top []float64
		nodes      []int
		objective  float64
		memo       string
	}
	read := func(e *Engine, prob Problem, set []int) answer {
		t.Helper()
		gr, _ := e.Graph("test")
		gain, err := e.Gain(ctx, GainRequest{Graph: "test", Problem: prob, L: L, R: R, Seed: seed, Set: set, Nodes: all(gr.N())})
		if err != nil {
			t.Fatal(err)
		}
		obj, err := e.Objective(ctx, ObjectiveRequest{Graph: "test", Problem: prob, L: L, R: R, Seed: seed, Set: set})
		if err != nil {
			t.Fatal(err)
		}
		top, err := e.TopGains(ctx, TopGainsRequest{Graph: "test", Problem: prob, L: L, R: R, Seed: seed, Set: set, B: 10})
		if err != nil {
			t.Fatal(err)
		}
		return answer{gains: gain.Gains, top: top.Gains, nodes: top.Nodes, objective: obj.Objective, memo: gain.Memo}
	}
	for _, prob := range []Problem{Problem1, Problem2} {
		for _, set := range sets {
			read(e, prob, set)
		}
	}

	ref := g
	for step, d := range deltas {
		res, err := e.ApplyDelta(ctx, ApplyDeltaRequest{Graph: "test", Delta: d})
		if err != nil {
			t.Fatal(err)
		}
		if res.IndexesRepaired != 1 || res.IndexesDropped != 0 || res.MemosDropped != 0 {
			t.Fatalf("step %d: delta result %+v, want the index and every table carried", step, res)
		}
		if ref, _, err = ref.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		cold := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": ref}})
		for _, prob := range []Problem{Problem1, Problem2} {
			for _, set := range sets {
				name := fmt.Sprintf("step %d: p%d |S|=%d", step, int(prob), len(set))
				got, want := read(e, prob, set), read(cold, prob, set)
				if len(set) > 0 && got.memo != MemoHit {
					t.Fatalf("%s: gain memo %q, want %q (a carried table)", name, got.memo, MemoHit)
				}
				if !bitsEqual(got.gains, want.gains) || !bitsEqual(got.top, want.top) || !reflect.DeepEqual(got.nodes, want.nodes) ||
					math.Float64bits(got.objective) != math.Float64bits(want.objective) {
					t.Fatalf("%s: carried answers differ from a cold engine:\n got obj %v top %v %v\nwant obj %v top %v %v",
						name, got.objective, got.nodes, got.top, want.objective, want.nodes, want.top)
				}
			}
		}
	}
}

// bitsEqual compares float slices bit for bit.
func bitsEqual(a, b []float64) bool {
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
