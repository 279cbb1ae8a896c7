package graph

import (
	"errors"
	"math"
	"testing"
)

// rebuildWith reconstructs g's edge set through a fresh Builder after
// applying d by hand — the from-scratch referee for ApplyDelta.
func rebuildWith(t *testing.T, g *Graph, d Delta) *Graph {
	t.Helper()
	removed := make(map[[2]int]bool)
	for _, e := range d.RemoveEdges {
		removed[pairKey(g.kind, e.U, e.V)] = true
	}
	b := NewBuilder(g.N()+d.AddNodes, g.Kind())
	g.Edges(func(u, v int, w float64) bool {
		if !removed[pairKey(g.kind, u, v)] {
			b.AddWeightedEdge(u, v, w)
		}
		return true
	})
	for _, e := range d.AddEdges {
		w := e.W
		if w == 0 {
			w = 1
		}
		b.AddWeightedEdge(e.U, e.V, w)
	}
	ng, err := b.Build()
	if err != nil {
		t.Fatalf("referee rebuild: %v", err)
	}
	return ng
}

func TestApplyDeltaMatchesRebuild(t *testing.T) {
	base := MustFromEdgeList(6, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	deltas := []Delta{
		{AddEdges: []Edge{{U: 0, V: 5}}},
		{RemoveEdges: []Edge{{U: 2, V: 3}}},
		{AddNodes: 2, AddEdges: []Edge{{U: 6, V: 7}, {U: 0, V: 6}}},
		{AddEdges: []Edge{{U: 1, V: 4}}, RemoveEdges: []Edge{{U: 0, V: 1}, {U: 4, V: 5}}},
	}
	g := base
	wantEpoch := uint64(0)
	for i, d := range deltas {
		ng, touched, err := g.ApplyDelta(d)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if g.Epoch() != wantEpoch {
			t.Fatalf("delta %d mutated the receiver's epoch", i)
		}
		wantEpoch++
		if ng.Epoch() != wantEpoch {
			t.Fatalf("delta %d: epoch = %d, want %d", i, ng.Epoch(), wantEpoch)
		}
		ref := rebuildWith(t, g, d)
		if ng.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("delta %d: mutated fingerprint %x != rebuilt %x", i, ng.Fingerprint(), ref.Fingerprint())
		}
		if err := ng.Validate(); err != nil {
			t.Fatalf("delta %d: invalid graph: %v", i, err)
		}
		if len(touched) == 0 {
			t.Fatalf("delta %d: no touched nodes", i)
		}
		for _, u := range touched {
			if u < 0 || u >= ng.N() {
				t.Fatalf("delta %d: touched node %d out of range", i, u)
			}
		}
		g = ng
	}
}

func TestApplyDeltaDirectedTouchesTailOnly(t *testing.T) {
	b := NewBuilder(4, Directed)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ng, touched, err := g.ApplyDelta(Delta{AddEdges: []Edge{{U: 2, V: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(touched) != 1 || touched[0] != 2 {
		t.Fatalf("touched = %v, want [2] (directed arcs touch the tail only)", touched)
	}
	if !ng.HasEdge(2, 3) || ng.HasEdge(3, 2) {
		t.Fatalf("directed arc landed wrong: 2->3=%v 3->2=%v", ng.HasEdge(2, 3), ng.HasEdge(3, 2))
	}
}

func TestApplyDeltaWeighted(t *testing.T) {
	b := NewBuilder(3, Undirected)
	b.AddWeightedEdge(0, 1, 2.5)
	b.AddWeightedEdge(1, 2, 0.5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := Delta{AddEdges: []Edge{{U: 0, V: 2, W: 3}}, RemoveEdges: []Edge{{U: 1, V: 2}}}
	ng, _, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	ref := rebuildWith(t, g, d)
	if ng.Fingerprint() != ref.Fingerprint() {
		t.Fatalf("weighted mutation fingerprint mismatch")
	}
	if got := ng.TransitionProb(0, 2); got != ref.TransitionProb(0, 2) {
		t.Fatalf("transition prob diverged: %v vs %v", got, ref.TransitionProb(0, 2))
	}
}

func TestApplyDeltaValidation(t *testing.T) {
	g := MustFromEdgeList(4, [][2]int{{0, 1}, {1, 2}})
	cases := []struct {
		name string
		d    Delta
		want error
	}{
		{"add existing", Delta{AddEdges: []Edge{{U: 1, V: 0}}}, ErrEdgeExists},
		{"remove missing", Delta{RemoveEdges: []Edge{{U: 0, V: 3}}}, ErrEdgeMissing},
		{"self loop", Delta{AddEdges: []Edge{{U: 2, V: 2}}}, ErrSelfLoop},
		{"out of range", Delta{AddEdges: []Edge{{U: 0, V: 9}}}, ErrNodeRange},
		{"remove new node edge", Delta{AddNodes: 1, RemoveEdges: []Edge{{U: 0, V: 4}}}, ErrNodeRange},
		{"negative nodes", Delta{AddNodes: -1}, ErrNegativeN},
		{"dup add", Delta{AddEdges: []Edge{{U: 0, V: 2}, {U: 2, V: 0}}}, ErrDuplicateEdge},
		{"add and remove same", Delta{AddEdges: []Edge{{U: 0, V: 1}}, RemoveEdges: []Edge{{U: 0, V: 1}}}, ErrDuplicateEdge},
		{"weight on unweighted", Delta{AddEdges: []Edge{{U: 0, V: 3, W: 2}}}, ErrBadWeight},
	}
	fp := g.Fingerprint()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := g.ApplyDelta(tc.d); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
	if g.Fingerprint() != fp || g.Epoch() != 0 {
		t.Fatal("failed deltas must leave the receiver untouched")
	}
}

// TestApplyDeltaRejectsNodeOverflow asserts node growth past the int32 id
// space fails with ErrNodeRange before anything is allocated for it, also
// when the new node count would overflow int.
func TestApplyDeltaRejectsNodeOverflow(t *testing.T) {
	g := MustFromEdgeList(4, [][2]int{{0, 1}, {1, 2}})
	for _, add := range []int{1 << 40, math.MaxInt32, math.MaxInt32 - 3, math.MaxInt} {
		if _, _, err := g.ApplyDelta(Delta{AddNodes: add}); !errors.Is(err, ErrNodeRange) {
			t.Fatalf("AddNodes=%d: err = %v, want ErrNodeRange", add, err)
		}
	}
	if g.Epoch() != 0 {
		t.Fatal("rejected deltas must leave the receiver untouched")
	}
}

func TestApplyDeltaAddIsolatedNodes(t *testing.T) {
	g := MustFromEdgeList(2, [][2]int{{0, 1}})
	ng, touched, err := g.ApplyDelta(Delta{AddNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ng.N() != 5 || ng.M() != 1 {
		t.Fatalf("n=%d m=%d, want 5/1", ng.N(), ng.M())
	}
	if len(touched) != 0 {
		t.Fatalf("touched = %v, want none (isolated additions change no rows)", touched)
	}
	if ng.Degree(4) != 0 {
		t.Fatalf("new node degree = %d", ng.Degree(4))
	}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
}
