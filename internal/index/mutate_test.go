package index

import (
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// applyAndRepair applies d to g, repairs ix in place, and returns the
// mutated graph.
func applyAndRepair(t testing.TB, ix *Index, g *graph.Graph, d graph.Delta) *graph.Graph {
	t.Helper()
	ng, touched, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if err := ix.Repair(ng, touched); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	return ng
}

// assertRebuildParity asserts the repaired index is bit-identical to a fresh
// build against its current graph: same row contents walk-for-walk, and —
// once compacted — the exact same CSR arrays.
func assertRebuildParity(t testing.TB, ix *Index, workers int) {
	t.Helper()
	ref, err := BuildRangeWorkers(ix.Graph(), ix.L(), ix.Seed(), ix.R0(), ix.R0()+ix.R(), workers)
	if err != nil {
		t.Fatalf("reference rebuild: %v", err)
	}
	n := ix.Graph().N()
	for v := 0; v < n; v++ {
		for i := 0; i < ix.R(); i++ {
			gotIDs, gotHops := ix.Row(i, v)
			wantIDs, wantHops := ref.Row(i, v)
			if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotHops, wantHops) {
				t.Fatalf("row (%d,%d) diverged: got %v/%v want %v/%v", i, v, gotIDs, gotHops, wantIDs, wantHops)
			}
		}
	}
	c, err := ix.compacted()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.offsets, ref.offsets) || !reflect.DeepEqual(c.ids, ref.ids) || !reflect.DeepEqual(c.hops, ref.hops) {
		t.Fatal("compacted repair is not bit-identical to a fresh rebuild")
	}
	if c.gepoch != ref.gepoch {
		t.Fatalf("graph epoch diverged: repaired %d, rebuilt %d", c.gepoch, ref.gepoch)
	}
	if got, want := ix.Entries(), ref.Entries(); got != want {
		t.Fatalf("Entries() = %d, want %d", got, want)
	}
}

// TestRepairMatchesRebuild drives a delta sequence (edge adds, removals,
// node growth, a structural round-trip) through Repair and asserts parity
// with a from-scratch rebuild after every step, across worker counts and a
// partial replicate range.
func TestRepairMatchesRebuild(t *testing.T) {
	deltas := []graph.Delta{
		{AddEdges: []graph.Edge{{U: 3, V: 90}, {U: 0, V: 111}}},
		{RemoveEdges: []graph.Edge{{U: 3, V: 90}}},
		{AddNodes: 2, AddEdges: []graph.Edge{{U: 150, V: 151}, {U: 7, V: 150}}},
		{AddEdges: []graph.Edge{{U: 3, V: 90}}}, // round-trips delta 2's removal
		{RemoveEdges: []graph.Edge{{U: 0, V: 111}, {U: 7, V: 150}}},
	}
	builds := []struct {
		name    string
		r0, r1  int
		workers int
	}{
		{"full/workers=1", 0, 6, 1},
		{"full/workers=4", 0, 6, 4},
		{"partial[2,5)/workers=2", 2, 5, 2},
	}
	for _, bc := range builds {
		t.Run(bc.name, func(t *testing.T) {
			g, err := graph.BarabasiAlbert(150, 3, 11)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := BuildRangeWorkers(g, 6, 9, bc.r0, bc.r1, bc.workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range deltas {
				g = applyAndRepair(t, ix, g, d)
				if ix.GraphEpoch() != uint64(i+1) {
					t.Fatalf("delta %d: GraphEpoch = %d, want %d", i, ix.GraphEpoch(), i+1)
				}
				assertRebuildParity(t, ix, bc.workers)
			}
		})
	}
}

// TestRepairDirectedAndWeighted covers the graph variants whose adjacency
// semantics differ: directed arcs touch only the tail, weighted graphs
// resample through rebuilt alias tables.
func TestRepairDirectedAndWeighted(t *testing.T) {
	t.Run("directed", func(t *testing.T) {
		b := graph.NewBuilder(40, graph.Directed)
		for u := 0; u < 39; u++ {
			b.AddEdge(u, u+1)
			b.AddEdge(u, (u*7+3)%40)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(g, 5, 4, 21)
		if err != nil {
			t.Fatal(err)
		}
		g = applyAndRepair(t, ix, g, graph.Delta{AddEdges: []graph.Edge{{U: 39, V: 0}}})
		assertRebuildParity(t, ix, 1)
		g = applyAndRepair(t, ix, g, graph.Delta{RemoveEdges: []graph.Edge{{U: 0, V: 1}}})
		assertRebuildParity(t, ix, 1)
	})
	t.Run("weighted", func(t *testing.T) {
		b := graph.NewBuilder(30, graph.Undirected)
		for u := 0; u < 29; u++ {
			b.AddWeightedEdge(u, u+1, float64(u%5)+0.5)
			if w := (u*3 + 2) % 30; w != u {
				b.AddWeightedEdge(u, w, 2)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(g, 5, 4, 22)
		if err != nil {
			t.Fatal(err)
		}
		g = applyAndRepair(t, ix, g, graph.Delta{AddEdges: []graph.Edge{{U: 0, V: 15, W: 3.25}}})
		assertRebuildParity(t, ix, 1)
		_ = applyAndRepair(t, ix, g, graph.Delta{RemoveEdges: []graph.Edge{{U: 0, V: 1}}})
		assertRebuildParity(t, ix, 1)
	})
}

// TestRepairPowerLawLockstep drives the deltas that exercise the lockstep
// replay's divergence cases on a power-law graph — batches of 8 absent edges
// added and then removed (the mutate-mixed benchmark's deltas), a hub edge
// added and removed, an isolated old node gaining its first edge (its old
// walks dead-end at once) and losing it again, a new node wired to the hub —
// and asserts parity with a rebuild after every delta, on undirected,
// directed and weighted variants and a partial replicate range.
func TestRepairPowerLawLockstep(t *testing.T) {
	base, err := dataset.PowerLawExact(800, 4800, 1)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name     string
		kind     graph.Kind
		weighted bool
		r0, r1   int
	}{
		{"undirected", graph.Undirected, false, 0, 8},
		{"undirected/partial[3,9)", graph.Undirected, false, 3, 9},
		{"directed", graph.Directed, false, 0, 8},
		{"weighted", graph.Undirected, true, 0, 8},
	}
	for _, vc := range variants {
		t.Run(vc.name, func(t *testing.T) {
			// weight gives the variant's edge weights (0: the default).
			weight := func(u, v int) float64 {
				if !vc.weighted {
					return 0
				}
				return float64((u+v)%4) + 0.5
			}
			b := graph.NewBuilder(base.N(), vc.kind)
			base.Edges(func(u, v int, _ float64) bool {
				if (u+v)%2 == 1 { // directed: orient half the arcs downward
					u, v = v, u
				}
				if vc.weighted {
					b.AddWeightedEdge(u, v, weight(u, v))
				} else {
					b.AddEdge(u, v)
				}
				return true
			})
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			ix, err := BuildRangeWorkers(g, 6, 5, vc.r0, vc.r1, 2)
			if err != nil {
				t.Fatal(err)
			}
			step := func(d graph.Delta) {
				t.Helper()
				for i := range d.AddEdges {
					d.AddEdges[i].W = weight(d.AddEdges[i].U, d.AddEdges[i].V)
				}
				g = applyAndRepair(t, ix, g, d)
				assertRebuildParity(t, ix, 1)
			}
			edge := func(u, v int) []graph.Edge { return []graph.Edge{{U: u, V: v}} }

			for seed := uint64(1); seed <= 3; seed++ {
				batch := absentEdges(g, 8, seed)
				step(graph.Delta{AddEdges: batch})
				step(graph.Delta{RemoveEdges: batch})
			}

			hub := 0
			for u := 1; u < g.N(); u++ {
				if g.Degree(u) > g.Degree(hub) {
					hub = u
				}
			}
			far := g.N() - 1
			for g.HasEdge(hub, far) || far == hub {
				far--
			}
			step(graph.Delta{AddEdges: edge(hub, far)})
			step(graph.Delta{RemoveEdges: edge(hub, far)})

			iso := g.N()
			step(graph.Delta{AddNodes: 1})
			step(graph.Delta{AddEdges: edge(iso, far)})
			step(graph.Delta{RemoveEdges: edge(iso, far)})

			fresh := g.N()
			wire := []graph.Edge{{U: fresh, V: hub}, {U: iso, V: fresh}}
			if vc.kind == graph.Directed {
				wire = append(wire, graph.Edge{U: hub, V: fresh})
			}
			step(graph.Delta{AddNodes: 1, AddEdges: wire})
		})
	}
}

// TestRepairUnsortedRows repairs an index whose rows are not sorted by
// source — a build that falls back to shared counters leaves them in
// scheduling order — and asserts every row still holds exactly a rebuild's
// entries. The rows are reversed by hand so the disorder is deterministic.
func TestRepairUnsortedRows(t *testing.T) {
	g, err := graph.BarabasiAlbert(150, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := buildRange(g, 6, 9, 0, 6, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k+1 < len(ix.offsets); k++ {
		slices.Reverse(ix.ids[ix.offsets[k]:ix.offsets[k+1]])
		slices.Reverse(ix.hops[ix.offsets[k]:ix.offsets[k+1]])
	}
	deltas := []graph.Delta{
		{AddEdges: []graph.Edge{{U: 3, V: 90}, {U: 0, V: 111}}},
		{RemoveEdges: []graph.Edge{{U: 3, V: 90}}},
		{AddNodes: 1, AddEdges: []graph.Edge{{U: 150, V: 0}}},
	}
	for _, d := range deltas {
		g = applyAndRepair(t, ix, g, d)
		ref, err := Build(g, 6, 6, 9)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			for i := 0; i < ix.R(); i++ {
				gotIDs, gotHops := ix.Row(i, v)
				got := make(map[int32]uint16, len(gotIDs))
				for p, id := range gotIDs {
					got[id] = gotHops[p]
				}
				wantIDs, wantHops := ref.Row(i, v)
				want := make(map[int32]uint16, len(wantIDs))
				for p, id := range wantIDs {
					want[id] = wantHops[p]
				}
				if len(gotIDs) != len(wantIDs) || !maps.Equal(got, want) {
					t.Fatalf("row (%d,%d): got %v/%v want %v/%v", i, v, gotIDs, gotHops, wantIDs, wantHops)
				}
			}
		}
	}
}

// TestRepairRejections covers the guard rails: explicit-walk indexes, epoch
// skew, shrunken graphs, out-of-range touched nodes.
func TestRepairRejections(t *testing.T) {
	g, err := graph.BarabasiAlbert(30, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	g1, touched, err := g.ApplyDelta(graph.Delta{AddEdges: []graph.Edge{{U: 0, V: 20}}})
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := g1.ApplyDelta(graph.Delta{RemoveEdges: []graph.Edge{{U: 0, V: 20}}})
	if err != nil {
		t.Fatal(err)
	}

	walks := make([][][]int32, g.N())
	for w := range walks {
		walks[w] = [][]int32{{int32(w)}}
	}
	fromWalks, err := BuildFromWalks(g, 2, 1, walks)
	if err != nil {
		t.Fatal(err)
	}
	if err := fromWalks.Repair(g1, touched); err != ErrUnrepairable {
		t.Fatalf("BuildFromWalks repair err = %v, want ErrUnrepairable", err)
	}

	ix, err := Build(g, 4, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Repair(g2, touched); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("two-epoch jump err = %v, want epoch mismatch", err)
	}
	if err := ix.Repair(g1, []int{g1.N()}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range touched err = %v, want range error", err)
	}
	if err := ix.Repair(nil, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	// The failed attempts must not have mutated the index.
	if ix.GraphEpoch() != 0 || ix.ends != nil {
		t.Fatal("rejected repair left the index modified")
	}
}

// TestRepairDropsEmptySetMemos asserts the memoized empty-set vectors are
// recomputed against the post-mutation entries (and resized when nodes were
// added) instead of served stale.
func TestRepairDropsEmptySetMemos(t *testing.T) {
	g, err := graph.BarabasiAlbert(60, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, 5, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Problem{Problem1, Problem2} {
		if _, err := ix.EmptySetGains(p); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.EmptySetGainSums(p); err != nil {
			t.Fatal(err)
		}
	}
	g = applyAndRepair(t, ix, g, graph.Delta{AddNodes: 1, AddEdges: []graph.Edge{{U: 0, V: 60}, {U: 1, V: 60}}})
	ref, err := Build(g, 5, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Problem{Problem1, Problem2} {
		got, err := ix.EmptySetGains(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.EmptySetGains(p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%v: post-repair EmptySetGains diverge from rebuild", p)
		}
		gotS, err := ix.EmptySetGainSums(p)
		if err != nil {
			t.Fatal(err)
		}
		wantS, err := ref.EmptySetGainSums(p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotS, wantS) {
			t.Fatalf("%v: post-repair EmptySetGainSums diverge from rebuild", p)
		}
	}
}

// TestWriteToSerializesPatchedAsCompact asserts that writing a patched
// index to disk (WriteStore) emits the canonical compact form without
// mutating the receiver, and that the round-trip preserves the graph epoch.
// The file is raw so its rows keep the compacted entry order byte for byte
// (the compressed encoding sorts each row by id).
func TestWriteToSerializesPatchedAsCompact(t *testing.T) {
	g, err := graph.BarabasiAlbert(50, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, 5, 4, 19)
	if err != nil {
		t.Fatal(err)
	}
	g = applyAndRepair(t, ix, g, graph.Delta{AddEdges: []graph.Edge{{U: 0, V: 30}}})
	if ix.ends == nil {
		t.Fatal("test premise: index should be patched after repair")
	}
	path := t.TempDir() + "/patched.rwdomidx"
	if err := ix.saveAtomic(path, false); err != nil {
		t.Fatal(err)
	}
	if ix.ends == nil {
		t.Fatal("WriteStore compacted the receiver; it must serialize a copy")
	}
	loaded, err := LoadAny(path, g, StoreOptions{})
	if err != nil {
		t.Fatalf("round-trip of a patched index: %v", err)
	}
	if loaded.GraphEpoch() != 1 {
		t.Fatalf("round-tripped GraphEpoch = %d, want 1", loaded.GraphEpoch())
	}
	c, err := ix.compacted()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.offsets, c.offsets) || !reflect.DeepEqual(loaded.ids, c.ids) || !reflect.DeepEqual(loaded.hops, c.hops) {
		t.Fatal("round-trip diverges from the compacted form")
	}
}

// TestRepairCompactsWhenMostlyDead forces enough relocations that the dead
// fraction crosses the threshold and asserts the index lands compact again.
func TestRepairCompactsWhenMostlyDead(t *testing.T) {
	g, err := graph.BarabasiAlbert(40, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, 6, 3, 29)
	if err != nil {
		t.Fatal(err)
	}
	// Toggle a hub's edge repeatedly: every toggle rewrites many rows, so
	// dead storage accumulates until the threshold compaction fires.
	compacted := false
	for k := 0; k < 40; k++ {
		var d graph.Delta
		if g.HasEdge(0, 25) {
			d = graph.Delta{RemoveEdges: []graph.Edge{{U: 0, V: 25}}}
		} else {
			d = graph.Delta{AddEdges: []graph.Edge{{U: 0, V: 25}}}
		}
		g = applyAndRepair(t, ix, g, d)
		if ix.ends == nil && ix.GraphEpoch() > 0 {
			compacted = true
		}
	}
	if !compacted {
		t.Fatal("threshold compaction never fired across 40 churning deltas")
	}
	assertRebuildParity(t, ix, 1)
}

// FuzzApplyDelta drives random delta sequences through ApplyDelta + Repair
// and asserts the incremental index stays walk-for-walk identical to a
// from-scratch rebuild, with a monotone epoch, at every step.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 7, 200, 13, 0, 7, 200, 13}) // toggle the same pair twice
	f.Add([]byte{0, 0, 14, 14, 21, 22})         // AddNodes opcodes and a no-op pair
	f.Fuzz(func(t *testing.T, ops []byte) {
		g, err := graph.ErdosRenyi(24, 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		const L, R, seed = 5, 3, 17
		ix, err := Build(g, L, R, seed)
		if err != nil {
			t.Fatal(err)
		}
		epoch := uint64(0)
		steps := 0
		for k := 0; k+1 < len(ops) && steps < 24; k += 2 {
			a, b := ops[k], ops[k+1]
			n := g.N()
			u, v := int(a)%n, int(b)%n
			var d graph.Delta
			switch {
			case a%7 == 0:
				d = graph.Delta{AddNodes: 1}
			case u == v:
				continue
			case g.HasEdge(u, v):
				d = graph.Delta{RemoveEdges: []graph.Edge{{U: u, V: v}}}
			default:
				d = graph.Delta{AddEdges: []graph.Edge{{U: u, V: v}}}
			}
			ng, touched, err := g.ApplyDelta(d)
			if err != nil {
				t.Fatalf("step %d: ApplyDelta(%+v): %v", steps, d, err)
			}
			if err := ix.Repair(ng, touched); err != nil {
				t.Fatalf("step %d: Repair: %v", steps, err)
			}
			g = ng
			epoch++
			steps++
			if g.Epoch() != epoch || ix.GraphEpoch() != epoch {
				t.Fatalf("step %d: epoch not monotone (graph %d, index %d, want %d)", steps, g.Epoch(), ix.GraphEpoch(), epoch)
			}
			assertRebuildParity(t, ix, 1)
		}
	})
}
