package index

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/graph"
)

// warmDeltas returns a delta sequence over g — 8-edge adds and their
// removal, an edge at the highest-degree node, and new nodes wired to
// member — with the graphs it passes through (graphs[i+1] is graphs[i]
// after deltas[i]).
func warmDeltas(t *testing.T, g *graph.Graph, member int) ([]graph.Delta, []*graph.Graph) {
	t.Helper()
	hub := 0
	for u := range g.N() {
		if g.Degree(u) > g.Degree(hub) {
			hub = u
		}
	}
	graphs := []*graph.Graph{g}
	var deltas []graph.Delta
	apply := func(d graph.Delta) {
		ng, _, err := graphs[len(graphs)-1].ApplyDelta(d)
		if err != nil {
			t.Fatalf("delta %d: %v", len(deltas), err)
		}
		deltas = append(deltas, d)
		graphs = append(graphs, ng)
	}
	cur := func() *graph.Graph { return graphs[len(graphs)-1] }

	a := absentEdges(g, 8, 51)
	apply(graph.Delta{AddEdges: a})
	apply(graph.Delta{RemoveEdges: a})
	b := absentEdges(cur(), 8, 52)
	apply(graph.Delta{AddEdges: b})
	h := graph.Edge{U: hub, V: 0}
	for ; h.V == hub || cur().HasEdge(hub, h.V); h.V++ {
	}
	apply(graph.Delta{AddEdges: []graph.Edge{h}})
	apply(graph.Delta{RemoveEdges: b})
	n := cur().N()
	apply(graph.Delta{AddNodes: 1, AddEdges: []graph.Edge{{U: n, V: member}, {U: n, V: hub}}})
	apply(graph.Delta{RemoveEdges: []graph.Edge{h}})
	c := absentEdges(cur(), 8, 53)
	apply(graph.Delta{AddEdges: c})
	n = cur().N()
	apply(graph.Delta{AddNodes: 2, AddEdges: []graph.Edge{{U: n, V: n + 1}, {U: n, V: member}, {U: n + 1, V: 3}}})
	apply(graph.Delta{RemoveEdges: c})
	apply(graph.Delta{AddEdges: a})
	return deltas, graphs
}

// warmTable is one table the parity test carries through the deltas,
// with the integer objective sum advanced by ObjectiveDelta.
type warmTable struct {
	set    []int
	tab    *DTable
	objSum int64
}

func membersOfSet(set []int, n int) []bool {
	m := make([]bool, n)
	for _, u := range set {
		m[u] = true
	}
	return m
}

// tableD flattens a table's D entries in storage order (column by column
// for a chunked table).
func tableD(t *DTable) []uint16 {
	if t.tabs == nil {
		return t.d
	}
	var out []uint16
	for _, tb := range t.tabs {
		out = append(out, tb.d...)
	}
	return out
}

// TestRepairPatchesSumsAndTables: after every delta of a sequence, the
// empty-set sums and the D-tables Repair patched equal those of a fresh
// build at the same (L, R, seed) — both problems, sets of 1, 5 and 20 nodes
// (touched nodes among them), on flat, chunked and store-loaded indexes,
// and on a copy repaired while its original stays as it was.
func TestRepairPatchesSumsAndTables(t *testing.T) {
	const L, R, seed, chunk = 5, 12, 23, 5
	g, err := graph.BarabasiAlbert(240, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	member := 41
	deltas, graphs := warmDeltas(t, g, member)
	r := rand.New(rand.NewPCG(7, 3))
	s5 := []int{member, deltas[0].AddEdges[0].U}
	for len(s5) < 5 {
		if u := r.IntN(g.N()); !slices.Contains(s5, u) {
			s5 = append(s5, u)
		}
	}
	s20 := slices.Clone(s5)
	for len(s20) < 20 {
		if u := r.IntN(g.N()); !slices.Contains(s20, u) {
			s20 = append(s20, u)
		}
	}
	hub := deltas[3].AddEdges[0].U

	flat := func(g *graph.Graph) (*Index, error) { return BuildRangeWorkers(g, L, seed, 0, R, 2) }
	chunked := func(g *graph.Graph) (*Index, error) { return BuildChunkedWorkers(g, L, R, seed, chunk, 1) }
	type variant struct {
		name string
		// build makes the index under test; ref the fresh index it is
		// compared with, in the same layout.
		build func(t *testing.T) *Index
		ref   func(g *graph.Graph) (*Index, error)
		// copy repairs a Copy at every step, leaving the original alone.
		copy bool
	}
	built := func(b func(*graph.Graph) (*Index, error)) func(t *testing.T) *Index {
		return func(t *testing.T) *Index {
			ix, err := b(g)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}
	}
	stored := func(b func(*graph.Graph) (*Index, error), v storeVariant) func(t *testing.T) *Index {
		return func(t *testing.T) *Index { return storeLoad(t, built(b)(t), v) }
	}
	variants := []variant{
		{name: "flat", build: built(flat), ref: flat},
		{name: "chunked", build: built(chunked), ref: chunked},
		{name: "flat/copy", build: built(flat), ref: flat, copy: true},
		{name: "chunked/copy", build: built(chunked), ref: chunked, copy: true},
	}
	for _, v := range storeVariants() {
		variants = append(variants,
			variant{name: "store-" + v.name, build: stored(flat, v), ref: flat},
			variant{name: "store-chunked-" + v.name, build: stored(chunked, v), ref: chunked})
	}
	variants = append(variants, variant{name: "store-raw-mmap/copy", build: stored(flat, storeVariants()[0]), ref: flat, copy: true})

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			ix := v.build(t)
			for _, p := range []Problem{Problem1, Problem2} {
				if _, err := ix.EmptySetGainSums(p); err != nil {
					t.Fatal(err)
				}
			}
			var tables []*warmTable
			for _, p := range []Problem{Problem1, Problem2} {
				var s5tab *DTable
				for _, set := range [][]int{{hub}, s5, s20} {
					tab, err := ix.NewDTable(p)
					if err != nil {
						t.Fatal(err)
					}
					if len(set) == len(s20) {
						// Extending S5's table exercises the set record
						// ExtendFrom carries over.
						if err := tab.ExtendFrom(s5tab.Snapshot(), s20[len(s5):]...); err != nil {
							t.Fatal(err)
						}
					} else {
						for _, u := range set {
							tab.Update(u)
						}
					}
					if len(set) == len(s5) {
						s5tab = tab
					}
					tables = append(tables, &warmTable{set: set, tab: tab, objSum: tab.EstimateObjectiveSum(membersOfSet(set, g.N()))})
				}
			}
			tabs := make([]*DTable, len(tables))
			for step, d := range deltas {
				for i, wt := range tables {
					tabs[i] = wt.tab
				}
				ng := graphs[step+1]
				_, touched, err := graphs[step].ApplyDelta(d)
				if err != nil {
					t.Fatal(err)
				}
				target := ix
				var before [2][]int64
				if v.copy {
					for s, p := range []Problem{Problem1, Problem2} {
						sums, _ := ix.EmptySetGainSums(p)
						before[s] = slices.Clone(sums)
					}
					if target, err = ix.Copy(tabs...); err != nil {
						t.Fatal(err)
					}
				}
				if err := target.Repair(ng, touched, tabs...); err != nil {
					t.Fatalf("step %d: Repair: %v", step, err)
				}
				if v.copy {
					// The original is untouched: the rows of the old graph
					// and the sums memoized before the copy.
					if ix.Graph() != graphs[step] {
						t.Fatalf("step %d: the copied index moved to the new graph", step)
					}
					old, err := v.ref(graphs[step])
					if err != nil {
						t.Fatal(err)
					}
					for u := range old.Graph().N() {
						for i := range R {
							gotIDs, gotHops := ix.Row(i, u)
							wantIDs, wantHops := old.Row(i, u)
							if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotHops, wantHops) {
								t.Fatalf("step %d: the copied index's row (%d,%d) changed", step, i, u)
							}
						}
					}
					for s, p := range []Problem{Problem1, Problem2} {
						if sums, _ := ix.EmptySetGainSums(p); !slices.Equal(sums, before[s]) {
							t.Fatalf("step %d: the copied index's %v sums changed", step, p)
						}
					}
					ix = target
				}
				ref, err := v.ref(ng)
				if err != nil {
					t.Fatal(err)
				}
				checkWarmParity(t, fmt.Sprintf("step %d", step), ix, ref, tables)
			}
		})
	}
}

// checkWarmParity compares ix's memoized empty-set sums and each carried
// table with ref's, computed from scratch.
func checkWarmParity(t *testing.T, at string, ix, ref *Index, tables []*warmTable) {
	t.Helper()
	n := ref.Graph().N()
	for _, p := range []Problem{Problem1, Problem2} {
		got, _ := ix.EmptySetGainSums(p)
		want, _ := ref.EmptySetGainSums(p)
		if !slices.Equal(got, want) {
			for u := range min(len(got), len(want)) {
				if got[u] != want[u] {
					t.Fatalf("%s: %v empty-set sum of node %d is %d, fresh build %d", at, p, u, got[u], want[u])
				}
			}
			t.Fatalf("%s: %v empty-set sums over %d nodes, fresh build %d", at, p, len(got), len(want))
		}
		gotG, _ := ix.EmptySetGains(p)
		wantG, _ := ref.EmptySetGains(p)
		if !slices.Equal(gotG, wantG) {
			t.Fatalf("%s: %v empty-set gains differ from a fresh build", at, p)
		}
	}
	for _, wt := range tables {
		p := wt.tab.Problem()
		fresh, err := ref.NewDTable(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range wt.set {
			fresh.Update(u)
		}
		name := fmt.Sprintf("%s: %v |S|=%d", at, p, len(wt.set))
		if !slices.Equal(tableD(wt.tab), tableD(fresh)) {
			t.Fatalf("%s: patched d differs from a fresh table", name)
		}
		for u := range n {
			if got, want := wt.tab.Gain(u), fresh.Gain(u); got != want {
				t.Fatalf("%s: Gain(%d) = %v, fresh table %v", name, u, got, want)
			}
		}
		members := membersOfSet(wt.set, n)
		wt.objSum += wt.tab.ObjectiveDelta()
		want := fresh.ObjectiveSum(members)
		if wt.objSum != want {
			t.Fatalf("%s: objective sum advanced to %d, fresh table %d", name, wt.objSum, want)
		}
		// The rescan reads the saturation memo the patch must have cleared
		// where a row lost a hit; it also re-marks rows for the next step.
		if got := wt.tab.EstimateObjectiveSum(members); got != want {
			t.Fatalf("%s: objective rescan %d, fresh table %d", name, got, want)
		}
	}
}
