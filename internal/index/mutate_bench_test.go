package index

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/rng"
)

// BenchmarkIncrementalRepair measures Repair proper (the graph-side
// ApplyDelta copy runs outside the timer) along the two axes of the claim
// "repair cost scales with the delta, not the graph": the delta axis grows
// the toggled-edge batch on a fixed graph, the graph axis grows the graph
// under a fixed batch. Each iteration toggles the same k edges (remove on
// even epochs, re-add on odd), so every iteration disturbs the same walk
// population; one warm-up toggle before the timer pays the one-off
// compact→patched transition. Contrast with BenchmarkIncrementalRepair/
// rebuild, which pays the full nRL build a repair avoids.
//
// The delta and graph axes run on Erdős–Rényi graphs of fixed average
// degree, where each node is visited by ≈ R·L walks regardless of n, so the
// affected-walk population per toggled edge is n-independent and the axes
// isolate the algorithm. (On a scale-free graph, toggling a hub edge is
// intrinsically expensive: the affected population is every walk that
// traverses the hub, which grows with the graph — that cost is the
// workload's, not the repair's.)
//
// The powerlaw sub-benchmark is that scale-free case at the repository
// benchmark's mutate-mixed shape: PowerLawExact(5000, 30000, 1), L=6, R=50,
// and 8 seeded edges absent from the graph toggled in (odd epochs) and out
// (even epochs), as that workload's deltas are; rebuild/powerlaw is the
// single-worker build it displaces.
func BenchmarkIncrementalRepair(b *testing.B) {
	const L, R, seed = 8, 8, 42

	spreadEdges := func(g *graph.Graph, k int) []graph.Edge {
		total := g.M()
		if total < k {
			b.Fatalf("graph has only %d edges, need %d", total, k)
		}
		stride := total / k
		edges := make([]graph.Edge, 0, k)
		i := 0
		g.Edges(func(u, v int, w float64) bool {
			if i%stride == 0 && len(edges) < k {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
			i++
			return len(edges) < k
		})
		return edges
	}

	// repairLoop toggles edges (present in g when present is set) through
	// ApplyDelta and times the Repair of an L-step, R-replicate index.
	repairLoop := func(b *testing.B, g *graph.Graph, L, R int, edges []graph.Edge, present bool) {
		ix, err := Build(g, L, R, seed)
		if err != nil {
			b.Fatal(err)
		}
		toggle := func() (*graph.Graph, []int) {
			var d graph.Delta
			if present {
				d = graph.Delta{RemoveEdges: edges}
			} else {
				d = graph.Delta{AddEdges: edges}
			}
			present = !present
			ng, touched, err := g.ApplyDelta(d)
			if err != nil {
				b.Fatal(err)
			}
			return ng, touched
		}
		ng, touched := toggle()
		if err := ix.Repair(ng, touched); err != nil { // warm up: enter patched layout
			b.Fatal(err)
		}
		g = ng
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ng, touched := toggle()
			b.StartTimer()
			if err := ix.Repair(ng, touched); err != nil {
				b.Fatal(err)
			}
			g = ng
		}
	}

	erLoop := func(b *testing.B, n, k int) {
		g, err := graph.ErdosRenyi(n, 4*n, 1)
		if err != nil {
			b.Fatal(err)
		}
		repairLoop(b, g, L, R, spreadEdges(g, k), true)
	}
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("delta/n=20000/k=%d", k), func(b *testing.B) { erLoop(b, 20000, k) })
	}
	for _, n := range []int{5000, 20000, 80000} {
		b.Run(fmt.Sprintf("graph/k=8/n=%d", n), func(b *testing.B) { erLoop(b, n, 8) })
	}
	powerLaw := func(b *testing.B) *graph.Graph {
		g, err := dataset.PowerLawExact(5000, 30000, 1)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	b.Run("powerlaw/n=5000/k=8", func(b *testing.B) {
		g := powerLaw(b)
		repairLoop(b, g, 6, 50, absentEdges(g, 8, 7), false)
	})
	// The alternative a repair displaces: a from-scratch rebuild at each
	// graph size (delta-independent).
	for _, n := range []int{5000, 20000, 80000} {
		b.Run(fmt.Sprintf("rebuild/n=%d", n), func(b *testing.B) {
			g, err := graph.ErdosRenyi(n, 4*n, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(g, L, R, seed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("rebuild/powerlaw/n=5000", func(b *testing.B) {
		g := powerLaw(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Build(g, 6, 50, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// absentEdges draws k distinct node pairs, seeded, that are not edges of g.
func absentEdges(g *graph.Graph, k int, seed uint64) []graph.Edge {
	r := rng.New(seed)
	n := g.N()
	edges := make([]graph.Edge, 0, k)
	seen := make(map[[2]int]bool, k)
	for len(edges) < k {
		u, v := r.Intn(n), r.Intn(n)
		key := [2]int{min(u, v), max(u, v)}
		if u == v || seen[key] || g.HasEdge(u, v) {
			continue
		}
		seen[key] = true
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return edges
}
