package engine

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// BenchmarkDeltaRecovery measures what one graph delta costs a warm engine,
// on the mutate-mixed workload's graph (PowerLawExact(5000, 30000, 1),
// L=6, R=50): per op one 8-edge delta — alternately adding and removing the
// same edges — then one Gain (two nodes) and one TopGains (B=10) on each of
// the 32 memoized tables (16 five-node sets × 2 problems) at the new epoch. The
// delta's repair and whatever the reads must redo afterwards are both in
// the timing; building the index and memoizing the tables run outside it.
func BenchmarkDeltaRecovery(b *testing.B) {
	g, err := dataset.PowerLawExact(5000, 30000, 1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(Config{Graphs: map[string]*graph.Graph{"bench": g}})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	r := rand.New(rand.NewPCG(1, 2))
	sets := make([][]int, 16)
	for i := range sets {
		for range 5 {
			sets[i] = append(sets[i], r.IntN(g.N()))
		}
	}
	var toggle []graph.Edge
	seen := map[[2]int]bool{}
	for len(toggle) < 8 {
		u, v := r.IntN(g.N()), r.IntN(g.N())
		if key := [2]int{min(u, v), max(u, v)}; u != v && !g.HasEdge(u, v) && !seen[key] {
			seen[key] = true
			toggle = append(toggle, graph.Edge{U: u, V: v})
		}
	}
	nodes := []int{r.IntN(g.N()), r.IntN(g.N())}
	reads := func() {
		for _, p := range []Problem{Problem1, Problem2} {
			for _, set := range sets {
				if _, err := e.Gain(ctx, GainRequest{Graph: "bench", Problem: p, L: 6, R: 50, Seed: 1, Set: set, Nodes: nodes}); err != nil {
					b.Fatal(err)
				}
				if _, err := e.TopGains(ctx, TopGainsRequest{Graph: "bench", Problem: p, L: 6, R: 50, Seed: 1, Set: set, B: 10}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	reads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := graph.Delta{AddEdges: toggle}
		if i%2 == 1 {
			d = graph.Delta{RemoveEdges: toggle}
		}
		if _, err := e.ApplyDelta(ctx, ApplyDeltaRequest{Graph: "bench", Delta: d}); err != nil {
			b.Fatal(err)
		}
		reads()
	}
}
