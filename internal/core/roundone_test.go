package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/index"
)

// sweepOracle is the D-table oracle without the empty-set fast path: every
// gain, round 1 included, is a D-table read. It never touches the index's
// memoized empty-set sums, so it is the reference the memo-backed round 1
// of ApproxWithIndex must reproduce bit for bit.
type sweepOracle struct{ d *index.DTable }

func (o sweepOracle) Gain(u int) float64 { return o.d.Gain(u) }
func (o sweepOracle) Update(u int)       { o.d.Update(u) }
func (o sweepOracle) GainBatch(us []int, out []float64) []float64 {
	return o.d.GainBatch(us, out)
}

// roundOneIndexes builds the index forms ApproxWithIndex must serve from the
// memoized sums: flat, chunked, and flat after three Repairs. Before each
// Repair both problems' sums are memoized (by a select) and the delta adds
// edges at the current round-1 winner — the last one also adds a node — so
// a sum Repair failed to drop would change round 1's pick or gain. The
// deltas are a handful of edges, far below the dead-entry share that makes
// Repair compact, so the repaired index keeps its patched layout.
func roundOneIndexes(t *testing.T, g *graph.Graph, L, R int, seed uint64) map[string]*index.Index {
	t.Helper()
	ctx := context.Background()
	flat, err := index.BuildWorkers(g, L, R, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := index.BuildChunkedWorkers(g, L, R, seed, R/3, 2)
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := index.BuildWorkers(g, L, R, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		var w int
		for _, p := range []index.Problem{index.Problem1, index.Problem2} {
			sel, err := ApproxWithIndex(ctx, repaired, p, 1, greedy.Config{Lazy: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			w = sel.Nodes[0]
		}
		n := g.N()
		delta := graph.Delta{}
		for j := 1; len(delta.AddEdges) < 4; j++ {
			if v := (w + 97*j) % n; v != w && !g.HasEdge(w, v) {
				delta.AddEdges = append(delta.AddEdges, graph.Edge{U: w, V: v})
			}
		}
		if step == 2 {
			delta.AddNodes = 1
			delta.AddEdges = append(delta.AddEdges, graph.Edge{U: w, V: n})
		}
		ng, touched, err := g.ApplyDelta(delta)
		if err != nil {
			t.Fatal(err)
		}
		if err := repaired.Repair(ng, touched); err != nil {
			t.Fatal(err)
		}
		g = ng
	}
	return map[string]*index.Index{"flat": flat, "chunked": chunked, "repaired": repaired}
}

// ApproxWithIndex answers round 1 from Index.EmptySetGainSums; that must
// select and record exactly what greedy.Run over a plain D-table sweep does
// — same nodes, same gain bits, same Evaluations — for both problems, both
// drivers, one and two workers, and every index form, including one whose
// sums were memoized before a Repair.
func TestRoundOneFromMemoMatchesSweep(t *testing.T) {
	g, err := dataset.PowerLawExact(800, 4800, 3)
	if err != nil {
		t.Fatal(err)
	}
	const L, R, k = 5, 24, 12
	ctx := context.Background()
	for name, ix := range roundOneIndexes(t, g, L, R, 11) {
		for _, p := range []index.Problem{index.Problem1, index.Problem2} {
			for _, lazy := range []bool{false, true} {
				for _, workers := range []int{1, 2} {
					cfg := greedy.Config{Lazy: lazy, Workers: workers}
					got, err := ApproxWithIndex(ctx, ix, p, k, cfg)
					if err != nil {
						t.Fatal(err)
					}
					d, err := ix.NewDTable(p)
					if err != nil {
						t.Fatal(err)
					}
					want, err := greedy.Run(ctx, ix.Graph().N(), k, sweepOracle{d}, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.Nodes, want.Selected) {
						t.Fatalf("%s %v lazy=%v workers=%d: nodes %v, sweep %v", name, p, lazy, workers, got.Nodes, want.Selected)
					}
					for i := range want.Gains {
						if math.Float64bits(got.Gains[i]) != math.Float64bits(want.Gains[i]) {
							t.Fatalf("%s %v lazy=%v workers=%d: gain[%d] %v, sweep %v", name, p, lazy, workers, i, got.Gains[i], want.Gains[i])
						}
					}
					if got.Evaluations != want.Evaluations {
						t.Fatalf("%s %v lazy=%v workers=%d: %d evaluations, sweep %d", name, p, lazy, workers, got.Evaluations, want.Evaluations)
					}
				}
			}
		}
	}
}
