package index

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestBuildSharedCounterCanonical forces the shared atomic-counter build
// path (a zero private-counter budget) with several workers and asserts the
// CSR arrays equal the private one-worker build's exactly: rows must come
// out sorted by source whichever counters filled them, or Repair parity,
// the spill identity check and the shard merge would see a different index
// at a different worker count.
func TestBuildSharedCounterCanonical(t *testing.T) {
	g, err := graph.BarabasiAlbert(3000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildRangeWorkers(g, 6, 5, 0, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := buildRange(g, 6, 5, 0, 8, workers, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.offsets, want.offsets) {
				t.Fatal("offsets differ from the private one-worker build")
			}
			if !slices.Equal(got.ids, want.ids) {
				t.Fatal("ids differ from the private one-worker build")
			}
			if !slices.Equal(got.hops, want.hops) {
				t.Fatal("hops differ from the private one-worker build")
			}
		})
	}
}

// TestPatchedReadParity repairs an index a few times without compacting it,
// so its rows are read through ends (the patched layout), and asserts the
// whole D-table read surface — Gain, Update, EstimateObjective,
// EmptySetGains, MaxRowLen and AppendReplicateGainSums — matches a fresh
// rebuild bit for bit, on a flat and on a chunked index.
func TestPatchedReadParity(t *testing.T) {
	const L, R, seed = 5, 12, 9
	deltas := []graph.Delta{
		{AddEdges: []graph.Edge{{U: 3, V: 90}, {U: 0, V: 111}}},
		{AddNodes: 2, AddEdges: []graph.Edge{{U: 150, V: 151}, {U: 7, V: 150}}},
		{RemoveEdges: []graph.Edge{{U: 3, V: 90}}},
	}
	builds := map[string]func(*graph.Graph) (*Index, error){
		"flat": func(g *graph.Graph) (*Index, error) { return BuildWorkers(g, L, R, seed, 2) },
		"chunked": func(g *graph.Graph) (*Index, error) {
			return BuildChunkedWorkers(g, L, R, seed, 5, 2)
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			g, err := graph.BarabasiAlbert(150, 3, 11)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := build(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range deltas {
				g = applyAndRepair(t, ix, g, d)
			}
			parts := ix.parts
			if parts == nil {
				parts = []*Index{ix}
			}
			for c, pt := range parts {
				if pt.ends == nil {
					t.Fatalf("chunk %d was compacted; the test needs the patched layout", c)
				}
			}
			ref, err := Build(g, L, R, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []Problem{Problem1, Problem2} {
				t.Run(p.String(), func(t *testing.T) {
					assertReadParity(t, ref, ix, p)
				})
			}
		})
	}
}
