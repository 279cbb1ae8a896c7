package index

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// layoutGraphs covers the walk shapes the builder must lay out: an
// undirected graph, a directed graph whose sinks stop walks early, and a
// weighted graph that samples neighbors through the alias tables. Every node
// count is prime, so no worker count in layoutWorkers divides it.
func layoutGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	ba, err := graph.BarabasiAlbert(101, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	db := graph.NewBuilder(97, graph.Directed)
	for u := 0; u < 97; u++ {
		if u%5 == 0 {
			continue // a sink: walks reaching u stop there
		}
		for _, v := range []int{(u*13 + 5) % 97, (u*31 + 11) % 97} {
			if v != u {
				db.AddEdge(u, v)
			}
		}
	}
	dg, err := db.Build()
	if err != nil {
		t.Fatal(err)
	}
	wb := graph.NewBuilder(89, graph.Undirected)
	for u := 0; u < 89; u++ {
		wb.AddWeightedEdge(u, (u+1)%89, 1+float64(u%5))
		if v := (u*7 + 3) % 89; v != u {
			wb.AddWeightedEdge(u, v, 0.5+float64(u%3))
		}
	}
	wg, err := wb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !wg.Weighted() {
		t.Fatal("weighted graph built unweighted")
	}
	return map[string]*graph.Graph{"undirected": ba, "directed-sinks": dg, "weighted": wg}
}

var layoutWorkers = []int{1, 2, 3, 4, 7}

// oracleWalks regenerates, independently of the builder, the walks
// BuildRangeWorkers samples: walk i of node w is seeded by
// rng.Mix(seed, w, r0+i), steps to PickNeighbor(u, Float64()) up to L times
// and stops early at a sink.
func oracleWalks(g *graph.Graph, L int, seed uint64, r0, r1 int) [][][]int32 {
	walks := make([][][]int32, g.N())
	var rnd rng.Source
	for w := range walks {
		walks[w] = make([][]int32, r1-r0)
		for i := range walks[w] {
			rnd.Seed(rng.Mix(seed, uint64(w), uint64(r0+i)))
			walk := []int32{int32(w)}
			u := w
			for j := 1; j <= L; j++ {
				v := g.PickNeighbor(u, rnd.Float64())
				if v < 0 {
					break
				}
				walk = append(walk, int32(v))
				u = v
			}
			walks[w][i] = walk
		}
	}
	return walks
}

// TestBuildLayoutOracle pins the exact CSR layout of BuildRangeWorkers: for
// every worker count it must equal BuildFromWalks over independently
// regenerated walks, every row must list its sources strictly ascending,
// and the serialized store must be byte-identical across worker counts.
// Repair parity, spill skip-respill and the shard parity suites depend on
// this canonical layout.
func TestBuildLayoutOracle(t *testing.T) {
	const seed = 42
	for gname, g := range layoutGraphs(t) {
		for _, L := range []int{0, 1, 6} {
			for _, rr := range [][2]int{{0, 5}, {3, 9}} {
				r0, r1 := rr[0], rr[1]
				t.Run(fmt.Sprintf("%s/L=%d/r=[%d,%d)", gname, L, r0, r1), func(t *testing.T) {
					want, err := BuildFromWalks(g, L, r1-r0, oracleWalks(g, L, seed, r0, r1))
					if err != nil {
						t.Fatal(err)
					}
					if L > 0 && want.Entries() == 0 {
						t.Fatal("oracle index is empty; the case exercises nothing")
					}
					var store0 []byte
					for _, workers := range layoutWorkers {
						got, err := BuildRangeWorkers(g, L, seed, r0, r1, workers)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.ids, want.ids) || !slices.Equal(got.hops, want.hops) {
							t.Fatalf("workers=%d: offsets/ids/hops differ from the walk oracle", workers)
						}
						assertRowsAscending(t, got)
						var buf bytes.Buffer
						if _, err := got.WriteStore(&buf, true); err != nil {
							t.Fatal(err)
						}
						if store0 == nil {
							store0 = buf.Bytes()
						} else if !bytes.Equal(buf.Bytes(), store0) {
							t.Fatalf("workers=%d: WriteStore bytes differ from workers=%d", workers, layoutWorkers[0])
						}
					}
				})
			}
		}
	}
}

// assertRowsAscending checks that every row of a compact flat index lists
// its sources in strictly ascending order.
func assertRowsAscending(t *testing.T, ix *Index) {
	t.Helper()
	for k := 0; k+1 < len(ix.offsets); k++ {
		row := ix.ids[ix.offsets[k]:ix.offsets[k+1]]
		for e := 1; e < len(row); e++ {
			if row[e-1] >= row[e] {
				t.Fatalf("row %d not strictly ascending by source: %v", k, row)
			}
		}
	}
}

// TestBuildSharedCounterFallback forces the shared atomic-counter path (a
// zero private-counter budget) and checks that it materializes the same
// entries per row as the private path. Rows on the shared path fill in
// scheduling order, so only the per-row multisets are compared.
func TestBuildSharedCounterFallback(t *testing.T) {
	type entry struct {
		id  int32
		hop uint16
	}
	sortedRow := func(ix *Index, k int) []entry {
		lo, hi := ix.offsets[k], ix.offsets[k+1]
		row := make([]entry, 0, hi-lo)
		for e := lo; e < hi; e++ {
			row = append(row, entry{ix.ids[e], ix.hops[e]})
		}
		slices.SortFunc(row, func(a, b entry) int { return cmp.Compare(a.id, b.id) })
		return row
	}
	const seed = 7
	for gname, g := range layoutGraphs(t) {
		want, err := BuildRangeWorkers(g, 6, seed, 3, 9, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range layoutWorkers {
			t.Run(fmt.Sprintf("%s/workers=%d", gname, workers), func(t *testing.T) {
				got, err := buildRange(g, 6, seed, 3, 9, workers, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.offsets, want.offsets) {
					t.Fatal("shared-counter offsets differ from the private path")
				}
				for k := 0; k+1 < len(want.offsets); k++ {
					if !slices.Equal(sortedRow(got, k), sortedRow(want, k)) {
						t.Fatalf("row %d: shared-counter entries differ from the private path", k)
					}
				}
			})
		}
	}
}
