package core

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/index"
)

// referenceTop is the obviously-correct O(n log n) selection: sort all
// non-excluded candidates by (gain desc, id asc) and truncate.
func referenceTop(gains []float64, exclude []bool, b int) ([]int, []float64) {
	var ids []int
	for u := range gains {
		if exclude != nil && exclude[u] {
			continue
		}
		ids = append(ids, u)
	}
	sort.Slice(ids, func(i, j int) bool {
		gi, gj := gains[ids[i]], gains[ids[j]]
		if gi != gj {
			return gi > gj
		}
		return ids[i] < ids[j]
	})
	if b > len(ids) {
		b = len(ids)
	}
	ids = ids[:b]
	top := make([]float64, len(ids))
	for i, u := range ids {
		top[i] = gains[u]
	}
	return ids, top
}

func TestTopOfGainsMatchesSortReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rnd.Intn(50)
		gains := make([]float64, n)
		for i := range gains {
			// Coarse values force plenty of ties, exercising the id
			// tie-break at the heap boundary.
			gains[i] = float64(rnd.Intn(5))
		}
		var exclude []bool
		if rnd.Intn(2) == 0 {
			exclude = make([]bool, n)
			for i := range exclude {
				exclude[i] = rnd.Intn(4) == 0
			}
		}
		b := rnd.Intn(n + 3)
		gotN, gotG := TopOfGains(gains, exclude, b)
		wantN, wantG := referenceTop(gains, exclude, b)
		if len(gotN) != len(wantN) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(gotN), len(wantN))
		}
		for i := range wantN {
			if gotN[i] != wantN[i] || math.Float64bits(gotG[i]) != math.Float64bits(wantG[i]) {
				t.Fatalf("trial %d (n=%d b=%d): got %v/%v want %v/%v", trial, n, b, gotN, gotG, wantN, wantG)
			}
		}
	}
}

func TestTopOfGainsEdgeCases(t *testing.T) {
	if n, g := TopOfGains(nil, nil, 5); len(n) != 0 || len(g) != 0 {
		t.Fatalf("empty gains: %v %v", n, g)
	}
	if n, _ := TopOfGains([]float64{1, 2}, nil, 0); len(n) != 0 {
		t.Fatalf("b=0: %v", n)
	}
	all := []bool{true, true, true}
	if n, _ := TopOfGains([]float64{1, 2, 3}, all, 2); len(n) != 0 {
		t.Fatalf("all excluded: %v", n)
	}
}

func TestTopGainsDeterministicAcrossWorkers(t *testing.T) {
	g, err := graph.BarabasiAlbert(500, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(g, 5, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []index.Problem{index.Problem1, index.Problem2} {
		d, err := ix.NewDTable(p)
		if err != nil {
			t.Fatal(err)
		}
		d.Update(3)
		d.Update(77)
		exclude := make([]bool, g.N())
		exclude[3], exclude[77] = true, true

		refN, refG, err := TopGains(context.Background(), d, 12, exclude, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(refN) != 12 {
			t.Fatalf("%v: %d results, want 12", p, len(refN))
		}
		for i := 1; i < len(refG); i++ {
			if refG[i] > refG[i-1] {
				t.Fatalf("%v: gains not descending: %v", p, refG)
			}
		}
		for _, u := range refN {
			if exclude[u] {
				t.Fatalf("%v: excluded node %d in results", p, u)
			}
		}
		for _, workers := range []int{2, 4, 7} {
			gotN, gotG, err := TopGains(context.Background(), d, 12, exclude, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range refN {
				if gotN[i] != refN[i] || math.Float64bits(gotG[i]) != math.Float64bits(refG[i]) {
					t.Fatalf("%v workers=%d: got %v/%v want %v/%v", p, workers, gotN, gotG, refN, refG)
				}
			}
		}
		// Cross-check the winner against a brute-force argmax.
		bestU, bestG := -1, 0.0
		for u := 0; u < g.N(); u++ {
			if exclude[u] {
				continue
			}
			if gu := d.Gain(u); bestU == -1 || gu > bestG {
				bestU, bestG = u, gu
			}
		}
		if refN[0] != bestU {
			t.Fatalf("%v: top-1 = %d, brute force argmax = %d", p, refN[0], bestU)
		}
	}
}

func TestTopGainsValidation(t *testing.T) {
	g, _ := graph.BarabasiAlbert(50, 2, 1)
	ix, _ := index.Build(g, 4, 5, 1)
	d, _ := ix.NewDTable(index.Problem2)
	if _, _, err := TopGains(context.Background(), nil, 3, nil, 1); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, _, err := TopGains(context.Background(), d, -1, nil, 1); err == nil {
		t.Fatal("negative b accepted")
	}
	if _, _, err := TopGains(context.Background(), d, 3, make([]bool, 2), 1); err == nil {
		t.Fatal("short exclude mask accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := TopGains(ctx, d, 3, nil, 1); err != context.Canceled {
		t.Fatalf("canceled ctx: err = %v", err)
	}
}

// topIndexForms builds the index forms the bound-pruned top-B kernel must
// serve bit-identically to an exhaustive sweep: flat, chunked (fresh, and
// grown after the table was made, synced or not), patched by Repair, and
// loaded from a v8 store onto the heap and through mmap. Each form returns
// a D-table factory so tables can be made before an index grows.
func topIndexForms(t *testing.T, g *graph.Graph, L, R int, seed uint64) map[string]func(index.Problem) *index.DTable {
	t.Helper()
	must := func(ix *index.Index, err error) *index.Index {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	table := func(ix *index.Index) func(index.Problem) *index.DTable {
		return func(p index.Problem) *index.DTable {
			d, err := ix.NewDTable(p)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
	grown := func(sync bool) func(index.Problem) *index.DTable {
		return func(p index.Problem) *index.DTable {
			ix := must(index.BuildChunkedWorkers(g, L, R-R/4, seed, R/4, 2))
			d := table(ix)(p)
			if err := ix.ExtendReplicates(R/4, 2); err != nil {
				t.Fatal(err)
			}
			if sync {
				if err := d.SyncChunks(); err != nil {
					t.Fatal(err)
				}
			}
			return d
		}
	}
	patched := must(index.BuildWorkers(g, L, R, seed, 2))
	var delta graph.Delta
	for u := 0; u < 40; u += 4 {
		v := g.N() - 1 - u
		if g.HasEdge(u, v) {
			delta.RemoveEdges = append(delta.RemoveEdges, graph.Edge{U: u, V: v})
		} else {
			delta.AddEdges = append(delta.AddEdges, graph.Edge{U: u, V: v})
		}
	}
	ng, touched, err := g.ApplyDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	if err := patched.Repair(ng, touched); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.rwdomidx")
	if err := must(index.BuildWorkers(g, L, R, seed, 2)).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return map[string]func(index.Problem) *index.DTable{
		"flat":             table(must(index.BuildWorkers(g, L, R, seed, 2))),
		"chunked":          table(must(index.BuildChunkedWorkers(g, L, R, seed, R/3, 2))),
		"chunked-grown":    grown(true),
		"chunked-unsynced": grown(false),
		"patched":          table(patched),
		"store-heap":       table(must(index.LoadAny(path, g, index.StoreOptions{}))),
		"store-mmap":       table(must(index.LoadAny(path, g, index.StoreOptions{Mmap: true}))),
	}
}

// The bound-pruned TopGains and TopGainSums must return exactly what an
// exhaustive GainBatch / GainSumBatch sweep ranked by TopOfGains /
// TopOfSums returns — same nodes, same float64 bits, same sums — for both
// problems, every index form, set sizes from empty to 50, budgets from 1 to
// n, one and two workers, and exclude masks holding non-members.
func TestTopGainsPrunedMatchesExhaustiveSweep(t *testing.T) {
	g, err := dataset.PowerLawExact(1500, 9000, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(5))
	for name, newTable := range topIndexForms(t, g, 6, 24, 11) {
		for _, p := range []index.Problem{index.Problem1, index.Problem2} {
			for _, size := range []int{0, 1, 5, 20, 50} {
				d := newTable(p)
				n := d.Index().Graph().N()
				// Half the set is the leaders by empty-set gain, which moves
				// the exact ranking furthest from the bound order.
				leaders, _, err := TopGainSums(ctx, d, size/2, nil, 1)
				if err != nil {
					t.Fatal(err)
				}
				exclude := make([]bool, n)
				for _, u := range append(leaders, rnd.Perm(n)[:size-size/2]...) {
					d.Update(u)
					exclude[u] = true
				}
				for u := rnd.Intn(7); u < n; u += 7 {
					exclude[u] = true // non-members
				}
				all := make([]int, n)
				for u := range all {
					all[u] = u
				}
				gains := d.GainBatch(all, nil)
				sums := d.GainSumBatch(all, nil)
				for _, b := range []int{1, 10, 100, n} {
					wantN, wantG := TopOfGains(gains, exclude, b)
					wantSN, wantS := TopOfSums(sums, exclude, b)
					for _, workers := range []int{1, 2} {
						gotN, gotG, err := TopGains(ctx, d, b, exclude, workers)
						if err != nil {
							t.Fatal(err)
						}
						gotSN, gotS, err := TopGainSums(ctx, d, b, exclude, workers)
						if err != nil {
							t.Fatal(err)
						}
						if len(gotN) != len(wantN) || len(gotSN) != len(wantSN) {
							t.Fatalf("%s %v |S|=%d b=%d w=%d: %d/%d results, want %d/%d", name, p, size, b, workers, len(gotN), len(gotSN), len(wantN), len(wantSN))
						}
						for i := range wantN {
							if gotN[i] != wantN[i] || math.Float64bits(gotG[i]) != math.Float64bits(wantG[i]) {
								t.Fatalf("%s %v |S|=%d b=%d w=%d: TopGains[%d] = %d/%v, want %d/%v", name, p, size, b, workers, i, gotN[i], gotG[i], wantN[i], wantG[i])
							}
							if gotSN[i] != wantSN[i] || gotS[i] != wantS[i] {
								t.Fatalf("%s %v |S|=%d b=%d w=%d: TopGainSums[%d] = %d/%d, want %d/%d", name, p, size, b, workers, i, gotSN[i], gotS[i], wantSN[i], wantS[i])
							}
						}
					}
				}
			}
		}
	}
}

// On a power-law graph the empty-set bound separates the leaders from the
// bulk, so a top-10 read against a small set evaluates a small fraction of
// the candidates exactly.
func TestTopGainsPrunesOnPowerLaw(t *testing.T) {
	g, err := dataset.PowerLawExact(5000, 30000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.BuildWorkers(g, 6, 50, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for _, p := range []index.Problem{index.Problem1, index.Problem2} {
		d, err := ix.NewDTable(p)
		if err != nil {
			t.Fatal(err)
		}
		exclude := make([]bool, n)
		for _, u := range rand.New(rand.NewSource(2)).Perm(n)[:5] {
			d.Update(u)
			exclude[u] = true
		}
		_, _, evals, err := topSums(context.Background(), d, 10, exclude, 1)
		if err != nil {
			t.Fatal(err)
		}
		if evals > n/20 {
			t.Fatalf("%v: %d exact evaluations for b=10, want <= %d (n/20)", p, evals, n/20)
		}
		t.Logf("%v: %d of %d candidates evaluated", p, evals, n)
	}
}
