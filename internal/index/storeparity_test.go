package index

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// Store-backed serving parity: a v8 store file — raw or compressed, mmap'd
// or heap-loaded, with or without the hot-row cache — must answer every
// read bit-identically to the heap-resident index it was written from.
// Gains and objectives are integer sums divided by R last on both paths, so
// "bit-identical" is exact float64 equality, not a tolerance.

// storeVariant is one way of serving a store file.
type storeVariant struct {
	name     string
	compress bool
	opt      StoreOptions
}

// storeVariants is the serving matrix: raw mmap (zero-copy page aliasing),
// compressed on-heap (every chunk decoded once at load), hybrid
// (compressed + mmap + hot-row cache — the -mmap production mode), and
// hybrid with the hot-row cache disabled (every read decodes).
func storeVariants() []storeVariant {
	return []storeVariant{
		{name: "raw-mmap", compress: false, opt: StoreOptions{Mmap: true}},
		{name: "compressed-heap", compress: true, opt: StoreOptions{}},
		{name: "hybrid", compress: true, opt: StoreOptions{Mmap: true}},
		{name: "hybrid-nocache", compress: true, opt: StoreOptions{Mmap: true, HotRows: -1}},
	}
}

// storeLoad round-trips ix through a v8 file and loads it per the variant.
func storeLoad(t *testing.T, ix *Index, v storeVariant) *Index {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.rwdomidx")
	if err := ix.saveAtomic(path, v.compress); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadAny(path, ix.Graph(), v.opt)
	if err != nil {
		t.Fatalf("LoadAny(%s): %v", v.name, err)
	}
	if !got.StoreBacked() {
		t.Fatalf("LoadAny(%s): index not store-backed", v.name)
	}
	if v.opt.Mmap && !got.StoreMapped() {
		t.Skipf("mmap unavailable on this platform") // !unix heap fallback
	}
	return got
}

// assertReadParity drives the full read surface of want and got through an
// identical greedy-flavored selection and fails on the first diverging bit.
func assertReadParity(t *testing.T, want, got *Index, p Problem) {
	t.Helper()
	n := want.Graph().N()
	if w, g := want.Entries(), got.Entries(); w != g {
		t.Fatalf("Entries: %d vs %d", w, g)
	}
	wantEmpty, err := want.EmptySetGains(p)
	if err != nil {
		t.Fatal(err)
	}
	gotEmpty, err := got.EmptySetGains(p)
	if err != nil {
		t.Fatal(err)
	}
	for u := range wantEmpty {
		if math.Float64bits(wantEmpty[u]) != math.Float64bits(gotEmpty[u]) {
			t.Fatalf("EmptySetGains(%v)[%d]: %v vs %v", p, u, wantEmpty[u], gotEmpty[u])
		}
	}
	wt, err := want.NewDTable(p)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := got.NewDTable(p)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]bool, n)
	// Three greedy rounds: full-sweep gain parity, then both tables update
	// with the same argmax, then objective parity over the selected set.
	for round := 0; round < 3; round++ {
		best, bestGain := -1, math.Inf(-1)
		for u := 0; u < n; u++ {
			w, g := wt.Gain(u), gt.Gain(u)
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("round %d Gain(%d): %v vs %v", round, u, w, g)
			}
			if !members[u] && w > bestGain {
				best, bestGain = u, w
			}
		}
		if w, g := want.MaxRowLen(best), got.MaxRowLen(best); w != g {
			t.Fatalf("MaxRowLen(%d): %d vs %d", best, w, g)
		}
		ws := wt.AppendReplicateGainSums(best, nil)
		gs := gt.AppendReplicateGainSums(best, nil)
		if len(ws) != len(gs) {
			t.Fatalf("AppendReplicateGainSums(%d): %d vs %d samples", best, len(ws), len(gs))
		}
		for i := range ws {
			if ws[i] != gs[i] {
				t.Fatalf("AppendReplicateGainSums(%d)[%d]: %d vs %d", best, i, ws[i], gs[i])
			}
		}
		wt.Update(best)
		gt.Update(best)
		members[best] = true
		w, g := wt.EstimateObjective(members), gt.EstimateObjective(members)
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("round %d EstimateObjective: %v vs %v", round, w, g)
		}
	}
}

func TestStoreParityReadSurface(t *testing.T) {
	g, err := graph.BarabasiAlbert(250, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Build(g, 5, 18, 42)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := BuildChunkedWorkers(g, 5, 18, 42, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	layouts := map[string]*Index{"flat": flat, "chunked": chunked}
	for lname, heap := range layouts {
		for _, v := range storeVariants() {
			for _, p := range []Problem{Problem1, Problem2} {
				t.Run(lname+"/"+v.name+"/"+p.String(), func(t *testing.T) {
					assertReadParity(t, heap, storeLoad(t, heap, v), p)
				})
			}
		}
	}
}

// TestStoreParityAfterGrowth grows a store-backed chunked index with
// ExtendReplicates (the new chunk is a fresh heap chunk appended after the
// store-backed ones) and checks it keeps answering bit-identically to a
// heap index grown the same way, including a D-table created before the
// growth and attached to the new chunk via SyncChunks.
func TestStoreParityAfterGrowth(t *testing.T) {
	g, err := graph.BarabasiAlbert(200, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := BuildChunkedWorkers(g, 5, 14, 9, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range storeVariants() {
		t.Run(v.name, func(t *testing.T) {
			got := storeLoad(t, heap, v)
			wt, err := heap.NewDTable(Problem2)
			if err != nil {
				t.Fatal(err)
			}
			gt, err := got.NewDTable(Problem2)
			if err != nil {
				t.Fatal(err)
			}
			wt.Update(3)
			gt.Update(3)
			// Grow both sides identically; the heap clone is built fresh so
			// the two growth paths share no storage.
			if err := heap.ExtendReplicates(6, 2); err != nil {
				t.Fatal(err)
			}
			if err := got.ExtendReplicates(6, 2); err != nil {
				t.Fatalf("ExtendReplicates on store-backed index: %v", err)
			}
			if err := wt.SyncChunks(); err != nil {
				t.Fatal(err)
			}
			if err := gt.SyncChunks(); err != nil {
				t.Fatal(err)
			}
			for u := 0; u < g.N(); u++ {
				w, gg := wt.Gain(u), gt.Gain(u)
				if math.Float64bits(w) != math.Float64bits(gg) {
					t.Fatalf("post-growth Gain(%d): %v vs %v", u, w, gg)
				}
			}
			assertReadParity(t, heap, got, Problem1)
		})
	}
}

// TestStoreParityAfterRepair covers the store→heap promotion contract: a
// store-backed index serves off read-only pages, so Repair must first
// Promote (copy every store-backed chunk onto the heap) and then patch —
// after which the index is no longer store-backed and answers bit-identically
// to a heap index repaired through the same delta.
func TestStoreParityAfterRepair(t *testing.T) {
	g, err := graph.BarabasiAlbert(150, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := Build(g, 5, 16, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range storeVariants() {
		t.Run(v.name, func(t *testing.T) {
			got := storeLoad(t, heap, v)
			// Fresh heap twin so the repair below cannot share state with it.
			want, err := Build(g, 5, 16, 21)
			if err != nil {
				t.Fatal(err)
			}
			add := graph.Edge{U: 0, V: 17}
			for ; g.HasEdge(add.U, add.V); add.V++ {
			}
			ng, touched, err := g.ApplyDelta(graph.Delta{AddEdges: []graph.Edge{add}})
			if err != nil {
				t.Fatal(err)
			}
			if err := want.Repair(ng, touched); err != nil {
				t.Fatal(err)
			}
			if err := got.Repair(ng, touched); err != nil {
				t.Fatalf("Repair of store-backed index: %v", err)
			}
			if got.StoreBacked() {
				t.Fatal("index still store-backed after Repair (promotion missing)")
			}
			assertReadParity(t, want, got, Problem2)
		})
	}
}

// TestStorePromote is the promotion contract on its own: Promote detaches
// the index from its file (StoreBacked flips off, MemoryBytes flips from
// file/mapping accounting to heap accounting) without changing one answer.
func TestStorePromote(t *testing.T) {
	g, err := graph.BarabasiAlbert(150, 3, 19)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := BuildChunkedWorkers(g, 5, 12, 33, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range storeVariants() {
		t.Run(v.name, func(t *testing.T) {
			got := storeLoad(t, heap, v)
			if err := got.Promote(); err != nil {
				t.Fatalf("Promote: %v", err)
			}
			if got.StoreBacked() || got.StoreMapped() {
				t.Fatal("index still store-backed after Promote")
			}
			if got.MemoryBytes() == 0 {
				t.Fatal("promoted index reports zero heap bytes")
			}
			assertReadParity(t, heap, got, Problem1)
			assertReadParity(t, heap, got, Problem2)
		})
	}
}
