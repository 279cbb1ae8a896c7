package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/testleak"
)

func testGraph(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.BarabasiAlbert(n, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	testleak.Check(t)
	if cfg.Graphs == nil {
		cfg.Graphs = map[string]*graph.Graph{"test": testGraph(t, 600, 1)}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// A memo table pinned by an in-flight request when its index is evicted is
// orphaned, not freed: the holder keeps reading a valid frozen table, no
// new request can acquire it, and its memory goes with the last release.
func TestIndexEvictionOrphansPinnedMemoTable(t *testing.T) {
	g := testGraph(t, 300, 6)
	e := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": g}})

	key := index.CacheKey{Graph: "test", L: 4, R: 10, Seed: 1}
	h, err := e.cache.Acquire(key, g, func() (*index.Index, error) {
		return index.BuildWorkers(g, key.L, key.R, key.Seed, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := memoKey{idx: key, problem: index.Problem2, set: "1,2"}
	mh, status, err := e.memo.acquire(mk, []int{1, 2}, h.Index())
	if err != nil {
		t.Fatal(err)
	}
	if status != MemoMiss {
		t.Fatalf("first acquire status %q, want %q", status, MemoMiss)
	}
	want := mh.Table().Gain(5)
	h.Release()

	// Evict the index while the memo handle is still held.
	if got := e.cache.EvictIdle(e.cache.Clock()); got != 1 {
		t.Fatalf("EvictIdle evicted %d, want 1", got)
	}
	ms := e.MemoStats()
	if ms.Invalidated != 1 || ms.Resident != 0 {
		t.Fatalf("memo after eviction: %+v, want 1 invalidated, 0 resident", ms)
	}
	// The orphaned table still serves identical reads.
	if got := mh.Table().Gain(5); got != want {
		t.Fatalf("orphaned table gain = %v, want %v", got, want)
	}
	mh.Release()
	if refs := e.MemoPinnedRefs(); refs != 0 {
		t.Fatalf("%d refs pinned after release", refs)
	}

	// A later request for the same set repopulates from scratch (the orphan
	// is unreachable), against a freshly built index.
	h2, err := e.cache.Acquire(key, g, func() (*index.Index, error) {
		return index.BuildWorkers(g, key.L, key.R, key.Seed, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	mh2, status, err := e.memo.acquire(mk, []int{1, 2}, h2.Index())
	if err != nil {
		t.Fatal(err)
	}
	defer mh2.Release()
	if status != MemoMiss {
		t.Fatalf("post-invalidation acquire status %q, want %q (fresh population)", status, MemoMiss)
	}
	// Same walks (same build identity), so the repopulated table agrees.
	if got := mh2.Table().Gain(5); got != want {
		t.Fatalf("repopulated table gain = %v, want %v", got, want)
	}
}

// A memo table reads through the index instance it was built over. When the
// index cache no longer holds that instance — ApplyDelta has taken it for
// Repair — and a read rebuilds the same key as a new instance, the read
// must be served by a table over the new instance (a miss), never by the
// resident table over the taken one, which Repair may be rewriting.
func TestMemoReadNeverReachesTableOverTakenIndex(t *testing.T) {
	g := testGraph(t, 300, 6)
	e := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	ctx := context.Background()
	req := GainRequest{Graph: "test", Problem: Problem2, L: 4, R: 10, Seed: 1, Set: []int{1, 2}, Nodes: []int{5, 9}}
	first, err := e.Gain(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Memo != MemoMiss {
		t.Fatalf("first read memo %q, want %q", first.Memo, MemoMiss)
	}
	// The window inside ApplyDelta between taking the index and dropping
	// its memo tables: the table over the taken instance is still resident.
	taken, _ := e.cache.TakeGraph("test")
	if len(taken) != 1 {
		t.Fatalf("took %d indexes, want 1", len(taken))
	}
	again, err := e.Gain(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Memo != MemoMiss || again.IndexCached {
		t.Fatalf("read after the take: memo %q, index cached %v; want a miss over a rebuilt index", again.Memo, again.IndexCached)
	}
	if !reflect.DeepEqual(again.Gains, first.Gains) {
		t.Fatalf("gains over the rebuilt index %v, want %v", again.Gains, first.Gains)
	}
	if ms := e.MemoStats(); ms.Resident != 2 {
		t.Fatalf("%d resident tables, want 2 (one per instance)", ms.Resident)
	}
}

// A degraded read pins a memo table without pinning its index. ApplyDelta
// must then repair a copy of that index instead of repairing it under the
// reader, and the pinned table must keep answering from the unmutated
// index.
func TestApplyDeltaDropsIndexReadByPinnedMemoTable(t *testing.T) {
	g := testGraph(t, 300, 6)
	e := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	ctx := context.Background()
	if _, err := e.Gain(ctx, GainRequest{Graph: "test", Problem: Problem2, L: 4, R: 10, Seed: 1, Set: []int{1, 2}, Nodes: []int{5}}); err != nil {
		t.Fatal(err)
	}
	p, err := e.resolveParams("test", 4, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	canon, setKey := canonicalSet([]int{1, 2})
	mh, ok := e.degradedTable(p, index.Problem2, canon, setKey)
	if !ok {
		t.Fatal("no resident table for the degraded read")
	}
	defer mh.Release()
	all := make([]int, g.N())
	for u := range all {
		all[u] = u
	}
	want := mh.Table().GainBatch(all, nil)

	res, err := e.ApplyDelta(ctx, ApplyDeltaRequest{Graph: "test", Delta: graph.Delta{RemoveEdges: []graph.Edge{firstEdge(t, g)}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexesRepaired != 1 || res.IndexesDropped != 0 || res.MemosDropped != 1 {
		t.Fatalf("delta result %+v, want a copy of the index repaired and the pinned table dropped", res)
	}
	if got := mh.Table().GainBatch(all, nil); !reflect.DeepEqual(got, want) {
		t.Fatal("the pinned table's answers changed under the delta")
	}
	if _, ok := e.degradedTable(p, index.Problem2, canon, setKey); ok {
		t.Fatal("a dropped table is still reachable by a degraded read")
	}
}
