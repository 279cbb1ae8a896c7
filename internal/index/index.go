// Package index implements the sample-materialization machinery of Section
// 3.2 of the paper: the inverted index I[1:R][1:n] over R materialized
// L-length random walks per node (Algorithm 3), the D[1:R][1:n] table of
// per-sample hitting estimates, the approximate marginal-gain computation
// (Algorithm 4), and the incremental update after a node is selected
// (Algorithm 5).
//
// The index stores, for each sample replicate i and each node v, the list of
// source nodes whose i-th walk visits v, together with the hop of the first
// visit. Entry <w, j> in I[i][v] means "w hits v at hop j in its i-th walk".
// With the index materialized once, the marginal gain of every candidate
// under any current set S can be estimated without re-running walks, which
// is what brings the greedy algorithm down to O(kRLn) time.
//
// One deviation from the paper's presentation: Algorithm 3 stores weight 1
// for Problem 2, building a second index. Here a single index stores the
// actual first-visit hop and the Problem-2 logic simply ignores the hop
// (treating every entry as an indicator), which is arithmetically identical
// and halves memory when both problems are run on the same graph.
//
// # Memory layout
//
// Within one materialized replicate range, the index and the D-table are
// stored candidate-major: row (v, i) lives at v·R+i, so the R replicate rows
// of one node are contiguous. One Gain(u) therefore reads a single
// contiguous span of index entries (ids[offsets[u·R] : offsets[(u+1)·R]])
// and one contiguous D-span (d[u·R : (u+1)·R]) instead of the R scattered
// rows a replicate-major d[i·n+u] layout costs. The selection loop evaluates
// Gain over many candidates per round, so this is the hot-path layout; the
// ablation benchmark in the index test suite quantifies the difference.
//
// An index can also be chunked (chunked.go): an ordered set of replicate
// chunks, each a self-contained candidate-major CSR over a consecutive
// replicate range built by BuildRangeWorkers from the same master seed.
// Per-walk seeding by (node, absolute replicate) makes each chunk a
// deterministic slice of the flat build, so integer gain/objective partials
// summed across chunks equal the flat sums exactly, and a chunked index can
// grow one chunk at a time (ExtendReplicates) — the mechanism behind
// adaptive accuracy budgets. The on-disk format (serialize_store.go, v8)
// stores one directory entry + CRC'd sections per chunk; a flat index
// serializes as a single chunk.
//
// Gains are pure reads of the D-table between Update calls and accumulate
// in integers, so GainBatch may be invoked concurrently from any number of
// goroutines with bit-for-bit identical results — the property the parallel
// greedy driver in internal/greedy relies on.
package index

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/store"
)

// Problem selects which objective the D-table tracks.
type Problem int

const (
	// Problem1 is total-hitting-time minimization (Eq. 6): D[i][u] holds the
	// per-sample hitting time of u's walk to S, initialized to L.
	Problem1 Problem = 1
	// Problem2 is expected-dominated-count maximization (Eq. 7): D[i][u]
	// holds the per-sample indicator that u's walk hits S, initialized to 0.
	Problem2 Problem = 2
)

func (p Problem) String() string {
	switch p {
	case Problem1:
		return "F1"
	case Problem2:
		return "F2"
	default:
		return fmt.Sprintf("Problem(%d)", int(p))
	}
}

// Index is the inverted index of Algorithm 3. It is safe for concurrent
// readers and immutable under them; the only mutation is Repair (mutate.go),
// which requires the caller to exclude readers for its duration. D-tables
// carry the per-query mutable state.
type Index struct {
	g *graph.Graph
	l int
	r int
	// rbase is the first absolute replicate number materialized: a partial
	// index built by BuildRangeWorkers over [r0, r1) has rbase = r0 and
	// r = r1 − r0. Walks are seeded per (node, absolute replicate), so the
	// partial index holds exactly the rows [r0, r1) of the full build — the
	// invariant replicate-sharded serving merges on. Full builds have
	// rbase = 0.
	rbase int
	// seed is the master walk seed the index was built from (0 for indexes
	// assembled by BuildFromWalks, which samples nothing). It is part of the
	// serialized identity: the cache's spill loader verifies it so a stale
	// or colliding spill file can never impersonate a different build.
	seed uint64

	// gepoch is the mutation epoch of the graph the entries reflect: equal to
	// g.Epoch() at build time and advanced by every Repair. It is part of the
	// serialized identity (format v6), so a spill file written before a
	// mutation can never warm-load as current afterwards even when the
	// mutation round-trips the structure (fingerprint alone cannot tell
	// "mutated back" from "never mutated").
	gepoch uint64
	// fromWalks marks indexes assembled by BuildFromWalks: their walks were
	// supplied, not sampled from seed, so Repair cannot deterministically
	// regenerate them and refuses.
	fromWalks bool

	// parts, when non-nil, marks a chunked index: an ordered set of
	// self-contained partial indexes over consecutive replicate ranges
	// (chunked.go). Each part is a flat candidate-major CSR built by
	// BuildRangeWorkers over its own range, so per-walk seeding guarantees the
	// chunks concatenate to exactly the rows a flat build of the same total
	// width materializes. A chunked parent holds only aggregate metadata
	// (g/l/r/rbase/seed/gepoch) — its offsets/ids/hops/ends stay nil — and
	// every accessor sums or delegates across parts in replicate order.
	// Flat indexes (parts == nil) are untouched by the chunked machinery.
	parts []*Index

	// Row (i, v) occupies ids[span(v*R+i)] with parallel first-visit hops in
	// hops — candidate-major, all R rows of a node contiguous (see the
	// package comment). Entries are (source node, hop of first visit), sorted
	// by source; a source appears at most once per row.
	//
	// Freshly built or loaded indexes are compact: ends is nil and row k is
	// ids[offsets[k]:offsets[k+1]]. After a Repair the index is patched: ends
	// is non-nil, row k is ids[offsets[k]:ends[k]], rows need not be adjacent
	// or in order, and dead counts unreachable slots (shrunken-row slack and
	// relocated rows' old storage). Compact restores the canonical compact
	// form; WriteStore always serializes it, so the on-disk format never sees
	// patched layout.
	offsets []int64
	ids     []int32
	hops    []uint16
	ends    []int64
	dead    int64

	// stf, when non-nil, pins the format-v8 store file (internal/store) this
	// index's entries are served from (backing.go): raw chunks alias
	// offsets/ids/hops directly out of its pages or heap buffer, and
	// compressed chunks of a mapped file decode on read (sb below). The
	// reference pins the file's mapping — slices into a mapping do not keep
	// it reachable on their own — so an in-flight query can never lose its
	// pages; unmapping happens via finalizer when the last reference drops.
	// On a chunked parent stf is the file its parts serve from. Compressed
	// chunks of a heap-loaded file are decoded at load and never pin it.
	stf *store.File
	// origin, when non-nil, names the store file the index was loaded from
	// and is unchanged since; Promote clears it. Set on a chunked parent and
	// its parts alike.
	origin *storeOrigin
	// sb, when non-nil, serves this flat chunk's rows by decoding the
	// mapped file's compressed spans on read (with a hot-row cache) instead
	// of materialized arrays; offsets/ids/hops are nil and sbEntries holds
	// the chunk's entry count from the file directory. Mutation promotes to
	// heap first (Promote).
	sb        *store.Spans
	sbEntries int64

	// emptyGains memoizes the per-problem empty-set gain vectors (slot 0:
	// Problem 1, slot 1: Problem 2), computed lazily by EmptySetGains under
	// emptyMu, which makes the index safe to share across concurrent callers.
	// emptySums is the integer-domain twin serving the partial read path
	// (EmptySetGainSums). Repair drops both (the entries they summarize
	// changed); a plain mutex rather than sync.Once keeps the memo resettable.
	emptyMu    sync.Mutex
	emptyGains [2][]float64
	emptySums  [2][]int64
}

// span returns the bounds of row k in ids/hops, valid in both compact and
// patched layouts.
func (ix *Index) span(k int64) (lo, hi int64) {
	if ix.ends == nil {
		return ix.offsets[k], ix.offsets[k+1]
	}
	return ix.offsets[k], ix.ends[k]
}

// Build materializes R L-length random walks per node and constructs the
// inverted index (Algorithm 3), single-threaded. Memory is O(nRL): the
// final CSR arrays plus, transiently during construction, one buffered copy
// of the per-walk first visits (6 bytes per entry, the same size as the
// final ids+hops payload) and one R·n counter array, so each walk is
// generated exactly once. Each (node, replicate) walk is seeded
// independently from the master seed, so the parallel builder produces the
// same walks.
func Build(g *graph.Graph, L, R int, seed uint64) (*Index, error) {
	return BuildWorkers(g, L, R, seed, 1)
}

// walkBuffer holds one worker's buffered walk visits: walk t of the
// worker's replicate-outer (replicate, node) sequence emitted lens[t] first
// visits, stored consecutively in vs/hops. Buffering costs one transient
// copy of the entry data but means the RNG, PickNeighbor and visited-stamp
// work per walk happens once instead of twice (generate-to-count,
// regenerate-to-fill). After the first replicate the buffer is presized
// from that replicate's entries per walk (reserve), so the remaining
// replicates append without regrowing.
type walkBuffer struct {
	vs   []int32
	hops []uint16
	lens []uint16
}

// reserve grows the buffer's capacity by another walks walks at the
// entries-per-walk rate of the done walks buffered so far, plus 1/8 slack.
// It is only a capacity hint: walks that emit more still fit, through
// append.
func (b *walkBuffer) reserve(done, walks int) {
	if done == 0 {
		return
	}
	more := int64(len(b.vs)) * int64(walks) / int64(done)
	more += more / 8
	b.vs = slices.Grow(b.vs, int(more))
	b.hops = slices.Grow(b.hops, int(more))
}

// BuildWorkers is Build sharded over the given number of goroutines. The
// index is byte-identical for every worker count: the walk set is the same
// (per-walk seeding), and every row lists its sources in ascending order
// (see BuildRangeWorkers). Repair parity, the spill skip-respill identity
// check and the shard parity suites all rely on that canonical row order.
func BuildWorkers(g *graph.Graph, L, R int, seed uint64, workers int) (*Index, error) {
	if R <= 0 {
		return nil, fmt.Errorf("index: sample size R = %d, want > 0", R)
	}
	return BuildRangeWorkers(g, L, seed, 0, R, workers)
}

// BuildRangeWorkers materializes only the replicate range [r0, r1) of a full
// R-replicate build. Walk i of the partial index is seeded per
// (node, absolute replicate) — rng.Mix(seed, w, r0+i) — exactly as
// BuildWorkers seeds replicate r0+i of the full build, so the partial index
// is a deterministic slice of the full one: its rows equal rows [r0, r1) of
// BuildWorkers(g, L, r1, seed, ·). Integer gain/objective sums over disjoint
// ranges therefore add up to the full-build sums exactly, which is what lets
// a replicate-sharded deployment merge partial answers bit-for-bit.
// BuildWorkers is BuildRangeWorkers over [0, R).
//
// Each worker owns a consecutive source range and generates its walks
// replicate-outer (for each replicate, every source in the range), counting
// them in private replicate-major counters (index i·n+v), so all increments
// for one replicate land in an n-entry window that stays cache-resident.
// Rows come out sorted by source at every worker count: row (v, i) receives
// only replicate-i walks, each worker writes its consecutive sub-range of
// the row in source order, and the sub-ranges are laid out in worker order.
func BuildRangeWorkers(g *graph.Graph, L int, seed uint64, r0, r1, workers int) (*Index, error) {
	return buildRange(g, L, seed, r0, r1, workers, privateBudget)
}

// privateBudget caps the transient memory of the per-worker row counters;
// larger row spaces fall back to shared atomic counters.
const privateBudget = 1 << 28 // 256 MiB

// buildRange is BuildRangeWorkers with the private-counter budget as a
// parameter, so tests can force the shared-counter fallback.
func buildRange(g *graph.Graph, L int, seed uint64, r0, r1, workers int, budget int64) (*Index, error) {
	if L < 0 {
		return nil, fmt.Errorf("index: negative walk length %d", L)
	}
	if L > 1<<16-1 {
		return nil, fmt.Errorf("index: walk length %d exceeds hop storage (max %d)", L, 1<<16-1)
	}
	if r0 < 0 || r1 <= r0 {
		return nil, fmt.Errorf("index: replicate range [%d, %d) invalid, want 0 <= r0 < r1", r0, r1)
	}
	R := r1 - r0
	n := g.N()
	// Worker wk owns sources [wk·per, min((wk+1)·per, n)); drop the workers
	// the rounding leaves without a range.
	workers = max(1, min(workers, n))
	per := (n + workers - 1) / workers
	if per > 0 {
		workers = (n + per - 1) / per
	}
	ix := &Index{g: g, l: L, r: R, rbase: r0, seed: seed, gepoch: g.Epoch()}
	rows := R * n
	counts := make([]int64, rows+1)

	// Workers collide on rows (rows are keyed by visited node, not by the
	// source range), so each worker counts into its own replicate-major
	// counter array, later turned into its own write cursors: no atomics, no
	// cache-line ping-pong between cores. When those arrays would cost too
	// much transient memory, workers share candidate-major counters in
	// counts with atomic increments instead; rows then hold the same entries
	// in scheduling order.
	private := int64(workers)*int64(rows)*8 <= budget
	var perWorker [][]int64
	if private {
		perWorker = make([][]int64, workers)
		for wk := range perWorker {
			perWorker[wk] = make([]int64, rows)
		}
	}
	// window returns worker wk's counters (cursors in pass 2) for replicate
	// i, indexed by visited node; nil on the shared path.
	window := func(wk, i int) []int64 {
		if !private {
			return nil
		}
		return perWorker[wk][i*n : (i+1)*n]
	}

	// shard runs fn over the workers' node ranges.
	shard := func(fn func(worker, lo, hi int)) {
		if workers == 1 {
			fn(0, 0, n)
			return
		}
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk, lo, hi int) {
				defer wg.Done()
				fn(wk, lo, hi)
			}(wk, wk*per, min((wk+1)*per, n))
		}
		wg.Wait()
	}

	// Pass 1: generate every walk once, buffering its first visits and
	// counting row sizes.
	bufs := make([]walkBuffer, workers)
	shard(func(wk, lo, hi int) {
		visited := make([]uint32, n)
		var generation uint32
		var rnd rng.Source
		// Size the first replicate at a quarter of its L-per-walk bound
		// (append grows the dense cases); reserve presizes the rest.
		buf := walkBuffer{
			vs:   make([]int32, 0, (hi-lo)*(L/4+1)),
			hops: make([]uint16, 0, (hi-lo)*(L/4+1)),
			lens: make([]uint16, 0, (hi-lo)*R),
		}
		for i := 0; i < R; i++ {
			win := window(wk, i)
			for w := lo; w < hi; w++ {
				rnd.Seed(rng.Mix(seed, uint64(w), uint64(r0+i)))
				generation++
				visited[w] = generation
				u := w
				emitted := uint16(0)
				for j := 1; j <= L; j++ {
					v := g.PickNeighbor(u, rnd.Float64())
					if v < 0 {
						break
					}
					if visited[v] != generation {
						visited[v] = generation
						buf.vs = append(buf.vs, int32(v))
						buf.hops = append(buf.hops, uint16(j))
						emitted++
						if win != nil {
							win[v]++
						} else {
							atomic.AddInt64(&counts[int64(v)*int64(R)+int64(i)+1], 1)
						}
					}
					u = v
				}
				buf.lens = append(buf.lens, emitted)
			}
			if i == 0 {
				buf.reserve(hi-lo, (R-1)*(hi-lo))
			}
		}
		bufs[wk] = buf
	})
	ix.offsets = counts
	if private {
		// Merge the private counters into candidate-major CSR starts, and in
		// the same pass turn each worker's counter into its absolute write
		// cursor: workers own disjoint, consecutive sub-ranges of every row,
		// in worker order, so pass 2 needs no synchronization at all. One v
		// touches R·workers counter cache lines, which stay in L1 for the
		// next several v.
		run := int64(0)
		for v := 0; v < n; v++ {
			for i := 0; i < R; i++ {
				ix.offsets[v*R+i] = run
				k := i*n + v
				for _, mine := range perWorker {
					c := mine[k]
					mine[k] = run
					run += c
				}
			}
		}
		ix.offsets[rows] = run
	} else {
		for i := 1; i <= rows; i++ {
			ix.offsets[i] += ix.offsets[i-1]
		}
	}
	total := ix.offsets[rows]
	ix.ids = make([]int32, total)
	ix.hops = make([]uint16, total)

	// Pass 2: replay the buffers — a sequential read — in their (replicate,
	// node) order and scatter entries into their rows. On the private path
	// each worker claims slots from its own cursor window; on the shared path
	// slots are claimed atomically from offsets (offsets[row] is the next
	// free slot of its row), and the starts are restored by one shift
	// afterwards, avoiding a separate cursor array.
	shard(func(wk, lo, hi int) {
		buf := bufs[wk]
		pos, t := 0, 0
		for i := 0; i < R; i++ {
			win := window(wk, i)
			for w := lo; w < hi; w++ {
				ww := int32(w)
				end := pos + int(buf.lens[t])
				t++
				for ; pos < end; pos++ {
					v := buf.vs[pos]
					var c int64
					if win != nil {
						c = win[v]
						win[v] = c + 1
					} else {
						c = atomic.AddInt64(&ix.offsets[int64(v)*int64(R)+int64(i)], 1) - 1
					}
					ix.ids[c] = ww
					ix.hops[c] = buf.hops[pos]
				}
			}
		}
	})
	if !private {
		// offsets[row] now holds the end of its row, i.e. the start of row+1:
		// shift right to restore the CSR starts (offsets[rows] was never used
		// as a cursor and still holds the total).
		copy(ix.offsets[1:], ix.offsets[:rows])
		ix.offsets[0] = 0
	}
	return ix, nil
}

// BuildFromWalks constructs an index from explicitly provided walks instead
// of sampling them: walks[w][i] is the i-th walk of node w and must begin at
// w. It is used by tests to reproduce the paper's worked example (Example
// 3.1 / Table 1) exactly, and by callers that generate walks elsewhere.
func BuildFromWalks(g *graph.Graph, L, R int, walks [][][]int32) (*Index, error) {
	if L < 0 || L > 1<<16-1 {
		return nil, fmt.Errorf("index: walk length %d out of range", L)
	}
	if R <= 0 {
		return nil, fmt.Errorf("index: sample size R = %d, want > 0", R)
	}
	n := g.N()
	if len(walks) != n {
		return nil, fmt.Errorf("index: walks for %d nodes, graph has %d", len(walks), n)
	}
	ix := &Index{g: g, l: L, r: R, gepoch: g.Epoch(), fromWalks: true}
	rows := R * n
	counts := make([]int64, rows+1)
	visited := make([]uint32, n)
	var generation uint32

	firstVisits := func(w, i int, emit func(v int32, hop uint16)) error {
		walk := walks[w][i]
		if len(walk) == 0 || int(walk[0]) != w {
			return fmt.Errorf("index: walk %d of node %d does not start at %d", i, w, w)
		}
		if len(walk) > L+1 {
			return fmt.Errorf("index: walk %d of node %d has %d positions, max L+1=%d", i, w, len(walk), L+1)
		}
		generation++
		visited[w] = generation
		for j := 1; j < len(walk); j++ {
			v := walk[j]
			if v < 0 || int(v) >= n {
				return fmt.Errorf("index: walk %d of node %d visits out-of-range node %d", i, w, v)
			}
			if visited[v] != generation {
				visited[v] = generation
				emit(v, uint16(j))
			}
		}
		return nil
	}

	for w := 0; w < n; w++ {
		if len(walks[w]) != R {
			return nil, fmt.Errorf("index: node %d has %d walks, want R=%d", w, len(walks[w]), R)
		}
		for i := 0; i < R; i++ {
			ii := int64(i)
			if err := firstVisits(w, i, func(v int32, hop uint16) {
				counts[int64(v)*int64(R)+ii+1]++
			}); err != nil {
				return nil, err
			}
		}
	}
	ix.offsets = counts
	for i := 1; i <= rows; i++ {
		ix.offsets[i] += ix.offsets[i-1]
	}
	total := ix.offsets[rows]
	ix.ids = make([]int32, total)
	ix.hops = make([]uint16, total)
	cursor := make([]int64, rows)
	copy(cursor, ix.offsets[:rows])
	for w := 0; w < n; w++ {
		ww := int32(w)
		for i := 0; i < R; i++ {
			ii := int64(i)
			if err := firstVisits(w, i, func(v int32, hop uint16) {
				row := int64(v)*int64(R) + ii
				c := cursor[row]
				ix.ids[c] = ww
				ix.hops[c] = hop
				cursor[row] = c + 1
			}); err != nil {
				return nil, err
			}
		}
	}
	return ix, nil
}

// Graph returns the indexed graph.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// L returns the walk-length bound the index was built with.
func (ix *Index) L() int { return ix.l }

// R returns the number of sample replicates per node materialized in this
// index — for a partial index, the width r1 − r0 of its replicate range.
func (ix *Index) R() int { return ix.r }

// R0 returns the first absolute replicate number materialized: 0 for full
// builds, r0 for an index built by BuildRangeWorkers over [r0, r1). The
// materialized range is [R0, R0+R).
func (ix *Index) R0() int { return ix.rbase }

// Seed returns the master walk seed the index was built from; 0 for indexes
// assembled from explicit walks (BuildFromWalks).
func (ix *Index) Seed() uint64 { return ix.seed }

// GraphEpoch returns the mutation epoch of the graph state the index
// reflects: g.Epoch() at build time, advanced by every Repair.
func (ix *Index) GraphEpoch() uint64 { return ix.gepoch }

// Entries returns the number of materialized (source, first-visit) pairs;
// it is bounded by nRL.
func (ix *Index) Entries() int64 {
	if ix.parts != nil {
		var total int64
		for _, pt := range ix.parts {
			total += pt.Entries()
		}
		return total
	}
	if ix.sb != nil {
		return ix.sbEntries
	}
	if ix.ends != nil {
		return int64(len(ix.ids)) - ix.dead
	}
	return ix.offsets[len(ix.offsets)-1]
}

// Row returns the sources that hit node v in replicate i and their
// first-visit hops. The slices alias index storage and must not be modified.
func (ix *Index) Row(i, v int) (ids []int32, hops []uint16) {
	if ix.parts != nil {
		pt, li := ix.partFor(i)
		return pt.Row(li, v)
	}
	if ix.sb != nil {
		return ix.storeRow(i, v)
	}
	lo, hi := ix.span(int64(v)*int64(ix.r) + int64(i))
	return ix.ids[lo:hi], ix.hops[lo:hi]
}

// MemoryBytes reports the approximate heap footprint of the index, used by
// the scalability experiment to confirm O(nRL + m) space and by the cache's
// bytes budget. Owned arrays — fresh builds and compressed chunks decoded at
// load — count in full. A chunk served from its store file counts the
// file's heap buffer once, on the parent (see below); a mapped file's pages
// belong to the page cache, not the Go heap, so they report ~0: mapped
// indexes are nearly free against the budget, which is exactly what lets a
// cache serve more index than RAM.
func (ix *Index) MemoryBytes() int64 {
	if ix.parts != nil {
		total := int64(0)
		if ix.stf != nil {
			total = ix.stf.HeapBytes()
		}
		for _, pt := range ix.parts {
			if pt.stf != nil {
				continue // pages or shared buffer, counted on the parent
			}
			total += pt.MemoryBytes()
		}
		return total
	}
	if ix.stf != nil {
		return ix.stf.HeapBytes()
	}
	return int64(len(ix.offsets))*8 + int64(len(ix.ids))*4 + int64(len(ix.hops))*2 + int64(len(ix.ends))*8
}

// DTable is the mutable D[1:R][1:n] array of Algorithms 4–6, tracking the
// per-sample hitting estimate of each node's walks under the current set S.
// A DTable belongs to a single greedy run and is not safe for concurrent
// mutation; Gain and GainBatch are pure reads and may run concurrently with
// each other (but not with Update or EstimateObjective).
type DTable struct {
	ix      *Index
	problem Problem
	d       []uint16 // candidate-major: d[u*R+i], matching the index rows
	size    int      // |S| so far
	// tabs, when non-nil, marks the table of a chunked index: one flat child
	// table per replicate chunk (per-chunk columns), with d/sat unused on the
	// parent. Every read sums exact int64 partials across tabs; Update fans
	// out to every tab. sel records the Update history so SyncChunks can
	// replay it into columns for chunks attached after the table was created.
	tabs []*DTable
	sel  []int
	// sat, Problem 2 only, memoizes nodes whose replicate row is fully
	// saturated (all R entries 1). Rows are monotone non-decreasing, so a
	// saturated row stays saturated; EstimateObjective uses it to skip the
	// O(R) scan. Lazily maintained — false just means "not yet observed
	// saturated".
	sat []bool
	// muts counts semantic mutations (Update, ExtendFrom) so Snapshot can
	// detect that its aliased view of the table went stale. sat memoization
	// is not a semantic mutation and does not bump it.
	muts uint64
}

// NewDTable returns a fresh D-table for the given problem: initialized to L
// everywhere for Problem 1 ("h_uS = L given S = ∅", Algorithm 6 line 3) and
// to 0 everywhere for Problem 2.
func (ix *Index) NewDTable(p Problem) (*DTable, error) {
	if p != Problem1 && p != Problem2 {
		return nil, fmt.Errorf("index: unknown problem %d", int(p))
	}
	if ix.parts != nil {
		t := &DTable{ix: ix, problem: p, tabs: make([]*DTable, 0, len(ix.parts))}
		for _, pt := range ix.parts {
			ct, err := pt.NewDTable(p)
			if err != nil {
				return nil, err
			}
			t.tabs = append(t.tabs, ct)
		}
		return t, nil
	}
	d := &DTable{ix: ix, problem: p, d: make([]uint16, ix.r*ix.g.N())}
	if p == Problem1 {
		l := uint16(ix.l)
		for i := range d.d {
			d.d[i] = l
		}
	} else {
		d.sat = make([]bool, ix.g.N())
	}
	return d, nil
}

// Problem returns which objective this table tracks.
func (t *DTable) Problem() Problem { return t.problem }

// Clone returns an independent copy of the table, used to evaluate
// hypothetical selections without disturbing the greedy state.
func (t *DTable) Clone() *DTable {
	if t.tabs != nil {
		c := &DTable{ix: t.ix, problem: t.problem, size: t.size, tabs: make([]*DTable, 0, len(t.tabs))}
		for _, tb := range t.tabs {
			c.tabs = append(c.tabs, tb.Clone())
		}
		c.sel = append([]int(nil), t.sel...)
		return c
	}
	d := make([]uint16, len(t.d))
	copy(d, t.d)
	var sat []bool
	if t.sat != nil {
		sat = make([]bool, len(t.sat))
		copy(sat, t.sat)
	}
	return &DTable{ix: t.ix, problem: t.problem, d: d, size: t.size, sat: sat}
}

// Size returns the number of Update calls applied, i.e. |S|.
func (t *DTable) Size() int { return t.size }

// Gain implements Algorithm 4: the approximate marginal gain of adding u to
// the current set, averaged over the R replicates.
//
// For Problem 1 this estimates F1(S∪{u}) − F1(S) under the Eq. (6) form
// F1(S) = nL − Σ_{u∈V\S} h^L_{uS}, which equals h_uS + Σ_w (h_wS − h_wSu).
// (The paper states σ_u = ... − L because its complexity analysis uses the
// alternative form Σ_{u∈V\S}(L − h_uS); the two differ by the constant L per
// added node and induce the same argmax, as the paper notes.) For Problem 2
// it estimates F2(S∪{u}) − F2(S) directly.
func (t *DTable) Gain(u int) float64 {
	return float64(t.gainInt(u)) / float64(t.ix.r)
}

// gainInt is Gain before the final division: the integer sum over the R
// replicates. Integer accumulation makes the value independent of entry
// order within rows and of how candidates are sharded across goroutines,
// which is what keeps parallel selections bit-for-bit reproducible.
//
// The candidate-major layout makes this a single pass over two contiguous
// spans: the candidate's own D-row d[u·R : (u+1)·R] and the candidate's
// index entries ids[offsets[u·R] : offsets[(u+1)·R]].
func (t *DTable) gainInt(u int) int64 {
	if t.tabs != nil {
		var acc int64
		for _, tb := range t.tabs {
			acc += tb.gainInt(u)
		}
		return acc
	}
	if t.ix.sb != nil {
		return t.gainIntStore(u)
	}
	r := t.ix.r
	base := u * r
	ends := t.ix.ends
	var acc int64
	if t.problem == Problem1 {
		for i := 0; i < r; i++ {
			acc += int64(t.d[base+i])
			lo, hi := t.ix.offsets[base+i], t.ix.offsets[base+i+1]
			if ends != nil {
				hi = ends[base+i]
			}
			ids := t.ix.ids[lo:hi]
			hops := t.ix.hops[lo:hi]
			for e, v := range ids {
				if dv := t.d[int(v)*r+i]; hops[e] < dv {
					acc += int64(dv - hops[e])
				}
			}
		}
	} else {
		for i := 0; i < r; i++ {
			if t.d[base+i] == 0 {
				acc++
			}
			lo, hi := t.ix.offsets[base+i], t.ix.offsets[base+i+1]
			if ends != nil {
				hi = ends[base+i]
			}
			for _, v := range t.ix.ids[lo:hi] {
				if t.d[int(v)*r+i] == 0 {
					acc++
				}
			}
		}
	}
	return acc
}

// GainBatch computes Gain for every candidate in us, appending into (and
// returning) out, which is grown as needed. It is a pure read of the D-table
// and safe to invoke concurrently from several goroutines over disjoint or
// overlapping candidate shards — the batch-capable oracle the parallel
// greedy driver shards its CELF sweeps over.
func (t *DTable) GainBatch(us []int, out []float64) []float64 {
	// Divide (not multiply by a reciprocal) so batch and single-candidate
	// gains are the same float64 bit pattern.
	r := float64(t.ix.r)
	for _, u := range us {
		out = append(out, float64(t.gainInt(u))/r)
	}
	return out
}

// GainSumBatch computes the integer gain sum (Gain before the final division
// by R) for every candidate in us, appending into (and returning) out. Like
// GainBatch it is a pure read, safe to invoke concurrently from several
// goroutines. It is the scatter-gather primitive of replicate-sharded
// serving: integer sums over disjoint replicate ranges merge exactly by
// addition, and the coordinator performs the single float64 division at the
// end — the same expression the unsharded Gain computes — so merged gains
// are bit-identical to unsharded ones.
func (t *DTable) GainSumBatch(us []int, out []int64) []int64 {
	for _, u := range us {
		out = append(out, t.gainInt(u))
	}
	return out
}

// ObjectiveSum returns the integer objective accumulator Σ D[u] underlying
// EstimateObjective, before averaging over replicates and (for Problem 1)
// subtracting from nL. Unlike EstimateObjective it is a pure read — it
// consults the Problem-2 saturation memo but never writes it — so it is safe
// on shared memoized tables and may run concurrently with Gain reads. The
// sharded coordinator adds these sums across replicate ranges and applies
// the final float64 arithmetic once, reproducing EstimateObjective's value
// bit-for-bit.
func (t *DTable) ObjectiveSum(members []bool) int64 {
	if t.tabs != nil {
		var acc int64
		for _, tb := range t.tabs {
			acc += tb.ObjectiveSum(members)
		}
		return acc
	}
	n := t.ix.g.N()
	r := t.ix.r
	var acc int64
	for u := 0; u < n; u++ {
		if t.problem == Problem1 && members[u] {
			continue
		}
		if t.sat != nil && t.sat[u] {
			acc += int64(r)
			continue
		}
		base := u * r
		for i := 0; i < r; i++ {
			acc += int64(t.d[base+i])
		}
	}
	return acc
}

// Update implements Algorithm 5: fold the newly selected node u into the
// D-table so subsequent Gain calls are relative to S ∪ {u}.
func (t *DTable) Update(u int) {
	if t.tabs != nil {
		for _, tb := range t.tabs {
			tb.Update(u)
		}
		t.sel = append(t.sel, u)
		t.size++
		t.muts++
		return
	}
	if t.ix.sb != nil {
		t.updateStore(u)
		t.size++
		t.muts++
		return
	}
	r := t.ix.r
	base := u * r
	ends := t.ix.ends
	if t.problem == Problem1 {
		for i := 0; i < r; i++ {
			t.d[base+i] = 0
			lo, hi := t.ix.offsets[base+i], t.ix.offsets[base+i+1]
			if ends != nil {
				hi = ends[base+i]
			}
			ids := t.ix.ids[lo:hi]
			hops := t.ix.hops[lo:hi]
			for e, v := range ids {
				if j := int(v)*r + i; hops[e] < t.d[j] {
					t.d[j] = hops[e]
				}
			}
		}
	} else {
		for i := 0; i < r; i++ {
			t.d[base+i] = 1
			lo, hi := t.ix.offsets[base+i], t.ix.offsets[base+i+1]
			if ends != nil {
				hi = ends[base+i]
			}
			for _, v := range t.ix.ids[lo:hi] {
				t.d[int(v)*r+i] = 1
			}
		}
	}
	t.size++
	t.muts++
}

// EstimateObjective returns the sampled objective value implied by the
// current D-table: for Problem 1, F̂1 = nL − Σ_{u∉S} D̄[u] where D̄ is the
// replicate average (S-members hold D = 0 and are excluded by construction
// since their D is 0); for Problem 2, F̂2 = Σ_u D̄[u]. The members parameter
// identifies S for the Problem-1 exclusion.
//
// The scan is candidate-major — one contiguous R-span per node — and for
// Problem 2 a node observed fully saturated (all replicates hit) is
// memoized in the sat bitmap and skipped on later calls: rows only ever
// grow toward saturation, and late greedy rounds saturate most of the
// graph, so repeated objective probes become nearly O(n).
func (t *DTable) EstimateObjective(members []bool) float64 {
	var acc int64
	if t.tabs != nil {
		for _, tb := range t.tabs {
			acc += tb.objectiveAccum(members)
		}
	} else {
		acc = t.objectiveAccum(members)
	}
	n := t.ix.g.N()
	avg := float64(acc) / float64(t.ix.r)
	if t.problem == Problem1 {
		return float64(n)*float64(t.ix.l) - avg
	}
	return avg
}

// objectiveAccum is EstimateObjective's integer accumulator over a flat
// table's replicate columns, maintaining the Problem-2 saturation memo. The
// chunked path sums it across child tables and applies the float arithmetic
// once with the total replicate width, so chunked objectives are bit-for-bit
// identical to flat ones.
func (t *DTable) objectiveAccum(members []bool) int64 {
	n := t.ix.g.N()
	r := t.ix.r
	var acc int64
	for u := 0; u < n; u++ {
		if t.problem == Problem1 && members[u] {
			continue
		}
		if t.sat != nil && t.sat[u] {
			acc += int64(r)
			continue
		}
		var row int64
		base := u * r
		for i := 0; i < r; i++ {
			row += int64(t.d[base+i])
		}
		if t.sat != nil && row == int64(r) {
			t.sat[u] = true
		}
		acc += row
	}
	return acc
}
