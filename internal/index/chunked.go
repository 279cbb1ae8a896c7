package index

import (
	"fmt"

	"repro/internal/graph"
)

// Chunked replicate columns. A chunked index materializes its replicate
// range as an ordered set of chunks, each a self-contained candidate-major
// CSR over a consecutive sub-range built by BuildRangeWorkers from the same
// master seed. Because every walk is seeded per (node, absolute replicate) —
// rng.Mix(seed, w, r0+i) — chunk c over [c0, c1) holds exactly the rows
// [c0, c1) of the flat build, so:
//
//   - integer gain and objective partials summed across chunks equal the
//     flat build's sums exactly (the same invariant replicate-sharded
//     serving merges on), making every chunked answer bit-identical to the
//     flat answer at the same total width;
//   - the index can grow one chunk at a time (ExtendReplicates) without
//     disturbing existing chunks — the mechanism the adaptive accuracy
//     driver in internal/core uses to stop sampling early when a confidence
//     interval on the leading candidate's separation is tight.
//
// D-tables of a chunked index hold per-chunk columns (one flat child table
// per chunk) behind the unchanged DTable API; SyncChunks attaches columns
// for freshly extended chunks by replaying the table's selection history.

// BuildChunkedWorkers materializes R replicates as consecutive chunks of
// (at most) chunk replicates each — the last chunk is ragged when
// R % chunk != 0 — sharded over the given number of goroutines per chunk
// build. The result answers every query bit-identically to
// BuildWorkers(g, L, R, seed, ·); it differs only in physical layout and in
// supporting ExtendReplicates.
func BuildChunkedWorkers(g *graph.Graph, L, R int, seed uint64, chunk, workers int) (*Index, error) {
	if R <= 0 {
		return nil, fmt.Errorf("index: sample size R = %d, want > 0", R)
	}
	return BuildChunkedRangeWorkers(g, L, seed, 0, R, chunk, workers)
}

// BuildChunkedRangeWorkers is BuildChunkedWorkers over the replicate range
// [r0, r1): the chunked twin of BuildRangeWorkers. Chunk boundaries fall at
// r0, r0+chunk, r0+2·chunk, ... capped at r1.
func BuildChunkedRangeWorkers(g *graph.Graph, L int, seed uint64, r0, r1, chunk, workers int) (*Index, error) {
	if chunk < 1 {
		return nil, fmt.Errorf("index: chunk size %d, want >= 1", chunk)
	}
	if r0 < 0 || r1 <= r0 {
		return nil, fmt.Errorf("index: replicate range [%d, %d) invalid, want 0 <= r0 < r1", r0, r1)
	}
	parent := &Index{g: g, l: L, rbase: r0, seed: seed, gepoch: g.Epoch(), parts: make([]*Index, 0, (r1-r0+chunk-1)/chunk)}
	for c0 := r0; c0 < r1; c0 += chunk {
		c1 := c0 + chunk
		if c1 > r1 {
			c1 = r1
		}
		pt, err := BuildRangeWorkers(g, L, seed, c0, c1, workers)
		if err != nil {
			return nil, err
		}
		parent.parts = append(parent.parts, pt)
		parent.r += c1 - c0
	}
	return parent, nil
}

// ExtendReplicates appends one fresh chunk of width replicates at the end of
// the materialized range, so the index answers for R+width replicates
// exactly as a from-scratch chunked build of that width would. Only chunked
// indexes extend; D-tables created before the extension must call SyncChunks
// before their next read. Like Repair, ExtendReplicates mutates the index
// and must not run concurrently with readers.
func (ix *Index) ExtendReplicates(width, workers int) error {
	if ix.parts == nil {
		return fmt.Errorf("index: ExtendReplicates requires a chunked index (BuildChunkedWorkers)")
	}
	if width <= 0 {
		return fmt.Errorf("index: extend width %d, want > 0", width)
	}
	c0 := ix.rbase + ix.r
	pt, err := BuildRangeWorkers(ix.g, ix.l, ix.seed, c0, c0+width, workers)
	if err != nil {
		return err
	}
	ix.parts = append(ix.parts, pt)
	ix.r += width
	ix.resetEmptyMemos()
	return nil
}

// Chunked reports whether the index is stored as replicate chunks.
func (ix *Index) Chunked() bool { return ix.parts != nil }

// Chunks returns the number of replicate chunks: 1 for a flat index.
func (ix *Index) Chunks() int {
	if ix.parts == nil {
		return 1
	}
	return len(ix.parts)
}

// partFor maps local replicate i to the chunk holding it and i's offset
// within that chunk.
func (ix *Index) partFor(i int) (*Index, int) {
	for _, pt := range ix.parts {
		if i < pt.r {
			return pt, i
		}
		i -= pt.r
	}
	panic(fmt.Sprintf("index: replicate %d beyond materialized width", i))
}

// MaxRowLen returns the largest number of index entries in any single
// replicate row of node u. The adaptive accuracy driver turns it into a
// range bound on u's per-replicate gain (every entry contributes at most 1
// for Problem 2 and at most L−1 hitting-time improvement for Problem 1) for
// its Hoeffding/empirical-Bernstein confidence intervals.
func (ix *Index) MaxRowLen(u int) int {
	if ix.parts != nil {
		best := 0
		for _, pt := range ix.parts {
			if m := pt.MaxRowLen(u); m > best {
				best = m
			}
		}
		return best
	}
	lo, hi, _, _ := ix.nodeRows(u)
	best := int64(0)
	for i := range lo {
		best = max(best, hi[i]-lo[i])
	}
	return int(best)
}

// SyncChunks attaches per-chunk columns for chunks the index gained through
// ExtendReplicates since this table was created (or last synced), replaying
// the table's Update history into each new column. Afterwards the table
// answers exactly as a table freshly built at the current width with the
// same selections applied. Syncing is a semantic mutation: outstanding
// Snapshots of the table are invalidated when columns were attached.
func (t *DTable) SyncChunks() error {
	if t.tabs == nil {
		if t.ix.parts == nil {
			return nil
		}
		return fmt.Errorf("index: SyncChunks on a flat table of a chunked index")
	}
	grew := false
	for len(t.tabs) < len(t.ix.parts) {
		ct, err := t.ix.parts[len(t.tabs)].NewDTable(t.problem)
		if err != nil {
			return err
		}
		for _, u := range t.sel {
			ct.Update(u)
		}
		t.tabs = append(t.tabs, ct)
		grew = true
	}
	if grew {
		t.muts++
	}
	return nil
}

// AppendReplicateGainSums appends u's integer gain in each materialized
// replicate — the per-replicate terms whose sum is exactly the gainInt
// behind Gain/GainSumBatch — to out in replicate order, and returns the
// grown slice. It is a pure read, safe concurrently with other reads. The
// adaptive accuracy driver uses the per-replicate samples of the two
// leading candidates to bound the separation of their means.
func (t *DTable) AppendReplicateGainSums(u int, out []int64) []int64 {
	if t.tabs != nil {
		for _, tb := range t.tabs {
			out = tb.AppendReplicateGainSums(u, out)
		}
		return out
	}
	r := t.ix.r
	lo, hi, ids, hops := t.ix.nodeRows(u)
	d := t.d
	own := d[u*r : (u+1)*r]
	if t.problem == Problem1 {
		for i, du := range own {
			acc := int64(du)
			rowIDs, rowHops := ids[lo[i]:hi[i]], hops[lo[i]:hi[i]]
			rowHops = rowHops[:len(rowIDs)] // drops the check on rowHops[e]
			for e, v := range rowIDs {
				if dv := d[int(v)*r+i]; rowHops[e] < dv {
					acc += int64(dv - rowHops[e])
				}
			}
			out = append(out, acc)
		}
		return out
	}
	for i, du := range own {
		var acc int64
		if du == 0 {
			acc++
		}
		for _, v := range ids[lo[i]:hi[i]] {
			if d[int(v)*r+i] == 0 {
				acc++
			}
		}
		out = append(out, acc)
	}
	return out
}
