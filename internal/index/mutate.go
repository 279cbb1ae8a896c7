package index

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Incremental index repair after a graph mutation. Walks are seeded per
// (node, absolute replicate) — rng.Mix(seed, w, r0+i) — so every walk is
// deterministically regenerable from its identity alone, and a walk's
// trajectory depends only on the adjacency rows of the nodes it visits.
// graph.ApplyDelta reports exactly which rows changed (the touched nodes),
// which makes the affected-walk set identifiable from the index itself:
//
//   - walk (w, i) is affected iff its OLD trajectory visits a touched node,
//     i.e. w is a touched node or w appears in old row (t, i) of some
//     touched t (rows record every source whose walk visits t);
//   - every other walk replays bit-identically on the new graph (inductively,
//     each step leaves from an untouched node whose row is unchanged) and
//     needs no repair;
//   - walks of freshly added nodes are new and are generated outright; any
//     walk reaching a new node must traverse a new edge and therefore leaves
//     from a touched node first, so it is already in the affected set.
//
// Repair replays each affected walk on the old and the new graph in
// lockstep: one Float64 draw per step, fed to both graphs' PickNeighbor,
// each side with its own visited stamps and its own dead end. The first hop
// j* where the two picks differ (a stop on one side only counts) is where
// the walk diverges. An affected walk that never diverges — at every
// touched node it visits, the draw picks the same neighbour on both graphs
// — contributes nothing. A diverging walk's first visits before j* are the
// same on both graphs by construction, so it only removes its old first
// visits at hops ≥ j* and inserts its new ones.
//
// The edits are two slices of (row, source) pairs — removals and
// insertions — ordered by row with a stable radix sort (each row's edits
// already arrive in source order) and merged in one pass into the already
// source-sorted rows; a source both removed and inserted in a row is an
// update of its entry. Edited rows are written in row-key order, in place
// when they fit their old span and otherwise relocated to the tail, leaving
// the index patched (see the layout comment in index.go) until enough
// storage is dead to warrant compaction.
//
// Cost: O(L) per affected walk for the lockstep replay, plus a radix sort
// of the diverging walks' edits and one pass over every row they edit — not
// the nRL of a full rebuild. On Erdős–Rényi graphs (the delta and graph
// axes of BenchmarkIncrementalRepair) that is linear in the delta and flat
// in the graph: about 1.2 ms for 8 edges at n=20000. On power-law graphs a
// touched hub lies on many walks, so the affected population grows with
// the hub's visit count, but most affected walks never diverge. On the
// mutate-mixed benchmark's graph (BenchmarkIncrementalRepair/powerlaw:
// n=5000, L=6, R=50, 8 toggled edges) 3983 of the 250k walks are affected,
// 1323 diverge, and their ~4.4k removals and ~4.4k insertions edit 8k rows:
// about 4 ms a delta against about 65 ms for a single-worker rebuild, on a
// 2-core VM.

// ErrUnrepairable marks indexes Repair cannot service: BuildFromWalks
// assembles entries from caller-provided walks, which cannot be regenerated
// from the seed.
var ErrUnrepairable = fmt.Errorf("index: built from explicit walks, cannot repair")

// compactThreshold triggers compaction when more than this fraction of the
// physical entry storage is dead.
const compactThreshold = 0.5

// entrySorter sorts a row's (id, hop) pairs by source id: the shared-counter
// build path sorts every row with it, and Repair's merge with it sorts any
// unsorted row it is handed. Keeping rows sorted is what makes a build the
// same at every worker count and a compacted repair bit-identical to a full
// rebuild.
type entrySorter struct {
	ids  []int32
	hops []uint16
}

func (s *entrySorter) Len() int           { return len(s.ids) }
func (s *entrySorter) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s *entrySorter) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.hops[i], s.hops[j] = s.hops[j], s.hops[i]
}

// Repair updates the index in place from the graph it currently reflects to
// ng, the result of exactly one graph.ApplyDelta (ng.Epoch() must be one
// past the index's GraphEpoch). touched is the delta's touched-node list as
// returned by ApplyDelta. After Repair the index answers every query exactly
// as a fresh build against ng would: Compact() followed by comparing the CSR
// arrays to a rebuild is bit-identical, which the parity tests assert.
//
// Repair mutates the index and is NOT safe to run concurrently with any
// reader (Gain, Update, Row, EmptySetGains, WriteStore, ...); the engine
// serializes it against in-flight queries. D-tables created before a Repair
// are invalid afterwards and must be discarded.
func (ix *Index) Repair(ng *graph.Graph, touched []int) error {
	if ix.fromWalks {
		return ErrUnrepairable
	}
	if ng == nil {
		return fmt.Errorf("index: repair against nil graph")
	}
	if ng.Epoch() != ix.gepoch+1 {
		return fmt.Errorf("index: repair applies one delta: index at graph epoch %d, graph at %d (want %d)",
			ix.gepoch, ng.Epoch(), ix.gepoch+1)
	}
	oldN, newN := ix.g.N(), ng.N()
	if newN < oldN {
		return fmt.Errorf("index: repair shrank the graph (%d -> %d nodes)", oldN, newN)
	}
	for _, t := range touched {
		if t < 0 || t >= newN {
			return fmt.Errorf("index: touched node %d out of range [0,%d)", t, newN)
		}
	}
	// Mutation needs writable arrays; a store-backed index serves off
	// read-only pages, so copy-on-write onto the heap first (backing.go).
	if err := ix.Promote(); err != nil {
		return err
	}
	if ix.parts != nil {
		// Chunks are self-contained partial indexes over disjoint replicate
		// ranges, so each repairs independently against the same delta; the
		// parent then advances its aggregate graph state.
		for _, pt := range ix.parts {
			if err := pt.Repair(ng, touched); err != nil {
				return err
			}
		}
		ix.g = ng
		ix.gepoch = ng.Epoch()
		ix.resetEmptyMemos()
		return nil
	}
	R := ix.r
	oldRows := int64(oldN) * int64(R)
	newRows := int64(newN) * int64(R)

	// Enter the patched layout (idempotent), then grow the row space for any
	// added nodes: new rows start empty at the current tail.
	if ix.ends == nil {
		ends := make([]int64, oldRows, newRows)
		copy(ends, ix.offsets[1:oldRows+1])
		ix.ends = ends
	}
	if newRows > oldRows {
		tail := int64(len(ix.ids))
		off := make([]int64, newRows+1)
		copy(off, ix.offsets[:oldRows+1])
		for k := oldRows; k <= newRows; k++ {
			off[k] = tail
		}
		ix.offsets = off
		for k := oldRows; k < newRows; k++ {
			ix.ends = append(ix.ends, tail)
		}
	}

	// Replay every replicate's affected walks, then merge the edits they
	// call for into the rows, in row-key order.
	rp := &replayer{
		ix: ix, ng: ng,
		touched: make([]bool, newN),
		visOld:  make([]uint32, oldN),
		visNew:  make([]uint32, newN),
	}
	for _, t := range touched {
		rp.touched[t] = true
	}
	for i := 0; i < R; i++ {
		rp.replicate(i, touched)
	}
	buf := make([]edit, len(rp.remove)+len(rp.insert))
	ix.mergeEdits(sortByRow(rp.remove, buf[:len(rp.remove)]), sortByRow(rp.insert, buf[len(rp.remove):]))

	ix.g = ng
	ix.gepoch = ng.Epoch()
	ix.resetEmptyMemos()
	if float64(ix.dead) > compactThreshold*float64(len(ix.ids)) {
		ix.Compact()
	}
	return nil
}

// edit is one pending change to row k: the removal of source src's entry,
// or the insertion of src with first-visit hop hop.
type edit struct {
	k   int64
	src int32
	hop uint16
}

// sortByRow orders edits by row, stably: a least-significant-digit radix
// sort on k, one byte a pass, skipping the bytes every k shares. A replicate
// replays its walks in ascending source order and a walk edits a row at
// most once a side, so each row's edits arrive sorted by source and
// stability keeps them so. buf is scratch of len(edits); the result is
// either edits or buf.
func sortByRow(edits, buf []edit) []edit {
	var or, and int64 = 0, -1
	for _, e := range edits {
		or |= e.k
		and &= e.k
	}
	varying := uint64(or ^ and)
	for shift := 0; shift < 64 && varying>>shift != 0; shift += 8 {
		if byte(varying>>shift) == 0 {
			continue
		}
		var start [256]int
		for _, e := range edits {
			start[byte(e.k>>shift)]++
		}
		pos := 0
		for d, c := range start {
			start[d] = pos
			pos += c
		}
		for _, e := range edits {
			d := byte(e.k >> shift)
			buf[start[d]] = e
			start[d]++
		}
		edits, buf = buf, edits
	}
	return edits
}

// replayer replays the affected walks of a flat index against the graph
// it is being repaired to, collecting the edits they call for.
type replayer struct {
	ix      *Index
	ng      *graph.Graph
	touched []bool // by node: the delta changed its row

	rnd            rng.Source
	visOld, visNew []uint32 // per-walk first-visit stamps on each graph
	gen            uint32

	walks          []int32 // the current replicate's affected walks
	remove, insert []edit
}

// replicate replays replicate i's affected walks in lockstep, in ascending
// source order, then generates the walks of the nodes the delta added.
func (rp *replayer) replicate(i int, touched []int) {
	ix := rp.ix
	R := int64(ix.r)
	oldN := ix.g.N()
	walks := rp.walks[:0]
	for _, t := range touched {
		if t >= oldN {
			continue
		}
		k := int64(t)*R + int64(i)
		walks = append(walks, int32(t))
		walks = append(walks, ix.ids[ix.offsets[k]:ix.ends[k]]...)
	}
	slices.Sort(walks)
	walks = slices.Compact(walks)
	for _, w := range walks {
		rp.walk(int(w), i, false)
	}
	for w := oldN; w < rp.ng.N(); w++ {
		rp.walk(w, i, true)
	}
	rp.walks = walks
}

// walk replays walk (w, i) on the index's graph and the new graph in
// lockstep and records, from the first hop where the two diverge, the old
// first visits as removals and the new ones as insertions. A fresh walk
// starts at a node the delta added: it has no old side and diverges at once.
func (rp *replayer) walk(w, i int, fresh bool) {
	og, ng := rp.ix.g, rp.ng
	R := int64(rp.ix.r)
	rp.rnd.Seed(rng.Mix(rp.ix.seed, uint64(w), uint64(rp.ix.rbase+i)))
	rp.gen++
	gen := rp.gen
	if !fresh {
		rp.visOld[w] = gen
	}
	rp.visNew[w] = gen
	uo, un := w, w
	liveOld, liveNew, diverged := !fresh, true, fresh
	for j := 1; j <= rp.ix.l && (liveOld || liveNew); j++ {
		x := rp.rnd.Float64()
		vo, vn := -1, -1
		if liveNew {
			vn = ng.PickNeighbor(un, x)
		}
		switch {
		case !diverged && !rp.touched[uo]:
			// Both sides stand on one node whose row the delta left alone.
			vo = vn
		case liveOld:
			vo = og.PickNeighbor(uo, x)
		}
		if !diverged {
			if vo == vn {
				if vo < 0 {
					return
				}
				rp.visOld[vo], rp.visNew[vo] = gen, gen
				uo, un = vo, vn
				continue
			}
			diverged = true
		}
		if vo < 0 {
			liveOld = false
		} else {
			if rp.visOld[vo] != gen {
				rp.visOld[vo] = gen
				rp.remove = append(rp.remove, edit{k: int64(vo)*R + int64(i), src: int32(w)})
			}
			uo = vo
		}
		if vn < 0 {
			liveNew = false
		} else {
			if rp.visNew[vn] != gen {
				rp.visNew[vn] = gen
				rp.insert = append(rp.insert, edit{k: int64(vn)*R + int64(i), src: int32(w), hop: uint16(j)})
			}
			un = vn
		}
	}
}

// mergeEdits applies sorted removals and insertions row by row in row-key
// order. Each edited row is merged with its edits in one pass, keeping it
// sorted by source; a source both removed and inserted is an update. The
// row is written back in place when it fits its old span and relocated to
// the tail when it grew.
func (ix *Index) mergeEdits(remove, insert []edit) {
	var ids []int32
	var hops []uint16
	for len(remove) > 0 || len(insert) > 0 {
		k := int64(math.MaxInt64)
		if len(remove) > 0 {
			k = remove[0].k
		}
		if len(insert) > 0 {
			k = min(k, insert[0].k)
		}
		a, b := 0, 0
		for a < len(remove) && remove[a].k == k {
			a++
		}
		for b < len(insert) && insert[b].k == k {
			b++
		}
		rm, in := remove[:a], insert[:b]
		remove, insert = remove[a:], insert[b:]

		lo, hi := ix.offsets[k], ix.ends[k]
		if !slices.IsSorted(ix.ids[lo:hi]) {
			// Build paths emit sorted rows; a row that reaches Repair some
			// other way need not be, and a row is a set, so sort it first.
			sort.Sort(&entrySorter{ix.ids[lo:hi], ix.hops[lo:hi]})
		}
		ids, hops = ids[:0], hops[:0]
		for p := lo; p < hi; p++ {
			s := ix.ids[p]
			for ; len(in) > 0 && in[0].src < s; in = in[1:] {
				ids = append(ids, in[0].src)
				hops = append(hops, in[0].hop)
			}
			if len(rm) > 0 && rm[0].src == s {
				rm = rm[1:]
				continue
			}
			ids = append(ids, s)
			hops = append(hops, ix.hops[p])
		}
		for _, e := range in {
			ids = append(ids, e.src)
			hops = append(hops, e.hop)
		}

		oldLen, n := hi-lo, int64(len(ids))
		if n <= oldLen {
			copy(ix.ids[lo:], ids)
			copy(ix.hops[lo:], hops)
			ix.ends[k] = lo + n
			ix.dead += oldLen - n
			continue
		}
		start := int64(len(ix.ids))
		ix.ids = append(ix.ids, ids...)
		ix.hops = append(ix.hops, hops...)
		ix.offsets[k] = start
		ix.ends[k] = start + n
		ix.dead += oldLen
	}
}

// compactArrays builds fresh compact CSR arrays from a patched index's live
// spans, in row order, without touching the receiver.
func (ix *Index) compactArrays() ([]int64, []int32, []uint16) {
	rows := int64(len(ix.ends))
	total := int64(len(ix.ids)) - ix.dead
	offsets := make([]int64, rows+1)
	ids := make([]int32, total)
	hops := make([]uint16, total)
	pos := int64(0)
	for k := int64(0); k < rows; k++ {
		offsets[k] = pos
		lo, hi := ix.offsets[k], ix.ends[k]
		pos += int64(copy(ids[pos:], ix.ids[lo:hi]))
		copy(hops[offsets[k]:], ix.hops[lo:hi])
	}
	offsets[rows] = pos
	return offsets, ids, hops
}

// Compact restores the canonical compact layout after Repairs have left the
// index patched: rows become adjacent and in row order again, dead storage
// is released, and — because Repair keeps rows sorted by source — the
// resulting arrays are bit-identical to a fresh build against the current
// graph. It is a no-op on a compact index. Like Repair it mutates the index
// and must not run concurrently with readers.
func (ix *Index) Compact() {
	if ix.parts != nil {
		for _, pt := range ix.parts {
			pt.Compact()
		}
		return
	}
	if ix.ends == nil {
		return
	}
	ix.offsets, ix.ids, ix.hops = ix.compactArrays()
	ix.ends = nil
	ix.dead = 0
}

// compacted returns a compact view of a flat index (or one chunk) for
// serialization: the receiver itself when already compact, otherwise a shallow copy with
// freshly compacted arrays — the receiver is never mutated, so WriteStore stays
// safe for concurrent readers of a compact index and never persists the
// patched layout. A decode-on-read chunk whose blocks fail to decode returns
// the error: persisting it any other way would give wrong rows valid CRCs.
func (ix *Index) compacted() (*Index, error) {
	if ix.sb == nil && ix.ends == nil {
		return ix, nil
	}
	c := &Index{g: ix.g, l: ix.l, r: ix.r, rbase: ix.rbase, seed: ix.seed, gepoch: ix.gepoch, fromWalks: ix.fromWalks}
	if ix.sb != nil {
		// Decode-on-read chunks have no materialized arrays: decode the
		// whole chunk into a compact copy (blocks are compact by
		// construction), leaving the receiver untouched.
		offsets, ids, hops, err := ix.sb.Materialize()
		if err != nil {
			return nil, fmt.Errorf("index: serialize store-backed chunk: %w", err)
		}
		c.offsets, c.ids, c.hops = offsets, ids, hops
		return c, nil
	}
	c.offsets, c.ids, c.hops = ix.compactArrays()
	return c, nil
}

// compactParts returns the index's chunks in compact form for the
// serializers (a flat index is one chunk).
func (ix *Index) compactParts() ([]*Index, error) {
	src := ix.parts
	if src == nil {
		src = []*Index{ix}
	}
	parts := make([]*Index, len(src))
	for i, pt := range src {
		c, err := pt.compacted()
		if err != nil {
			return nil, err
		}
		parts[i] = c
	}
	return parts, nil
}
