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
//
// What the index derives from its entries is patched from the same replay
// rather than recomputed by the next reader:
//
//   - the memoized empty-set sums take each removed and inserted entry's
//     term as mergeEdits writes its row (O(edits)); an added node starts
//     from its own rows' term;
//   - each D-table handed to Repair is rewritten for the diverged walks
//     that meet its set S, on either graph (Algorithm 5's rule on the new
//     trajectory; see DTable.patch). The replay keeps every diverged walk's
//     new first-visit list and its old one past the divergence, indexed by
//     node, so a table visits only the walks through its own members: O(n)
//     for its membership bitmap plus O(L) per such walk. On the graph above
//     a patch costs microseconds a table, against 0.35–0.6 ms to replay a
//     hub-heavy table from scratch, and the table's objective moves by the
//     integer change it reports (ObjectiveDelta), not by a rescan.
//
// Repair mutates in place, so the engine repairs a Copy of an index an
// in-flight read still holds (a copy of its arrays) rather than dropping
// it for a rebuild.

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
// What the index derives from its entries is patched along with them, so a
// delta leaves the read path warm. The memoized empty-set sums take each
// removed and inserted entry's term (O(edits)). Each table in tables, which
// must be built on the receiver, is rewritten for the walks that diverged
// (see DTable.patch); its d grows for added nodes, its Snapshots go stale,
// and its ObjectiveDelta reports how much its objective sum moved.
//
// Repair mutates the index and the tables and is NOT safe to run
// concurrently with any reader of either (Gain, Update, Row,
// EmptySetGains, WriteStore, ...); the engine serializes it against
// in-flight queries, and repairs a Copy when a reader holds the index.
// D-tables created before a Repair and not passed to it are invalid
// afterwards and must be discarded.
func (ix *Index) Repair(ng *graph.Graph, touched []int, tables ...*DTable) error {
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
	for _, t := range tables {
		if t.ix != ix {
			return fmt.Errorf("index: repair of a D-table built on another index")
		}
	}
	// Mutation needs writable arrays; a store-backed index serves off
	// read-only pages, so copy-on-write onto the heap first (backing.go).
	if err := ix.Promote(); err != nil {
		return err
	}
	sums := ix.growEmptySums(newN)
	if ix.parts == nil {
		ix.repairFlat(ng, touched, sums, tables)
		return nil
	}
	// Chunks are self-contained partial indexes over disjoint replicate
	// ranges, so each repairs independently against the same delta, patching
	// its columns of the tables and its terms of the parent's sums; the
	// parent then advances its aggregate graph state.
	cols := make([]*DTable, 0, len(tables))
	for c, pt := range ix.parts {
		cols = cols[:0]
		for _, t := range tables {
			if c < len(t.tabs) {
				cols = append(cols, t.tabs[c])
			}
		}
		pt.repairFlat(ng, touched, sums, cols)
	}
	for _, t := range tables {
		t.objDelta = 0
		for _, tb := range t.tabs {
			t.objDelta += tb.objDelta
		}
		t.muts++
	}
	ix.g = ng
	ix.gepoch = ng.Epoch()
	return nil
}

// repairFlat is Repair's body for a flat index or one chunk, whose
// arguments Repair has checked. sums are the memoized empty-set sums to
// patch, the receiver's own or its chunked parent's.
func (ix *Index) repairFlat(ng *graph.Graph, touched []int, sums [2][]int64, tables []*DTable) {
	R := ix.r
	oldN, newN := ix.g.N(), ng.N()
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
	// call for into the rows, in row-key order, and rewrite the tables'
	// entries for the walks that diverged.
	rp := &replayer{
		ix: ix, ng: ng,
		touched: make([]bool, newN),
		visOld:  make([]uint32, oldN),
		visNew:  make([]uint32, newN),
		keep:    len(tables) > 0,
	}
	for _, t := range touched {
		rp.touched[t] = true
	}
	for i := 0; i < R; i++ {
		rp.replicate(i, touched)
	}
	buf := make([]edit, len(rp.remove)+len(rp.insert))
	ix.mergeEdits(sortByRow(rp.remove, buf[:len(rp.remove)]), sortByRow(rp.insert, buf[len(rp.remove):]), sums)
	if len(tables) > 0 {
		rp.indexTrails(newN)
		for _, t := range tables {
			t.patch(rp, newN)
		}
	}

	ix.g = ng
	ix.gepoch = ng.Epoch()
	if float64(ix.dead) > compactThreshold*float64(len(ix.ids)) {
		ix.Compact()
	}
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

	// keep asks for the diverged walks' trajectories, which the tables
	// being repaired are rewritten from: trails[t] is walk (w, i)'s whole
	// first-visit list on the new graph, visits[lo:mid], then the nodes its
	// old trajectory first visited from the divergence on, visits[mid:hi].
	// meet lists the trails that visit node v, on either side, at
	// meet[meetAt[v]:meetAt[v+1]] (indexTrails).
	keep         bool
	visits       []visit
	oldVisits    []visit // the current walk's old side past the divergence
	trails       []trail
	meet, meetAt []int32
}

// visit is a walk's first visit to node v, at hop hop.
type visit struct {
	v   int32
	hop uint16
}

// trail locates a diverged walk's trajectories in replayer.visits.
type trail struct {
	w, i        int32
	lo, mid, hi int
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
	mark := len(rp.visits)
	rp.oldVisits = rp.oldVisits[:0]
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
					break
				}
				if rp.keep && rp.visNew[vo] != gen {
					rp.visits = append(rp.visits, visit{v: int32(vo), hop: uint16(j)})
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
				if rp.keep {
					rp.oldVisits = append(rp.oldVisits, visit{v: int32(vo), hop: uint16(j)})
				}
			}
			uo = vo
		}
		if vn < 0 {
			liveNew = false
		} else {
			if rp.visNew[vn] != gen {
				rp.visNew[vn] = gen
				rp.insert = append(rp.insert, edit{k: int64(vn)*R + int64(i), src: int32(w), hop: uint16(j)})
				if rp.keep {
					rp.visits = append(rp.visits, visit{v: int32(vn), hop: uint16(j)})
				}
			}
			un = vn
		}
	}
	if !rp.keep {
		return
	}
	if !diverged {
		// The walk is the same on both graphs: no table entry changes.
		rp.visits = rp.visits[:mark]
		return
	}
	mid := len(rp.visits)
	rp.visits = append(rp.visits, rp.oldVisits...)
	rp.trails = append(rp.trails, trail{w: int32(w), i: int32(i), lo: mark, mid: mid, hi: len(rp.visits)})
}

// indexTrails lists, for each of the n nodes, the diverged walks that
// visit it on either graph (a counting sort of the trails' visits), so a
// table finds the walks that meet its set without scanning them all.
func (rp *replayer) indexTrails(n int) {
	at := make([]int32, n+1)
	for _, x := range rp.visits {
		at[x.v+1]++
	}
	for v := range n {
		at[v+1] += at[v]
	}
	pos := slices.Clone(at[:n])
	rp.meet = make([]int32, len(rp.visits))
	for id, tr := range rp.trails {
		for _, x := range rp.visits[tr.lo:tr.hi] {
			rp.meet[pos[x.v]] = int32(id)
			pos[x.v]++
		}
	}
	rp.meetAt = at
}

// mergeEdits applies sorted removals and insertions row by row in row-key
// order. Each edited row is merged with its edits in one pass, keeping it
// sorted by source; a source both removed and inserted is an update. The
// row is written back in place when it fits its old span and relocated to
// the tail when it grew. Every removed entry (with its old hop) and every
// inserted one moves the row's node's empty-set sums by its term, which
// emptySumInt defines: L − hop when hop < L for Problem 1, 1 for Problem
// 2; nil sums are skipped.
func (ix *Index) mergeEdits(remove, insert []edit, sums [2][]int64) {
	var ids []int32
	var hops []uint16
	l := uint16(ix.l)
	term := func(hop uint16) int64 {
		if hop < l {
			return int64(l - hop)
		}
		return 0
	}
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
		var d1 int64 // the row's Problem-1 term change
		for p := lo; p < hi; p++ {
			s := ix.ids[p]
			for ; len(in) > 0 && in[0].src < s; in = in[1:] {
				ids = append(ids, in[0].src)
				hops = append(hops, in[0].hop)
				d1 += term(in[0].hop)
			}
			if len(rm) > 0 && rm[0].src == s {
				rm = rm[1:]
				d1 -= term(ix.hops[p])
				continue
			}
			ids = append(ids, s)
			hops = append(hops, ix.hops[p])
		}
		for _, e := range in {
			ids = append(ids, e.src)
			hops = append(hops, e.hop)
			d1 += term(e.hop)
		}
		v := k / int64(ix.r)
		if sums[0] != nil {
			sums[0][v] += d1
		}
		if sums[1] != nil {
			sums[1][v] += int64(len(ids)) - (hi - lo)
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

// patch rewrites a flat table for the walks its index's repair saw
// diverge, once the index reflects n nodes. D[w·R+i] is a function of walk
// (w, i)'s first visits alone — Algorithm 5 folds it to 0 (Problem 1) or 1
// (Problem 2) for w ∈ S, and otherwise to min(L, the first hop at which
// the walk visits S) or the indicator that it does — so a walk that did not
// diverge keeps its entry, and so does one whose source is in S. A
// diverged walk's value can change only when its old or its new trajectory
// meets S: those walks, found through the trail index, take the value of
// their new trajectory. The entries of added nodes start as on a fresh
// table (L or 0) before their walks are applied. The change to the table's
// objective sum is kept for ObjectiveDelta; a Problem-2 row that took a
// rewrite loses its saturation mark.
func (t *DTable) patch(rp *replayer, n int) {
	r := t.ix.r
	l := uint16(t.ix.l)
	fill := uint16(0)
	if t.problem == Problem1 {
		fill = l
	}
	var delta int64
	if grow := n*r - len(t.d); grow > 0 {
		t.d = slices.Grow(t.d, grow)
		for range grow {
			t.d = append(t.d, fill)
		}
		delta += int64(grow) * int64(fill)
		if t.sat != nil {
			t.sat = append(t.sat, make([]bool, n-len(t.sat))...)
		}
	}
	in := make([]bool, n)
	for _, u := range t.sel {
		in[u] = true
	}
	for _, s := range t.sel {
		for _, id := range rp.meet[rp.meetAt[s]:rp.meetAt[s+1]] {
			tr := rp.trails[id]
			w := int(tr.w)
			if in[w] {
				continue
			}
			first := l + 1 // the first hop at which the walk visits S, if it does
			for _, x := range rp.visits[tr.lo:tr.mid] {
				if in[x.v] && x.hop < first {
					first = x.hop
				}
			}
			v := min(first, l)
			if t.problem == Problem2 {
				v = 0
				if first <= l {
					v = 1
				}
			}
			j := w*r + int(tr.i)
			if old := t.d[j]; old != v {
				delta += int64(v) - int64(old)
				t.d[j] = v
				if t.sat != nil {
					t.sat[w] = false
				}
			}
		}
	}
	t.objDelta = delta
	t.muts++
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

// Copy returns a private copy of the index that shares no storage with the
// receiver: heap-resident and compact whatever backs the receiver (a
// store-backed chunk is decoded or copied off its file, a patched one is
// compacted), with the receiver's memoized empty-set sums. It only reads
// the receiver, so it is safe while readers hold it: the engine repairs a
// copy when an in-flight read pins the index a delta must repair.
//
// tables, built on the receiver, move to the copy: afterwards they read
// through it, so the caller must be their only holder, and they can be
// passed to the copy's Repair.
func (ix *Index) Copy(tables ...*DTable) (*Index, error) {
	for _, t := range tables {
		if t.ix != ix {
			return nil, fmt.Errorf("index: copy moves a D-table built on another index")
		}
	}
	src := ix.parts
	if src == nil {
		src = []*Index{ix}
	}
	parts, err := ix.compactParts()
	if err != nil {
		return nil, err
	}
	for i, c := range parts {
		if c == src[i] {
			// compacted hands back a compact chunk itself; its arrays may
			// be file pages or shared with readers, so copy them.
			parts[i] = &Index{g: c.g, l: c.l, r: c.r, rbase: c.rbase, seed: c.seed, gepoch: c.gepoch, fromWalks: c.fromWalks,
				offsets: slices.Clone(c.offsets), ids: slices.Clone(c.ids), hops: slices.Clone(c.hops)}
		}
	}
	cp := parts[0]
	if ix.parts != nil {
		cp = &Index{g: ix.g, l: ix.l, r: ix.r, rbase: ix.rbase, seed: ix.seed, gepoch: ix.gepoch, fromWalks: ix.fromWalks, parts: parts}
	}
	ix.emptyMu.Lock()
	for s, sums := range ix.emptySums {
		cp.emptySums[s] = slices.Clone(sums)
	}
	ix.emptyMu.Unlock()
	for _, t := range tables {
		t.ix = cp
		for c, tb := range t.tabs {
			tb.ix = parts[c]
		}
		t.muts++
	}
	return cp, nil
}
