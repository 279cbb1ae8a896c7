package index

import (
	"fmt"
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
// Repair replays each affected walk on the old graph to locate the entries
// it contributed, regenerates it on the new graph, and applies the edits
// row-by-row, leaving the index patched (see the layout comment in index.go)
// until enough storage is dead to warrant compaction. The cost is
// proportional to the walks the delta disturbs — O(|affected|·L) plus the
// touched-row edits — not to the nRL cost of a full rebuild.

// ErrUnrepairable marks indexes Repair cannot service: BuildFromWalks
// assembles entries from caller-provided walks, which cannot be regenerated
// from the seed.
var ErrUnrepairable = fmt.Errorf("index: built from explicit walks, cannot repair")

// compactThreshold triggers compaction when more than this fraction of the
// physical entry storage is dead.
const compactThreshold = 0.5

// rowEdit accumulates one row's pending changes: sources whose old entry
// must go, and the regenerated entries to insert.
type rowEdit struct {
	remove map[int32]struct{}
	ids    []int32
	hops   []uint16
}

// entrySorter sorts a row's (id, hop) pairs by source id. Build emits each
// row's entries in ascending source order for every worker count, so keeping
// repaired rows sorted is what makes a compacted repair bit-identical to a
// full rebuild.
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
	L := ix.l
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

	// Affected walks, keyed w·R+i. Touched nodes beyond oldN are new; they
	// have no old rows and their walks are generated in the new-node loop.
	affected := make(map[int64]struct{})
	for _, t := range touched {
		if t >= oldN {
			continue
		}
		for i := 0; i < R; i++ {
			k := int64(t)*int64(R) + int64(i)
			affected[k] = struct{}{}
			lo, hi := ix.offsets[k], ix.ends[k]
			for _, w := range ix.ids[lo:hi] {
				affected[int64(w)*int64(R)+int64(i)] = struct{}{}
			}
		}
	}
	walkIDs := make([]int64, 0, len(affected))
	for k := range affected {
		walkIDs = append(walkIDs, k)
	}
	sort.Slice(walkIDs, func(i, j int) bool { return walkIDs[i] < walkIDs[j] })

	visited := make([]uint32, newN)
	var generation uint32
	var rnd rng.Source
	// replay regenerates walk (w, i) on g and reports its first visits —
	// exactly the build's walk loop, so replaying on the old graph yields the
	// entries the build materialized.
	replay := func(g *graph.Graph, w, i int, emit func(v int32, hop uint16)) {
		rnd.Seed(rng.Mix(ix.seed, uint64(w), uint64(ix.rbase+i)))
		generation++
		visited[w] = generation
		u := w
		for j := 1; j <= L; j++ {
			v := g.PickNeighbor(u, rnd.Float64())
			if v < 0 {
				break
			}
			if visited[v] != generation {
				visited[v] = generation
				emit(int32(v), uint16(j))
			}
			u = v
		}
	}

	edits := make(map[int64]*rowEdit)
	edit := func(k int64) *rowEdit {
		e := edits[k]
		if e == nil {
			e = &rowEdit{}
			edits[k] = e
		}
		return e
	}
	for _, id := range walkIDs {
		w := int(id / int64(R))
		i := int(id % int64(R))
		replay(ix.g, w, i, func(v int32, _ uint16) {
			e := edit(int64(v)*int64(R) + int64(i))
			if e.remove == nil {
				e.remove = make(map[int32]struct{})
			}
			e.remove[int32(w)] = struct{}{}
		})
		replay(ng, w, i, func(v int32, hop uint16) {
			e := edit(int64(v)*int64(R) + int64(i))
			e.ids = append(e.ids, int32(w))
			e.hops = append(e.hops, hop)
		})
	}
	for w := oldN; w < newN; w++ {
		for i := 0; i < R; i++ {
			replay(ng, w, i, func(v int32, hop uint16) {
				e := edit(int64(v)*int64(R) + int64(i))
				e.ids = append(e.ids, int32(w))
				e.hops = append(e.hops, hop)
			})
		}
	}

	// Apply the edits row by row: rebuild each edited row sorted by source,
	// writing in place when it fits its old span and relocating it to the
	// tail when it grew. Row order is for determinism of the physical layout
	// only; rows are independent.
	rowKeys := make([]int64, 0, len(edits))
	for k := range edits {
		rowKeys = append(rowKeys, k)
	}
	sort.Slice(rowKeys, func(i, j int) bool { return rowKeys[i] < rowKeys[j] })
	for _, k := range rowKeys {
		e := edits[k]
		lo, hi := ix.offsets[k], ix.ends[k]
		oldLen := hi - lo
		merged := entrySorter{
			ids:  make([]int32, 0, int(oldLen)+len(e.ids)),
			hops: make([]uint16, 0, int(oldLen)+len(e.ids)),
		}
		for p := lo; p < hi; p++ {
			if _, rm := e.remove[ix.ids[p]]; rm {
				continue
			}
			merged.ids = append(merged.ids, ix.ids[p])
			merged.hops = append(merged.hops, ix.hops[p])
		}
		merged.ids = append(merged.ids, e.ids...)
		merged.hops = append(merged.hops, e.hops...)
		sort.Sort(&merged)
		if n := int64(len(merged.ids)); n <= oldLen {
			copy(ix.ids[lo:], merged.ids)
			copy(ix.hops[lo:], merged.hops)
			ix.ends[k] = lo + n
			ix.dead += oldLen - n
		} else {
			start := int64(len(ix.ids))
			ix.ids = append(ix.ids, merged.ids...)
			ix.hops = append(ix.hops, merged.hops...)
			ix.offsets[k] = start
			ix.ends[k] = start + n
			ix.dead += oldLen
		}
	}

	ix.g = ng
	ix.gepoch = ng.Epoch()
	ix.resetEmptyMemos()
	if float64(ix.dead) > compactThreshold*float64(len(ix.ids)) {
		ix.Compact()
	}
	return nil
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
