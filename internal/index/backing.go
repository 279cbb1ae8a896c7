package index

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/store"
)

// Store-backed indexes. Every build path leaves an Index heap-resident:
// offsets/ids/hops are owned heap arrays. LoadAny binds a format-v8 store
// file (internal/store) instead, in one of three ways:
//
//   - raw chunks alias their CSR arrays straight out of the file's mapping
//     or heap buffer — the hot paths are untouched and read the file's
//     pages through the exact same slices;
//   - compressed chunks of a heap-loaded file are decoded once, at load,
//     into owned arrays (store.Spans.Materialize); the file buffer is then
//     dropped and the index serves through the heap kernels, exactly like a
//     fresh build;
//   - compressed chunks of a mapped file leave offsets/ids/hops nil and
//     serve node spans through a decode-on-read view (sb) with a hot-row
//     cache, so an index larger than RAM serves off the page cache.
//
// Every loaded index keeps its origin (path and identity) so the cache can
// skip re-spilling an unchanged index on eviction.
//
// All backings answer every query bit-identically: the decode-on-read gain
// kernels below run the same integer arithmetic over the same logical rows
// (entry order inside a row may differ after the writer's canonical sort,
// which no consumer observes — all accumulation is integer and
// order-independent). The storeparity test sweep pins this.
//
// Mutation is the one operation file pages cannot serve (a mapping is
// PROT_READ): Repair promotes the index to owned heap arrays first — see
// Promote, the store→heap copy-on-write path.

// StoreOptions configures how LoadAny binds a store file.
type StoreOptions struct {
	// Mmap serves the file through a read-only mapping (O(1)-page-in warm
	// restart, larger-than-RAM serving; compressed chunks decode on read).
	// Otherwise the file is read onto the heap: raw chunks alias the
	// buffer, compressed chunks are decoded once into owned arrays.
	Mmap bool
	// HotRows sizes the decoded-block cache of each compressed chunk of a
	// mapped file: 0 means store.DefaultHotRows, negative disables caching
	// (every read decodes — the pure decode-on-read mode).
	HotRows int
}

// storeOrigin names the v8 store file an index was loaded from. It outlives
// the file itself: a heap load decodes compressed chunks and drops the file
// buffer but keeps the origin, so an unmodified index still knows its bytes
// are durable at path.
type storeOrigin struct {
	path string
	id   store.Identity
}

// StoreBacked reports whether the index was loaded from a store file and is
// unchanged since: its entries are served from the file, or were decoded
// from it at load. Promote (and hence Repair) clears it.
func (ix *Index) StoreBacked() bool { return ix.origin != nil }

// StoreMapped reports whether the index serves from a read-only mapping of
// its store file (vs a heap buffer or decoded arrays).
func (ix *Index) StoreMapped() bool { return ix.stf != nil && ix.stf.Mapped() }

// StorePath returns the path of the store file the index was loaded from,
// "" when it was not or has been promoted since.
func (ix *Index) StorePath() string {
	if ix.origin == nil {
		return ""
	}
	return ix.origin.path
}

// MappedBytes returns the size of the read-only mapping serving this index,
// 0 when heap-resident or heap-loaded.
func (ix *Index) MappedBytes() int64 {
	if ix.stf == nil {
		return 0
	}
	return ix.stf.MappedBytes()
}

// StoreStats snapshots the backing file's decode-on-read counters (zeros
// unless compressed chunks serve off a mapping).
func (ix *Index) StoreStats() store.FileStats {
	if ix.stf == nil {
		return store.FileStats{}
	}
	return ix.stf.Stats()
}

// storeComplete reports whether the origin file still covers the index's
// whole replicate range — false once ExtendReplicates has appended chunks
// the file does not hold. The cache uses it to decide whether an eviction
// can skip re-spilling (the bytes are already on disk) or must write a
// fresh file.
func (ix *Index) storeComplete() bool {
	return ix.origin != nil && ix.origin.id.R == ix.r && ix.origin.id.Epoch == ix.gepoch
}

// LoadAny opens a v8 store file and binds it to g as a serving Index. It
// fails if the file was built on a different graph (detected by
// fingerprint), at a different graph epoch, or over a different node count,
// and on any corruption store.Open detects — including a file in the
// retired v7 stream format, whose magic it does not know. A single-chunk
// file loads as a flat index, a multi-chunk file as a chunked index with
// its written boundaries. On a heap load every compressed chunk is decoded
// here, so a malformed block fails the load instead of serving an empty
// row.
func LoadAny(path string, g *graph.Graph, opt StoreOptions) (*Index, error) {
	f, err := store.Open(path, store.OpenOptions{Mmap: opt.Mmap, HotRows: opt.HotRows})
	if err != nil {
		return nil, err
	}
	id := f.Identity()
	if got := g.Fingerprint(); got != id.Fingerprint {
		return nil, fmt.Errorf("index: graph fingerprint mismatch: index built on %016x, loading against %016x", id.Fingerprint, got)
	}
	if got := g.Epoch(); got != id.Epoch {
		return nil, fmt.Errorf("index: graph epoch mismatch: index built at epoch %d, loading against epoch %d", id.Epoch, got)
	}
	if id.N != g.N() {
		return nil, fmt.Errorf("index: node count mismatch: %d vs %d", id.N, g.N())
	}
	origin := &storeOrigin{path: path, id: id}
	parts := make([]*Index, 0, f.Chunks())
	// pinned is the file when some chunk still serves from it.
	var pinned *store.File
	for c := 0; c < f.Chunks(); c++ {
		cv := f.Chunk(c)
		pt := &Index{
			g: g, l: id.L, r: cv.Width(), rbase: cv.R0(),
			seed: id.Seed, gepoch: id.Epoch, origin: origin,
		}
		switch {
		case !cv.Compressed():
			pt.offsets, pt.ids, pt.hops = cv.Raw()
			pt.stf = f
		case f.Mapped():
			pt.sb = cv.Spans()
			pt.sbEntries = cv.Entries()
			pt.stf = f
		default:
			if pt.offsets, pt.ids, pt.hops, err = cv.Spans().Materialize(); err != nil {
				return nil, fmt.Errorf("index: %s chunk %d: %w", path, c, err)
			}
		}
		if pt.stf != nil {
			pinned = f
		}
		parts = append(parts, pt)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return &Index{
		g: g, l: id.L, r: id.R, rbase: id.R0,
		seed: id.Seed, gepoch: id.Epoch, parts: parts, stf: pinned, origin: origin,
	}, nil
}

// Promote detaches a store-backed index from its file — the copy-on-write
// boundary of the backing abstraction. Raw chunks copy their aliased
// arrays; decode-on-read chunks decode in full; chunks decoded at load
// already own their arrays. Afterwards the index drops its file reference
// (unmapping follows when the last reference goes) and its origin, and
// behaves exactly like a fresh heap build — Repair calls this first, since
// mutation needs writable arrays and a mapping is read-only. No-op on
// heap-resident indexes. Like every mutation, Promote must not run
// concurrently with readers.
func (ix *Index) Promote() error {
	for _, pt := range ix.parts {
		if err := pt.Promote(); err != nil {
			return err
		}
	}
	switch {
	case ix.sb != nil:
		offsets, ids, hops, err := ix.sb.Materialize()
		if err != nil {
			return fmt.Errorf("index: promote store-backed chunk: %w", err)
		}
		ix.offsets, ix.ids, ix.hops = offsets, ids, hops
		ix.sb = nil
		ix.sbEntries = 0
	case ix.stf != nil && ix.parts == nil:
		ix.offsets = append([]int64(nil), ix.offsets...)
		ix.ids = append([]int32(nil), ix.ids...)
		ix.hops = append([]uint16(nil), ix.hops...)
	}
	ix.stf = nil
	ix.origin = nil
	return nil
}

// storeRow returns row (i, v) of a decode-on-read chunk.
func (ix *Index) storeRow(i, v int) (ids []int32, hops []uint16) {
	offs, bids, bhops := ix.sb.NodeSpan(v)
	return bids[offs[i]:offs[i+1]], bhops[offs[i]:offs[i+1]]
}

// maxRowLenStore is MaxRowLen over a decode-on-read chunk.
func (ix *Index) maxRowLenStore(u int) int {
	offs, _, _ := ix.sb.NodeSpan(u)
	best := int64(0)
	for i := 0; i < ix.r; i++ {
		if n := offs[i+1] - offs[i]; n > best {
			best = n
		}
	}
	return int(best)
}

// emptySumIntStore is emptySumInt over a decode-on-read chunk: identical
// integer accumulation over the same logical entries, hence bit-identical.
func (ix *Index) emptySumIntStore(p Problem, u int) int64 {
	r := int64(ix.r)
	l := int64(ix.l)
	offs, _, hops := ix.sb.NodeSpan(u)
	var acc int64
	if p == Problem1 {
		acc = r * l
		for _, hop := range hops[offs[0]:offs[ix.r]] {
			if int64(hop) < l {
				acc += l - int64(hop)
			}
		}
		return acc
	}
	return r + offs[ix.r] - offs[0]
}

// gainIntStore is gainInt over a decode-on-read chunk. The loop body is
// line-for-line the heap kernel's with the span fetched once per candidate;
// integer accumulation keeps the result independent of entry order, so the
// writer's canonical row sort cannot change any answer.
func (t *DTable) gainIntStore(u int) int64 {
	r := t.ix.r
	base := u * r
	offs, bids, bhops := t.ix.sb.NodeSpan(u)
	var acc int64
	if t.problem == Problem1 {
		for i := 0; i < r; i++ {
			acc += int64(t.d[base+i])
			ids := bids[offs[i]:offs[i+1]]
			hops := bhops[offs[i]:offs[i+1]]
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
			for _, v := range bids[offs[i]:offs[i+1]] {
				if t.d[int(v)*r+i] == 0 {
					acc++
				}
			}
		}
	}
	return acc
}

// updateStore is Update over a decode-on-read chunk.
func (t *DTable) updateStore(u int) {
	r := t.ix.r
	base := u * r
	offs, bids, bhops := t.ix.sb.NodeSpan(u)
	if t.problem == Problem1 {
		for i := 0; i < r; i++ {
			t.d[base+i] = 0
			ids := bids[offs[i]:offs[i+1]]
			hops := bhops[offs[i]:offs[i+1]]
			for e, v := range ids {
				if j := int(v)*r + i; hops[e] < t.d[j] {
					t.d[j] = hops[e]
				}
			}
		}
	} else {
		for i := 0; i < r; i++ {
			t.d[base+i] = 1
			for _, v := range bids[offs[i]:offs[i+1]] {
				t.d[int(v)*r+i] = 1
			}
		}
	}
}

// appendReplicateGainSumsStore is AppendReplicateGainSums over a decode-on-
// read chunk.
func (t *DTable) appendReplicateGainSumsStore(u int, out []int64) []int64 {
	r := t.ix.r
	base := u * r
	offs, bids, bhops := t.ix.sb.NodeSpan(u)
	if t.problem == Problem1 {
		for i := 0; i < r; i++ {
			acc := int64(t.d[base+i])
			ids := bids[offs[i]:offs[i+1]]
			hops := bhops[offs[i]:offs[i+1]]
			for e, v := range ids {
				if dv := t.d[int(v)*r+i]; hops[e] < dv {
					acc += int64(dv - hops[e])
				}
			}
			out = append(out, acc)
		}
		return out
	}
	for i := 0; i < r; i++ {
		var acc int64
		if t.d[base+i] == 0 {
			acc++
		}
		for _, v := range bids[offs[i]:offs[i+1]] {
			if t.d[int(v)*r+i] == 0 {
				acc++
			}
		}
		out = append(out, acc)
	}
	return out
}
