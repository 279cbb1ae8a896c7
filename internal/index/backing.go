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
//     or heap buffer, so the row kernels read the file's pages through the
//     same slices a fresh build would own;
//   - compressed chunks of a heap-loaded file are decoded once, at load,
//     into owned arrays (store.Spans.Materialize); the file buffer is then
//     dropped and the index is indistinguishable from a fresh build;
//   - compressed chunks of a mapped file leave offsets/ids/hops nil and
//     serve node spans through a decode-on-read view (sb) with a hot-row
//     cache, so an index larger than RAM serves off the page cache.
//
// Every loaded index keeps its origin (path and identity) so the cache can
// skip re-spilling an unchanged index on eviction.
//
// All backings answer every query bit-identically because they run the
// same kernels: each row kernel reads a node's rows through nodeRows
// (index.go), which only picks where the row bounds come from — the
// offsets, or the block sb.NodeSpan decodes. Entry order inside a row may
// differ after the writer's canonical sort, which no consumer observes: all
// accumulation is integer and order-independent. The storeparity test
// sweep pins this.
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
