package index

import (
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
	"repro/internal/store"
)

// Bridges between Index and the format-v8 store container (internal/store).
// v7 (serialize.go) remains the legacy read-compatible format; v8 is what
// spill saves write by default: page-aligned sections that load by mmap (or
// one aligned read) instead of a stream deserialize, optionally with
// delta/varint-compressed spans, which a heap load decodes once and a mapped
// load decodes on read.

// Spill format names, as configured through engine.Config.SpillFormat and
// the rwdomd -spill-format flag.
const (
	// FormatV8 is the store container with delta/varint-compressed spans:
	// smallest files. A heap load decodes them once into owned arrays; a
	// mapped load decodes on read through a hot-row cache.
	FormatV8 = "v8"
	// FormatV8Raw is the store container with raw page-aligned sections:
	// zero decode work (reads alias the pages directly) at raw size.
	FormatV8Raw = "v8raw"
	// FormatV7 is the legacy full-deserialize format.
	FormatV7 = "v7"
)

// storeChunks collects the index's chunks in compact form for the store
// writer, materializing patched or decode-backed chunks without mutating
// the receiver (same contract as WriteTo).
func (ix *Index) storeChunks() ([]store.Chunk, error) {
	parts, err := ix.compactParts()
	if err != nil {
		return nil, err
	}
	chunks := make([]store.Chunk, len(parts))
	for i, pt := range parts {
		chunks[i] = store.Chunk{
			R0: pt.rbase, Width: pt.r,
			Offsets: pt.offsets, Ids: pt.ids, Hops: pt.hops,
		}
	}
	return chunks, nil
}

// WriteStore serializes the index in format v8 (compress selects
// delta/varint spans vs raw sections). Like WriteTo it never mutates the
// receiver and never writes the patched post-Repair layout; a chunk that
// cannot be decoded fails the write before any byte is written.
func (ix *Index) WriteStore(w io.Writer, compress bool) (int64, error) {
	chunks, err := ix.storeChunks()
	if err != nil {
		return 0, err
	}
	id := store.Identity{
		Fingerprint: ix.g.Fingerprint(),
		Epoch:       ix.gepoch,
		N:           ix.g.N(),
		L:           ix.l,
		R:           ix.r,
		R0:          ix.rbase,
		Seed:        ix.seed,
	}
	return store.Write(w, id, chunks, store.WriteOptions{Compress: compress})
}

// SaveStore writes the index to path in format v8.
func (ix *Index) SaveStore(path string, compress bool) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	if _, err := ix.WriteStore(f, compress); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	return nil
}

// LoadAny loads an index from path, sniffing the format from the leading
// magic: v8 store files load through internal/store (mmap'd when opt.Mmap),
// v7 files through the legacy full deserialize — read-compatibility for
// spill directories written by older daemons. Unknown magics are rejected.
func LoadAny(path string, g *graph.Graph, opt StoreOptions) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	var magic [8]byte
	_, rerr := io.ReadFull(f, magic[:])
	f.Close()
	if rerr != nil {
		return nil, fmt.Errorf("index: sniff %s: %w", path, rerr)
	}
	switch string(magic[:]) {
	case store.Magic:
		return LoadStore(path, g, opt)
	case indexMagic:
		return LoadFile(path, g)
	default:
		return nil, fmt.Errorf("index: %s: unknown magic %q", path, magic[:])
	}
}
