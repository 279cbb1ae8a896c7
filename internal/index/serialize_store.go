package index

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/store"
)

// Serialization of materialized walk indexes. Building the index is the
// dominant cost of the approximate greedy algorithm (Fig. 8), and the same
// index serves every budget and both problems, so persisting it across runs
// is the natural production optimization. The one on-disk format is the v8
// store container (internal/store): page-aligned sections that load by mmap
// (or one aligned read), optionally with delta/varint-compressed spans,
// which a heap load decodes once and a mapped load decodes on read.
// WriteStore is the encoder, SaveFile and spill saves write files through
// it, and LoadAny (backing.go) is the loader.

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
)

// storeChunks collects the index's chunks in compact form for the store
// writer, materializing patched or decode-backed chunks without mutating
// the receiver.
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
// delta/varint spans vs raw sections). It never mutates the receiver and
// never writes the patched post-Repair layout; a chunk that cannot be
// decoded fails the write before any byte is written. A flat index is
// written as one chunk, a chunked index as one chunk per replicate chunk.
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

// SaveFile writes the index to path as a compressed v8 store file, for
// LoadAny to read back.
func (ix *Index) SaveFile(path string) error {
	return ix.saveAtomic(path, true)
}

// saveAtomic writes the index to path via a temp file + fsync + rename, so
// concurrent loads never observe a partially written index, two writers of
// the same path cannot interleave, and a failed write or a crash between
// the write and the rename can never publish a torn file under the final
// name: the outcome is "old file or new file", never "garbage file".
func (ix *Index) saveAtomic(path string, compress bool) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	tmp := f.Name()
	if _, err := ix.WriteStore(f, compress); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("index: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("index: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("index: %w", err)
	}
	return nil
}
