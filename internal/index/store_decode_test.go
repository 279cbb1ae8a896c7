package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/store"
)

// Compressed chunks of a heap-loaded v8 file are decoded once, at load, into
// owned arrays. These tests pin what that load promises: a malformed block
// fails it (and the cache turns the failure into a counted rebuild), the
// decoded index costs what the heap build it was spilled from costs, it
// keeps no file buffer, and an unchanged decoded index is not re-spilled.

// breakFirstBlock rewrites a compressed single-chunk v8 file so its CRCs stay
// valid but node 0's block is malformed: the block-offset table moves node
// 0's end to 0, which keeps the table monotone (Open's structural checks
// pass) while node 0 decodes from zero bytes and node 1's block carries node
// 0's bytes in front of its own.
func breakFirstBlock(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const (
		headerSize = 8 + 12*8 + 4
		dirEntry   = 13 * 8
	)
	if chunks := binary.LittleEndian.Uint64(b[8+9*8:]); chunks != 1 {
		t.Fatalf("file has %d chunks, want 1", chunks)
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(b[headerSize+i*8:]) }
	if word(3) != 1 {
		t.Fatal("chunk 0 is not compressed")
	}
	off, size := int64(word(4)), int64(word(5))
	if binary.LittleEndian.Uint64(b[off+8:]) == 0 {
		t.Fatal("node 0's block is already empty")
	}
	binary.LittleEndian.PutUint64(b[off+8:], 0)
	table := crc32.MakeTable(crc32.Castagnoli)
	binary.LittleEndian.PutUint64(b[headerSize+6*8:], uint64(crc32.Checksum(b[off:off+size], table)))
	dirEnd := headerSize + dirEntry
	binary.LittleEndian.PutUint32(b[dirEnd:], crc32.Checksum(b[headerSize:dirEnd], table))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHeapLoadDecodesAtLoad: a heap-loaded compressed index owns decoded
// arrays — no file pinned, no decode-on-read view — keeps its origin, and
// reports exactly the MemoryBytes of the heap build it was spilled from.
func TestHeapLoadDecodesAtLoad(t *testing.T) {
	g := cacheTestGraph(t, 31)
	flat, err := Build(g, 5, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := BuildChunkedWorkers(g, 5, 16, 7, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, heap := range map[string]*Index{"flat": flat, "chunked": chunked} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ix.rwdomidx")
			if err := heap.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			got, err := LoadAny(path, g, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !got.StoreBacked() || got.StorePath() != path || !got.storeComplete() {
				t.Fatalf("decoded index lost its origin: backed=%v path=%q", got.StoreBacked(), got.StorePath())
			}
			if got.StoreMapped() || got.MappedBytes() != 0 {
				t.Fatal("heap load reports a mapping")
			}
			for _, pt := range append([]*Index{got}, got.parts...) {
				if pt.stf != nil || pt.sb != nil {
					t.Fatal("decoded index still holds the file or a decode-on-read view")
				}
			}
			if w, g := heap.MemoryBytes(), got.MemoryBytes(); w != g {
				t.Fatalf("MemoryBytes: heap build %d, decoded load %d", w, g)
			}
		})
	}
}

// TestHeapLoadRejectsMalformedBlock: a compressed file whose CRCs are valid
// but which holds a malformed block fails a heap load with store.ErrMalformed
// (a mapped load still opens and serves the block decode-on-read, counted).
func TestHeapLoadRejectsMalformedBlock(t *testing.T) {
	g := cacheTestGraph(t, 31)
	ix, err := Build(g, 4, 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.rwdomidx")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	breakFirstBlock(t, path)
	if _, err := LoadAny(path, g, StoreOptions{}); !errors.Is(err, store.ErrMalformed) {
		t.Fatalf("heap LoadAny over a malformed block: err = %v, want store.ErrMalformed", err)
	}
}

// TestCacheRebuildsOnMalformedBlock: through the cache, the failed heap load
// is one spill_load_errors plus a rebuild — never a served empty row.
func TestCacheRebuildsOnMalformedBlock(t *testing.T) {
	dir := t.TempDir()
	key := CacheKey{Graph: "g", L: 4, R: 15, Seed: 3}
	_, path := spillFileFor(t, dir, key)
	breakFirstBlock(t, path)

	g := cacheTestGraph(t, 31)
	c, err := NewCache(4, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	var rebuilds atomic.Int64
	h, err := c.Acquire(key, g, buildFor(g, key, &rebuilds))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if rebuilds.Load() != 1 {
		t.Fatalf("rebuilds = %d, want 1 (a malformed block must not be served)", rebuilds.Load())
	}
	if s := c.Stats(); s.SpillLoadErrors != 1 || s.SpillLoads != 0 {
		t.Fatalf("SpillLoadErrors = %d, SpillLoads = %d, want 1, 0", s.SpillLoadErrors, s.SpillLoads)
	}
	want, err := Build(g, key.L, key.R, key.Seed)
	if err != nil {
		t.Fatal(err)
	}
	assertReadParity(t, want, h.Index(), Problem2)
}

// TestCacheSkipsRespillOfDecodedIndex: evicting an unchanged index decoded
// at load counts SpillSkipped and leaves its spill file in place, exactly as
// for a mapped one.
func TestCacheSkipsRespillOfDecodedIndex(t *testing.T) {
	dir := t.TempDir()
	key := CacheKey{Graph: "g", L: 4, R: 15, Seed: 3}
	_, path := spillFileFor(t, dir, key)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	g := cacheTestGraph(t, 31)
	c, err := NewCache(4, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Acquire(key, g, func() (*Index, error) {
		return nil, os.ErrInvalid // must not run
	})
	if err != nil {
		t.Fatalf("warm acquire: %v", err)
	}
	h.Release()
	if err := c.SpillAll(); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.SpillLoads != 1 || s.SpillSkipped != 1 || s.SpillSaves != 0 {
		t.Fatalf("SpillLoads = %d, SpillSkipped = %d, SpillSaves = %d, want 1, 1, 0", s.SpillLoads, s.SpillSkipped, s.SpillSaves)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("spill file was rewritten")
	}
}

// TestSpillOfUndecodableIndexFails: a decode-on-read index whose file holds a
// malformed block cannot be serialized. WriteStore fails rather than persist
// the block as an empty row with fresh, valid CRCs, a failed SaveFile leaves
// the file already at its path untouched, and the cache counts the failed
// spill and writes no file.
func TestSpillOfUndecodableIndexFails(t *testing.T) {
	g := cacheTestGraph(t, 31)
	key := CacheKey{Graph: "g", L: 4, R: 15, Seed: 3}
	ix, err := Build(g, key.L, key.R, key.Seed)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "src.rwdomidx")
	if err := ix.SaveFile(src); err != nil {
		t.Fatal(err)
	}
	breakFirstBlock(t, src)
	mapped, err := LoadAny(src, g, StoreOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.StoreMapped() {
		t.Skip("mmap unavailable on this platform")
	}
	if _, err := mapped.WriteStore(io.Discard, true); !errors.Is(err, store.ErrMalformed) {
		t.Fatalf("WriteStore: err = %v, want store.ErrMalformed", err)
	}
	dst := filepath.Join(t.TempDir(), "dst.rwdomidx")
	if err := ix.SaveFile(dst); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.SaveFile(dst); !errors.Is(err, store.ErrMalformed) {
		t.Fatalf("SaveFile: err = %v, want store.ErrMalformed", err)
	}
	if after, err := os.ReadFile(dst); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("failed SaveFile changed the previous file (read err %v)", err)
	}
	if tmps, _ := filepath.Glob(dst + ".tmp*"); len(tmps) != 0 {
		t.Fatalf("failed SaveFile left temp files behind: %v", tmps)
	}

	// Adopted under its key, the index's origin is not the key's spill
	// path, so eviction must serialize it — and that save must fail.
	c := mmapCache(t, t.TempDir(), 4)
	if err := c.Adopt(key, mapped); err != nil {
		t.Fatal(err)
	}
	if err := c.SpillAll(); !errors.Is(err, store.ErrMalformed) {
		t.Fatalf("SpillAll: err = %v, want store.ErrMalformed", err)
	}
	if s := c.Stats(); s.SpillSaveErrors != 1 || s.SpillSaves != 0 {
		t.Fatalf("SpillSaveErrors = %d, SpillSaves = %d, want 1, 0", s.SpillSaveErrors, s.SpillSaves)
	}
	if _, err := os.Stat(c.spillPath(key)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a spill file was written for the undecodable index (stat err %v)", err)
	}
}
