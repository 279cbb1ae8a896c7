package index

import (
	"encoding/binary"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/store"
)

// Cache-level corruption and compatibility tests for v8 spill files served
// through the mmap path. The invariant under every corruption: the load
// fails at Open (CRCs + structural validation), SpillLoadErrors ticks, the
// build runs, and the served answers are those of a fresh build — never a
// panic, never a silently wrong index.

// mmapCache opens a cache over dir that writes compressed v8 and serves
// loads store-backed via mmap.
func mmapCache(t *testing.T, dir string, entries int) *Cache {
	t.Helper()
	c, err := NewCacheWith(entries, 0, dir, SpillConfig{Format: FormatV8, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.spillWG.Wait)
	return c
}

func TestCacheRebuildsOnCorruptV8Spill(t *testing.T) {
	corruptions := map[string]func(t *testing.T, path string){
		// One flipped bit in the first data section — for the default
		// compressed format that is a chunk's block-offset/span region; the
		// section CRC must reject it at Open.
		"compressed-span-bitflip": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) <= 4096 {
				t.Fatalf("spill file only %d bytes; first section expected at 4096", len(b))
			}
			b[4096] ^= 0x01
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// A file cut mid-section: the mmap is shorter than the directory
		// promises, which must fail the structural bounds check — not fault
		// when a query first touches the missing pages.
		"truncated-mmap": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// The chunk directory itself damaged: its CRC must reject the file
		// before any section offset in it is trusted.
		"directory-bitflip": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[120] ^= 0x80 // inside the first directory entry (header is 108 bytes)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			key := CacheKey{Graph: "g", L: 4, R: 15, Seed: 3}
			g := cacheTestGraph(t, 31)
			c, err := NewCacheWith(4, 0, dir, SpillConfig{Format: FormatV8, Mmap: true})
			if err != nil {
				t.Fatal(err)
			}
			var builds atomic.Int64
			h, err := c.Acquire(key, g, buildFor(g, key, &builds))
			if err != nil {
				t.Fatal(err)
			}
			wantEntries := h.Index().Entries()
			h.Release()
			if err := c.SpillAll(); err != nil {
				t.Fatal(err)
			}
			corrupt(t, c.spillPath(key))

			// A "restarted daemon" over the corrupt v8 spill.
			c2 := mmapCache(t, dir, 4)
			var rebuilds atomic.Int64
			h2, err := c2.Acquire(key, g, buildFor(g, key, &rebuilds))
			if err != nil {
				t.Fatalf("acquire over corrupt v8 spill: %v", err)
			}
			defer h2.Release()
			if rebuilds.Load() != 1 {
				t.Fatalf("rebuilds = %d, want 1 (corrupt spill must not be served)", rebuilds.Load())
			}
			if got := h2.Index().Entries(); got != wantEntries {
				t.Fatalf("rebuilt index has %d entries, want %d", got, wantEntries)
			}
			s := c2.Stats()
			if s.SpillLoadErrors != 1 {
				t.Fatalf("SpillLoadErrors = %d, want 1", s.SpillLoadErrors)
			}
			if s.SpillLoads != 0 || s.MmapLoads != 0 {
				t.Fatalf("SpillLoads = %d, MmapLoads = %d, want 0, 0", s.SpillLoads, s.MmapLoads)
			}
		})
	}
}

// TestCacheIgnoresStaleV8Spill covers a mismatched file under a key's path
// (hash collision or stale directory contents): the store opens fine but its
// identity does not match the key, so the cache must quietly rebuild — a
// stale file is not corruption, and must never be served.
func TestCacheIgnoresStaleV8Spill(t *testing.T) {
	dir := t.TempDir()
	g := cacheTestGraph(t, 31)
	key := CacheKey{Graph: "g", L: 4, R: 15, Seed: 3}
	other, err := Build(g, 4, 15, 99) // same shape, different seed
	if err != nil {
		t.Fatal(err)
	}
	c := mmapCache(t, dir, 4)
	if err := other.SaveFile(c.spillPath(key)); err != nil {
		t.Fatal(err)
	}
	var rebuilds atomic.Int64
	h, err := c.Acquire(key, g, buildFor(g, key, &rebuilds))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if rebuilds.Load() != 1 {
		t.Fatalf("rebuilds = %d, want 1 (stale spill must not be served)", rebuilds.Load())
	}
	if got := h.Index().Seed(); got != key.Seed {
		t.Fatalf("served index has seed %d, want %d", got, key.Seed)
	}
	s := c.Stats()
	if s.SpillLoads != 0 || s.SpillLoadErrors != 0 {
		t.Fatalf("SpillLoads = %d, SpillLoadErrors = %d, want 0, 0 (stale is neither a load nor an error)", s.SpillLoads, s.SpillLoadErrors)
	}
}

// TestCacheRebuildsOnLegacyV7Spill: the retired v7 stream format is one
// more unreadable spill file. A file with the v7 magic at a key's path costs
// exactly one counted load error and one build; SpillAll then rewrites it
// as v8, and a fresh cache over the same directory warm-loads it without
// building.
func TestCacheRebuildsOnLegacyV7Spill(t *testing.T) {
	dir := t.TempDir()
	g := cacheTestGraph(t, 31)
	key := CacheKey{Graph: "g", L: 4, R: 15, Seed: 3}
	c := mmapCache(t, dir, 4)
	legacy := make([]byte, 4096)
	copy(legacy, "RWDOMIDX")
	binary.LittleEndian.PutUint64(legacy[8:], 7) // the v7 header's version word
	if err := os.WriteFile(c.spillPath(key), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	h, err := c.Acquire(key, g, buildFor(g, key, &builds))
	if err != nil {
		t.Fatalf("acquire over v7 spill: %v", err)
	}
	h.Release()
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1 (a v7 file must not load)", builds.Load())
	}
	if s := c.Stats(); s.SpillLoadErrors != 1 || s.SpillLoads != 0 {
		t.Fatalf("SpillLoadErrors = %d, SpillLoads = %d, want 1, 0", s.SpillLoadErrors, s.SpillLoads)
	}
	if err := c.SpillAll(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(c.spillPath(key))
	if err != nil {
		t.Fatal(err)
	}
	if magic := string(b[:len(store.Magic)]); magic != store.Magic {
		t.Fatalf("SpillAll left magic %q, want %q", magic, store.Magic)
	}

	c2 := mmapCache(t, dir, 4)
	h2, err := c2.Acquire(key, g, buildFor(g, key, &builds))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1 (the rewritten v8 file must warm-load)", builds.Load())
	}
	if s := c2.Stats(); s.SpillLoads != 1 || s.SpillLoadErrors != 0 {
		t.Fatalf("fresh cache: SpillLoads = %d, SpillLoadErrors = %d, want 1, 0", s.SpillLoads, s.SpillLoadErrors)
	}
}

// TestCacheMmapRoundTrip is the page-in warm-restart path end to end: spill
// a built index as compressed v8, reopen the directory with mmap serving,
// and check the reload is store-backed, mapped, counted as a page-in
// restart, skipped on re-spill (its bytes are already durable), and that
// StorageStats reports the mapping.
func TestCacheMmapRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := cacheTestGraph(t, 31)
	key := CacheKey{Graph: "g", L: 4, R: 15, Seed: 3}
	c := mmapCache(t, dir, 4)
	var builds atomic.Int64
	h, err := c.Acquire(key, g, buildFor(g, key, &builds))
	if err != nil {
		t.Fatal(err)
	}
	wantEntries := h.Index().Entries()
	h.Release()
	if err := c.SpillAll(); err != nil {
		t.Fatal(err)
	}

	c2 := mmapCache(t, dir, 4)
	h2, err := c2.Acquire(key, g, func() (*Index, error) {
		return nil, os.ErrInvalid // must not run
	})
	if err != nil {
		t.Fatalf("warm acquire: %v", err)
	}
	defer h2.Release()
	ix := h2.Index()
	if got := ix.Entries(); got != wantEntries {
		t.Fatalf("warm-loaded index has %d entries, want %d", got, wantEntries)
	}
	if !ix.StoreBacked() {
		t.Fatal("warm load not store-backed")
	}
	if !ix.StoreMapped() {
		t.Skip("mmap unavailable on this platform")
	}
	s := c2.Stats()
	if s.SpillLoads != 1 || s.MmapLoads != 1 {
		t.Fatalf("SpillLoads = %d, MmapLoads = %d, want 1, 1", s.SpillLoads, s.MmapLoads)
	}
	st := c2.StorageStats()
	if st.SpillFormat != FormatV8 || !st.Mmap {
		t.Fatalf("StorageStats format/mmap = %q/%v, want %q/true", st.SpillFormat, st.Mmap, FormatV8)
	}
	if st.MappedIndexes != 1 || st.MappedBytes <= 0 {
		t.Fatalf("MappedIndexes = %d, MappedBytes = %d, want 1, > 0", st.MappedIndexes, st.MappedBytes)
	}
	if st.PageInRestarts != 1 {
		t.Fatalf("PageInRestarts = %d, want 1", st.PageInRestarts)
	}
	// Mapped pages are page cache, not heap: the index must cost ~nothing
	// against the cache's bytes budget.
	if ix.MemoryBytes() != 0 {
		t.Fatalf("mapped index MemoryBytes = %d, want 0", ix.MemoryBytes())
	}
	// Re-spilling the unchanged store-backed index is skipped: the file on
	// disk already holds exactly these bytes.
	if err := c2.SpillAll(); err != nil {
		t.Fatal(err)
	}
	if s := c2.Stats(); s.SpillSkipped != 1 || s.SpillSaves != 0 {
		t.Fatalf("SpillSkipped = %d, SpillSaves = %d, want 1, 0", s.SpillSkipped, s.SpillSaves)
	}
}
