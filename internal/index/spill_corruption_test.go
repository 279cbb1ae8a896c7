package index

import (
	"os"
	"sync/atomic"
	"testing"
)

// spillFileFor builds key's index into a spilled file under dir and returns
// the cache (for its path naming) and the spill path.
func spillFileFor(t *testing.T, dir string, key CacheKey) (*Cache, string) {
	t.Helper()
	g := cacheTestGraph(t, 31)
	c, err := NewCache(4, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	h, err := c.Acquire(key, g, buildFor(g, key, &builds))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if err := c.SpillAll(); err != nil {
		t.Fatal(err)
	}
	path := c.spillPath(key)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("spill file not written: %v", err)
	}
	return c, path
}

// TestCacheRebuildsOnCorruptSpill is the spill-corruption regression test: a
// spill file that was truncated or bit-flipped on disk must fail its CRC (or
// short-read) at load, tick SpillLoadErrors, and fall back to a rebuild —
// never a crash, never a silently wrong index.
func TestCacheRebuildsOnCorruptSpill(t *testing.T) {
	corruptions := map[string]func(t *testing.T, path string){
		"truncated": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)-16], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"bitflip": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-100] ^= 0x40 // one flipped bit in the payload
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			key := CacheKey{Graph: "g", L: 4, R: 15, Seed: 3}
			_, path := spillFileFor(t, dir, key)
			corrupt(t, path)

			// A "restarted daemon" over the corrupt spill: the load must fail,
			// be counted, and fall back to the build.
			g := cacheTestGraph(t, 31)
			c2, err := NewCache(4, 0, dir)
			if err != nil {
				t.Fatal(err)
			}
			var rebuilds atomic.Int64
			h, err := c2.Acquire(key, g, buildFor(g, key, &rebuilds))
			if err != nil {
				t.Fatalf("acquire over corrupt spill: %v", err)
			}
			defer h.Release()
			if rebuilds.Load() != 1 {
				t.Fatalf("rebuilds = %d, want 1 (corrupt spill must not be served)", rebuilds.Load())
			}
			s := c2.Stats()
			if s.SpillLoadErrors != 1 {
				t.Fatalf("SpillLoadErrors = %d, want 1", s.SpillLoadErrors)
			}
			if s.SpillLoads != 0 {
				t.Fatalf("SpillLoads = %d, want 0 (the corrupt file must not count as a load)", s.SpillLoads)
			}
		})
	}
}
