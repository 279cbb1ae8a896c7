package index

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/graph"
)

// Cache is a refcounted LRU of built indexes, the shared-state core of the
// query-serving daemon: many concurrent requests against the same
// (graph, L, R, seed) tuple share one materialized index, concurrent misses
// for the same key coalesce into a single build (singleflight), and evicted
// indexes are optionally spilled to disk in the current serialization format
// so a later miss — or a daemon restart — reloads them instead of re-walking
// the graph.
//
// The refs/ready/LRU machinery itself lives in the generic internal/cache
// core (shared with the serving layer's memo cache); this type adds the
// index-specific policy: spill-to-disk on eviction, spill-before-build on
// miss (with L/R/seed verification so a stale or colliding spill file can
// never impersonate a different build), and an eviction hook the serving
// layer uses to drop memoized D-tables when the index they were built from
// leaves the cache.
//
// Entries are only evicted when no handle references them, so an index can
// never disappear under an in-flight query; a handle therefore pins at most
// one entry and must be Released when the query finishes.
type Cache struct {
	core     *cache.Cache[CacheKey, *Index]
	spillDir string
	spillCfg SpillConfig
	// spillWG tracks in-flight background spills so SpillAll (shutdown)
	// does not race past them.
	spillWG sync.WaitGroup

	mu              sync.Mutex
	spillLoads      int64
	spillSaves      int64
	spillLoadErrors int64
	spillSaveErrors int64
	spillSkipped    int64
	mmapLoads       int64
	evictHook       func([]CacheKey)
}

// SpillConfig selects how the cache persists and reloads spilled indexes.
// The zero value is the production default: write compressed v8 store
// files, load them onto the heap and decode every compressed chunk once,
// at load, so the loaded index serves at heap speed. The decoded index
// takes the heap of a fresh build — 43.0 MB for a spill file of 15.7 MB in
// the repository benchmark's serve-hot workload — and counts in full
// against the bytes budget.
type SpillConfig struct {
	// Format is what spill saves write: FormatV8 (compressed store
	// container, the default) or FormatV8Raw (store container with raw
	// page-aligned sections). Loads read either, so changing the write
	// format never invalidates an existing spill directory; a file in any
	// other format (the retired v7 stream included) fails to load and
	// counts as one spill load error and a rebuild.
	Format string
	// Mmap serves v8 spill loads store-backed through a read-only mapping:
	// a warm restart pages rows in on demand instead of deserializing, and
	// the loaded index costs ~nothing against the cache's bytes budget
	// (its pages are reclaimable page cache, not heap). Compressed chunks
	// of a mapped file stay compressed and decode on read through a
	// hot-row cache, the one mode that still does.
	Mmap bool
	// HotRows sizes the decoded-block cache of each compressed chunk of a
	// mapped spill (see store.OpenOptions): 0 means store.DefaultHotRows,
	// negative disables caching.
	HotRows int
}

// format returns the effective write format.
func (sc SpillConfig) format() string {
	if sc.Format == "" {
		return FormatV8
	}
	return sc.Format
}

func (sc SpillConfig) validate() error {
	switch sc.format() {
	case FormatV8, FormatV8Raw:
		return nil
	default:
		return fmt.Errorf("index: unknown spill format %q (want %s or %s)", sc.Format, FormatV8, FormatV8Raw)
	}
}

// CacheKey identifies one materialized index: the logical graph name plus
// the build parameters. Two graphs with the same name are assumed identical
// (the daemon loads each named graph once); the spill loader still verifies
// the graph fingerprint, so a stale spill file from a renamed graph is
// rejected rather than misused.
type CacheKey struct {
	Graph string
	L     int
	R     int
	Seed  uint64
	// R0 is the first absolute replicate number of a partial (replicate-range
	// sharded) index: the key identifies the range [R0, R0+R) of the full
	// build. Zero for full indexes, which keeps every pre-sharding key — and
	// its String form, spill path and /stats rendering — unchanged.
	R0 int
	// Epoch is the mutation epoch of the graph content the index reflects
	// (graph.Epoch()). Keys at different epochs are distinct, so an index
	// built before a graph mutation can never serve a post-mutation request
	// through the cache. Zero for never-mutated graphs, which keeps every
	// pre-mutation key, String form and spill path unchanged.
	Epoch uint64
}

func (k CacheKey) String() string {
	s := fmt.Sprintf("%s/L=%d/R=%d/seed=%d", k.Graph, k.L, k.R, k.Seed)
	if k.R0 != 0 {
		s += fmt.Sprintf("/r0=%d", k.R0)
	}
	if k.Epoch != 0 {
		s += fmt.Sprintf("/epoch=%d", k.Epoch)
	}
	return s
}

// CacheStats counts cache traffic. Snapshot via Cache.Stats.
type CacheStats struct {
	// Hits counts Acquires served by a resident index; Coalesced counts the
	// subset that attached to a build already in flight.
	Hits      int64
	Coalesced int64
	// Misses counts Acquires that started a build (or a spill load).
	Misses int64
	// SpillLoads counts misses served from the spill directory instead of a
	// fresh build; SpillSaves counts evictions persisted to it.
	SpillLoads int64
	SpillSaves int64
	// SpillLoadErrors counts spill files that existed but failed to load
	// (corrupt, truncated, wrong version) — each one fell back to a rebuild.
	// A missing file is a plain cold miss, not an error.
	SpillLoadErrors int64
	// SpillSaveErrors counts spill saves that failed (unwritable directory,
	// or a store-backed index whose file no longer decodes) — each one left
	// the key to a rebuild on its next miss.
	SpillSaveErrors int64
	// SpillSkipped counts evictions that skipped re-serializing because the
	// victim was store-backed by its own up-to-date spill file (the bytes
	// were already durable on disk).
	SpillSkipped int64
	// MmapLoads counts the subset of SpillLoads served store-backed through
	// an mmap — page-in restarts that paid no deserialize.
	MmapLoads int64
	// Evictions counts entries dropped from the cache (spilled or not).
	Evictions int64
	// BuildErrors counts failed Acquires: the failed build itself plus every
	// waiter that coalesced onto it (failed Acquires hold no entry and are
	// not hits — the hit rate stays truthful when builds are failing).
	BuildErrors int64
	// Resident is the number of entries at snapshot time; ResidentBytes the
	// sum of their approximate heap footprints.
	Resident      int
	ResidentBytes int64
}

// Handle pins one cached index. Callers must Release exactly once; Release
// after the first is a no-op.
type Handle struct {
	h *cache.Handle[CacheKey, *Index]
}

// Index returns the pinned index.
func (h *Handle) Index() *Index { return h.h.Value() }

// Key returns the cache key the handle was acquired under.
func (h *Handle) Key() CacheKey { return h.h.Key() }

// Release unpins the index, making its entry eligible for eviction.
func (h *Handle) Release() { h.h.Release() }

// NewCache returns a cache holding at most maxEntries indexes (<= 0 means
// unbounded) totaling at most maxBytes of index heap (<= 0 means unbounded;
// the budget is soft while every candidate victim is pinned — the cache
// never frees an index in use). If spillDir is non-empty it is created if
// needed; evicted indexes are serialized there and misses check it before
// building.
func NewCache(maxEntries int, maxBytes int64, spillDir string) (*Cache, error) {
	return NewCacheWith(maxEntries, maxBytes, spillDir, SpillConfig{})
}

// NewCacheWith is NewCache with an explicit spill configuration (format,
// mmap serving, hot-row cache size).
func NewCacheWith(maxEntries int, maxBytes int64, spillDir string, cfg SpillConfig) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if spillDir != "" {
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return nil, fmt.Errorf("index: cache spill dir: %w", err)
		}
	}
	c := &Cache{spillDir: spillDir, spillCfg: cfg}
	c.core = cache.New(cache.Config[CacheKey, *Index]{
		MaxEntries: maxEntries,
		MaxBytes:   maxBytes,
		OnEvict:    c.onEvict,
	})
	return c, nil
}

// OnEviction registers fn to be called with the keys of every batch of
// evicted indexes (capacity, bytes budget, or idle eviction — not SpillAll,
// which evicts nothing). The serving layer uses it to drop memoized
// D-tables built from an evicted index, so the eviction actually releases
// the index's heap instead of leaving it pinned by its dependents. fn runs
// on the goroutine that triggered the eviction, without any cache lock
// held (so it may call back into this or another cache), and should stay
// cheap — long work belongs on a background goroutine.
func (c *Cache) OnEviction(fn func([]CacheKey)) {
	c.mu.Lock()
	c.evictHook = fn
	c.mu.Unlock()
}

// onEvict is the core's eviction hook: notify the cross-cache linkage
// synchronously (dropping dependent memo tables is cheap map work), then
// spill the victims in the background.
func (c *Cache) onEvict(victims []cache.Entry[CacheKey, *Index]) {
	c.mu.Lock()
	hook := c.evictHook
	c.mu.Unlock()
	if hook != nil {
		keys := make([]CacheKey, len(victims))
		for i, v := range victims {
			keys[i] = v.Key
		}
		hook(keys)
	}
	c.spillAsync(victims)
}

// Acquire returns a handle on the index for key, building it at most once
// per residency: a resident entry is returned immediately, a build in flight
// is awaited (coalescing), and otherwise the caller's build function runs —
// after first consulting the spill directory. g must be the graph key.Graph
// names; it binds spill-loaded indexes and validates their fingerprint.
//
// The returned values follow func-call convention: on error the handle is
// nil and nothing needs releasing.
func (c *Cache) Acquire(key CacheKey, g *graph.Graph, build func() (*Index, error)) (*Handle, error) {
	spilled := false
	h, err := c.core.Acquire(key, func() (*Index, int64, error) {
		ix, sp, err := c.loadOrBuild(key, g, build)
		if err != nil {
			return nil, 0, err
		}
		spilled = sp
		return ix, ix.MemoryBytes(), nil
	})
	if err != nil {
		return nil, err
	}
	if spilled {
		c.mu.Lock()
		c.spillLoads++
		c.mu.Unlock()
	}
	return &Handle{h: h}, nil
}

// Adopt inserts an already-built index into the cache under its own build
// parameters (L, R, seed) and the given graph name, without pinning it:
// later Acquires for that key are hits. If the key is already resident or
// mid-population the cache keeps what it has — the two indexes are
// interchangeable, since walks are fully determined by (graph, L, R, seed).
// The engine uses this to serve selections over caller-materialized indexes
// (Engine.AdoptIndex) through the same cache stack as everything else.
func (c *Cache) Adopt(key CacheKey, ix *Index) error {
	if ix == nil {
		return errors.New("index: adopt nil index")
	}
	if key.L != ix.L() || key.R != ix.R() || key.Seed != ix.Seed() || key.R0 != ix.R0() || key.Epoch != ix.GraphEpoch() {
		return fmt.Errorf("index: adopt key %s does not match index build (L=%d R=%d seed=%d R0=%d epoch=%d)",
			key, ix.L(), ix.R(), ix.Seed(), ix.R0(), ix.GraphEpoch())
	}
	h, err := c.core.Acquire(key, func() (*Index, int64, error) {
		return ix, ix.MemoryBytes(), nil
	})
	if err != nil {
		return err
	}
	h.Release()
	return nil
}

// loadOrBuild tries the spill directory, then falls back to build. A spill
// file is only trusted if every build parameter matches the key — L, R and
// the build seed (serialized in the spill header) — on top of the graph
// fingerprint LoadAny already verifies, so an FNV path collision or a
// stale file can never warm-load an index built with different parameters
// and silently change every answer.
func (c *Cache) loadOrBuild(key CacheKey, g *graph.Graph, build func() (*Index, error)) (*Index, bool, error) {
	if c.spillDir != "" {
		if ferr := faultinject.Do(faultinject.SiteSpillLoad); ferr != nil {
			// An injected unreadable file: count it and fall through to the
			// rebuild, exactly like an organic load failure.
			c.noteSpillLoadError()
		} else if ix, err := LoadAny(c.spillPath(key), g, StoreOptions{Mmap: c.spillCfg.Mmap, HotRows: c.spillCfg.HotRows}); err == nil {
			if ix.L() == key.L && ix.R() == key.R && ix.Seed() == key.Seed && ix.R0() == key.R0 && ix.GraphEpoch() == key.Epoch {
				if ix.StoreMapped() {
					// A page-in restart: the index came up without a
					// deserialize — rows fault in from the file as queries
					// touch them.
					c.mu.Lock()
					c.mmapLoads++
					c.mu.Unlock()
				}
				return ix, true, nil
			}
			// A hash collision between distinct keys (or a stale file from
			// an older build): ignore it.
		} else if !errors.Is(err, fs.ErrNotExist) {
			// The file was there but would not load (corrupt, truncated, old
			// version): the rebuild below recovers, but the failure is worth
			// counting — persistent spill corruption means every restart pays
			// full build cost while looking warm.
			c.noteSpillLoadError()
		}
	}
	if err := faultinject.Do(faultinject.SiteIndexPopulate); err != nil {
		return nil, false, err
	}
	ix, err := build()
	return ix, false, err
}

// noteSpillLoadError counts one spill file that existed but failed to load.
func (c *Cache) noteSpillLoadError() {
	c.mu.Lock()
	c.spillLoadErrors++
	c.mu.Unlock()
}

// spillPath names the spill file for a key: a readable prefix plus an FNV-1a
// hash of the full key so arbitrary graph names cannot escape the directory.
func (c *Cache) spillPath(key CacheKey) string {
	h := fnv.New64a()
	fmt.Fprint(h, key.String())
	return filepath.Join(c.spillDir, fmt.Sprintf("idx-%016x.rwdomidx", h.Sum64()))
}

// saveSpill writes ix to path in the configured format through saveAtomic,
// so concurrent spill-loads and duplicate spillers of the same key only
// ever see the old file or the new one. SiteSpillSave injects its faults
// here, on the spill path only.
func saveSpill(ix *Index, path string, cfg SpillConfig) error {
	if err := faultinject.Do(faultinject.SiteSpillSave); err != nil {
		return err
	}
	return ix.saveAtomic(path, cfg.format() == FormatV8)
}

// spill persists evicted entries to the spill directory, when configured.
func (c *Cache) spill(victims []cache.Entry[CacheKey, *Index]) {
	if c.spillDir == "" || len(victims) == 0 {
		return
	}
	saved, failed, skipped := int64(0), int64(0), int64(0)
	for _, v := range victims {
		path := c.spillPath(v.Key)
		if c.spillCurrent(v.Value, path) {
			skipped++
			continue
		}
		if err := saveSpill(v.Value, path, c.spillCfg); err == nil {
			saved++
		} else {
			failed++
		}
	}
	c.noteSpills(saved, failed, skipped)
}

// spillCurrent reports whether ix's bytes are already durable at path: a
// store-backed index loaded from that very spill file, still covering its
// whole replicate range (ExtendReplicates since load would have widened it).
// Resident indexes are immutable (Repair only happens on indexes removed
// via TakeGraph, or on copies of them), so re-serializing an unchanged store-backed index on
// eviction would write back the bytes it was loaded from.
func (c *Cache) spillCurrent(ix *Index, path string) bool {
	if !ix.storeComplete() || ix.StorePath() != path {
		return false
	}
	_, err := os.Stat(path)
	return err == nil
}

// spillAsync runs spill in the background: serializing a large evicted
// index must not sit on the latency of whichever request happened to tip
// the cache over capacity, nor stall the background evictor's tick.
// saveAtomic's temp+rename keeps concurrent readers and duplicate spillers
// of the same key safe.
func (c *Cache) spillAsync(victims []cache.Entry[CacheKey, *Index]) {
	if c.spillDir == "" || len(victims) == 0 {
		return
	}
	c.spillWG.Add(1)
	go func() {
		defer c.spillWG.Done()
		c.spill(victims)
	}()
}

// TakenIndex is one resident index removed by TakeGraph, with the key it
// was resident under.
type TakenIndex struct {
	Key   CacheKey
	Index *Index
}

// TakeGraph removes every resident index for the named graph. taken holds
// the unpinned ones, which the caller now owns exclusively — no handle and
// no map entry references them, so it may Repair them in place after a
// graph mutation. pinned holds those an in-flight read still holds: they
// are orphaned (their readers finish on them, a consistent pre-mutation
// answer, but nothing new can acquire them), and the caller may read them
// — Copy one and repair the copy — but must not mutate them. Neither set
// flows through the eviction hook: nothing is spilled (the values are about
// to be repaired or dropped, and a pre-mutation file on disk is
// unreachable anyway — the post-mutation key has a different spill path),
// and the caller is the serving layer itself, which moves or drops the
// dependent memo tables explicitly.
func (c *Cache) TakeGraph(name string) (taken, pinned []TakenIndex) {
	un, in := c.core.Take(func(k CacheKey) bool { return k.Graph == name })
	list := func(entries []cache.Entry[CacheKey, *Index]) []TakenIndex {
		out := make([]TakenIndex, 0, len(entries))
		for _, e := range entries {
			out = append(out, TakenIndex{Key: e.Key, Index: e.Value})
		}
		return out
	}
	return list(un), list(in)
}

// EvictIdle evicts every unreferenced entry whose last use is not newer than
// olderThan on the logical clock (see Clock and StartEvictor) and returns
// how many were evicted. Victims are spilled asynchronously (through the
// same eviction hook every other eviction uses), so one slow disk write
// cannot stall the eviction tick.
func (c *Cache) EvictIdle(olderThan int64) int {
	return c.core.EvictIdle(olderThan)
}

// Clock returns the current logical LRU clock (bumped on every Acquire).
func (c *Cache) Clock() int64 { return c.core.Clock() }

// StartEvictor launches a goroutine that every interval evicts entries not
// acquired since the previous tick — the background eviction that keeps a
// long-idle daemon's heap proportional to its working set rather than its
// history. The returned stop function terminates the goroutine and must be
// called before the cache is abandoned.
func (c *Cache) StartEvictor(interval time.Duration) (stop func()) {
	return c.core.StartEvictor(interval)
}

// SpillAll persists every resident index to the spill directory without
// evicting it — called at daemon shutdown so a restart starts warm. It is a
// no-op without a spill directory.
func (c *Cache) SpillAll() error {
	if c.spillDir == "" {
		return nil
	}
	c.spillWG.Wait() // let in-flight background spills land first
	var errs []error
	saved, skipped := int64(0), int64(0)
	for _, e := range c.core.Resident() {
		path := c.spillPath(e.Key)
		if c.spillCurrent(e.Value, path) {
			skipped++
			continue
		}
		if err := saveSpill(e.Value, path, c.spillCfg); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", e.Key, err))
		} else {
			saved++
		}
	}
	c.noteSpills(saved, int64(len(errs)), skipped)
	return errors.Join(errs...)
}

// noteSpills adds one spill pass's outcomes to the counters.
func (c *Cache) noteSpills(saved, failed, skipped int64) {
	c.mu.Lock()
	c.spillSaves += saved
	c.spillSaveErrors += failed
	c.spillSkipped += skipped
	c.mu.Unlock()
}

// Stats returns a snapshot of the traffic counters plus current residency.
func (c *Cache) Stats() CacheStats {
	cs := c.core.Stats()
	c.mu.Lock()
	loads, saves, loadErrs, saveErrs := c.spillLoads, c.spillSaves, c.spillLoadErrors, c.spillSaveErrors
	skipped, mmaps := c.spillSkipped, c.mmapLoads
	c.mu.Unlock()
	return CacheStats{
		Hits:            cs.Hits,
		Coalesced:       cs.Coalesced,
		Misses:          cs.Misses,
		SpillLoads:      loads,
		SpillSaves:      saves,
		SpillLoadErrors: loadErrs,
		SpillSaveErrors: saveErrs,
		SpillSkipped:    skipped,
		MmapLoads:       mmaps,
		Evictions:       cs.Evictions,
		BuildErrors:     cs.PopulateErrors,
		Resident:        cs.Resident,
		ResidentBytes:   cs.ResidentBytes,
	}
}

// StorageStats describes the storage subsystem's view of the cache: the
// configured spill format, and the aggregate mmap/decode counters of every
// resident store-backed index. Snapshot via Cache.StorageStats; the serving
// layer renders it as the /stats "storage" block.
type StorageStats struct {
	// SpillFormat is the effective write format (v8 or v8raw); Mmap
	// reports whether v8 spill loads serve store-backed off mapped pages.
	SpillFormat string
	Mmap        bool
	// MappedIndexes is the number of resident indexes serving through a
	// mapping; MappedBytes the total size of their read-only mappings
	// (page-cache residency, not Go heap).
	MappedIndexes int
	MappedBytes   int64
	// DecodeHits/DecodeMisses count compressed-span reads served from
	// hot-row caches vs decoded from mapped blobs, summed over resident
	// store-backed indexes (only mapped compressed chunks decode on read);
	// DecodeErrors counts malformed blocks served as empty spans (writer
	// bug — corruption is caught at load, and a heap load decodes every
	// block up front, so a malformed one fails it).
	DecodeHits   int64
	DecodeMisses int64
	DecodeErrors int64
	// PageInRestarts counts spill loads that came up by mmap page-in
	// instead of a deserialize (CacheStats.MmapLoads).
	PageInRestarts int64
}

// StorageStats snapshots the storage subsystem counters across resident
// indexes.
func (c *Cache) StorageStats() StorageStats {
	c.mu.Lock()
	s := StorageStats{
		SpillFormat:    c.spillCfg.format(),
		Mmap:           c.spillCfg.Mmap,
		PageInRestarts: c.mmapLoads,
	}
	c.mu.Unlock()
	for _, e := range c.core.Resident() {
		ix := e.Value
		if !ix.StoreBacked() {
			continue
		}
		if ix.StoreMapped() {
			s.MappedIndexes++
			s.MappedBytes += ix.MappedBytes()
		}
		st := ix.StoreStats()
		s.DecodeHits += st.DecodeHits
		s.DecodeMisses += st.DecodeMisses
		s.DecodeErrors += st.DecodeErrors
	}
	return s
}

// PinnedRefs returns the total refcount across resident entries — test
// observability for "no index is still pinned once traffic stops".
func (c *Cache) PinnedRefs() int { return c.core.PinnedRefs() }

// Keys returns the resident keys sorted by string form, for /stats output.
func (c *Cache) Keys() []CacheKey {
	keys := c.core.Keys()
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}
