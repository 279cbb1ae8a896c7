// Package cache implements the refcounted-LRU core shared by the daemon's
// two large-object caches: the walk-index cache (internal/index.Cache) and
// the memoized D-table cache (internal/server). Both need exactly the same
// machinery — an entry map with singleflight population through a ready
// channel, per-entry refcounts so nothing is freed under an in-flight
// request, a logical LRU clock driving victim selection, and traffic stats —
// and before this package existed each carried a private copy, so every
// lifecycle bug had to be found and fixed twice.
//
// The core is generic over key and value and policy-free: capacity is
// expressed as an entry-count cap and/or a bytes budget (values report their
// size at population time), and the cache-specific behaviors are hooks on
// top of it. The index cache spills victims to disk from its OnEvict hook;
// the memo cache pins the longest cached prefix of a set through PinBest
// while extending it; the serving layer links the two caches with
// Invalidate, dropping memoized tables when the index they were built from
// is evicted so an evicted index's heap is actually released instead of
// being pinned by its dependents; and a graph mutation moves both caches'
// entries to their post-mutation keys with Take and Put.
//
// # Lifecycle invariants
//
//   - An entry is populated at most once per residency: concurrent Acquires
//     for one key coalesce onto a single populate call.
//   - A referenced entry (refs > 0) is never chosen as an eviction victim,
//     so a handle's value can never be dropped from the cache's accounting
//     while the handle is live. Invalidate is the one operation that removes
//     referenced entries, and it only orphans them: the map entry goes away
//     (no new Acquire can pin it) but the value itself stays reachable
//     through existing handles until the last Release.
//   - A failed populate leaves nothing behind: the leader removes its entry
//     before publishing the error, so the next Acquire repopulates.
package cache

import (
	"fmt"
	"sync"
	"time"
)

// Stats counts cache traffic. Snapshot via Cache.Stats.
type Stats struct {
	// Hits counts Acquires served by a resident value; Coalesced the subset
	// that waited on a population already in flight. A waiter whose leader
	// fails is counted under PopulateErrors, not Hits — it received an
	// error, and counting it as a hit would inflate the hit rate exactly
	// when populations are failing.
	Hits      int64
	Coalesced int64
	// Misses counts Acquires that ran the populate function.
	Misses int64
	// Evictions counts entries dropped by the entry/bytes budgets or
	// EvictIdle; Invalidated counts entries dropped by Invalidate.
	Evictions   int64
	Invalidated int64
	// PopulateErrors counts failed Acquires: one for the failed populate
	// itself plus one per waiter that coalesced onto it.
	PopulateErrors int64
	// Resident is the number of entries (including in-flight populations) at
	// snapshot time; ResidentBytes the published sizes of the ready ones.
	Resident      int
	ResidentBytes int64
}

// Entry is one resident (key, value) pair, as reported by Resident and the
// OnEvict hook.
type Entry[K comparable, V any] struct {
	Key   K
	Value V
	Bytes int64
}

// Config configures a Cache.
type Config[K comparable, V any] struct {
	// MaxEntries bounds the number of entries (<= 0 means unbounded).
	MaxEntries int
	// MaxBytes bounds the sum of published entry sizes (<= 0 means
	// unbounded). Both bounds are soft while every candidate victim is
	// referenced or still populating: the cache never frees a value in use.
	MaxBytes int64
	// OnEvict, when non-nil, receives each batch of unreferenced victims
	// dropped by the budgets or EvictIdle. It is called without the cache
	// lock, on whichever goroutine triggered the eviction, so it may call
	// back into this or another cache; long work (disk spills) should be
	// handed off to a background goroutine.
	OnEvict func([]Entry[K, V])
}

// Cache is the generic refcounted-LRU core. Create with New.
type Cache[K comparable, V any] struct {
	mu            sync.Mutex
	cfg           Config[K, V]
	entries       map[K]*entry[K, V]
	clock         int64 // logical LRU clock, bumped on every Acquire
	residentBytes int64
	stats         Stats
}

type entry[K comparable, V any] struct {
	key     K
	ready   chan struct{} // closed once value/err are set
	value   V
	bytes   int64
	err     error
	refs    int
	lastUse int64
}

// isReady reports whether the entry's population has completed (without
// blocking); must only be trusted under the cache lock or after <-e.ready.
func (e *entry[K, V]) isReady() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// Handle pins one cached value. Callers must Release exactly once; Release
// after the first is a no-op.
type Handle[K comparable, V any] struct {
	c    *Cache[K, V]
	e    *entry[K, V]
	once sync.Once
}

// Value returns the pinned value.
func (h *Handle[K, V]) Value() V { return h.e.value }

// Key returns the cache key the handle was acquired under.
func (h *Handle[K, V]) Key() K { return h.e.key }

// Release unpins the value, making its entry eligible for eviction (and, if
// the entry was orphaned by Invalidate, letting the last holder's release
// free the value for collection).
func (h *Handle[K, V]) Release() {
	h.once.Do(func() {
		h.c.mu.Lock()
		h.e.refs--
		victims := h.c.evictOverBudgetLocked()
		h.c.mu.Unlock()
		h.c.notify(victims)
	})
}

// New returns a Cache with the given budgets and hooks.
func New[K comparable, V any](cfg Config[K, V]) *Cache[K, V] {
	return &Cache[K, V]{cfg: cfg, entries: make(map[K]*entry[K, V])}
}

// Acquire returns a handle on the value for key, populating it at most once
// per residency: a resident entry is returned immediately, a population in
// flight is awaited (coalescing), and otherwise the caller's populate
// function runs — outside the cache lock, so it may take as long as it
// needs and may call PinBest on this cache. populate returns the value and
// its approximate size in bytes (charged against MaxBytes).
//
// The returned values follow func-call convention: on error the handle is
// nil and nothing needs releasing.
func (c *Cache[K, V]) Acquire(key K, populate func() (V, int64, error)) (*Handle[K, V], error) {
	c.mu.Lock()
	c.clock++
	if e, ok := c.entries[key]; ok {
		e.refs++
		e.lastUse = c.clock
		if e.isReady() {
			// Entries that fail to populate are removed before their error is
			// published, so a resident ready entry is always a success.
			c.stats.Hits++
			c.mu.Unlock()
			return &Handle[K, V]{c: c, e: e}, nil
		}
		c.mu.Unlock()
		<-e.ready
		c.mu.Lock()
		if e.err != nil {
			// The population leader failed and removed the entry; this waiter
			// got an error, not a value, so it counts as a failed populate —
			// drop our ref on the orphaned entry (no eviction bookkeeping
			// needed, it is no longer in the map).
			c.stats.PopulateErrors++
			e.refs--
			c.mu.Unlock()
			return nil, e.err
		}
		c.stats.Hits++
		c.stats.Coalesced++
		c.mu.Unlock()
		return &Handle[K, V]{c: c, e: e}, nil
	}
	e := &entry[K, V]{key: key, ready: make(chan struct{}), refs: 1, lastUse: c.clock}
	c.entries[key] = e
	c.stats.Misses++
	c.mu.Unlock()

	v, bytes, err := runPopulate(populate)

	c.mu.Lock()
	e.value, e.bytes, e.err = v, bytes, err
	var victims []Entry[K, V]
	if err != nil {
		c.stats.PopulateErrors++
		e.refs--
		if c.entries[key] == e {
			delete(c.entries, key)
		}
	} else if c.entries[key] == e {
		c.residentBytes += bytes
		victims = c.evictOverBudgetLocked()
	}
	c.mu.Unlock()
	close(e.ready)
	c.notify(victims)
	if err != nil {
		return nil, err
	}
	return &Handle[K, V]{c: c, e: e}, nil
}

// runPopulate invokes populate with a panic boundary: a panicking populate
// becomes a failed populate. Without this, a panic would unwind past the
// entry's ready-channel close, leaving every coalesced waiter blocked forever
// on an entry that can neither succeed nor fail — and when population runs on
// a detached goroutine (the index cache's context-decoupled builds), it would
// kill the whole process.
func runPopulate[V any](populate func() (V, int64, error)) (v V, bytes int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cache: populate panicked: %v", p)
		}
	}()
	return populate()
}

// PinBest scans the ready resident entries under the lock, scoring each with
// score, and returns a pinned handle on the highest-scoring entry with a
// positive score — or nil if none scores positive. Ties break arbitrarily.
// score must be fast and must not call back into the cache.
//
// The memo cache uses this to pin the longest cached prefix of a set before
// extending from its snapshot, so eviction cannot free the prefix mid-copy,
// and to find a resident table of any index instance for a degraded read.
// Pinning does not count as a use on the LRU clock: extending from a table
// is the cache's own bookkeeping, and degraded traffic should not keep a
// table resident the way client hits do.
func (c *Cache[K, V]) PinBest(score func(key K, value V) int) *Handle[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *entry[K, V]
	bestScore := 0
	for _, e := range c.entries {
		if !e.isReady() || e.err != nil {
			continue
		}
		if s := score(e.key, e.value); s > bestScore {
			best, bestScore = e, s
		}
	}
	if best == nil {
		return nil
	}
	best.refs++
	return &Handle[K, V]{c: c, e: best}
}

// Invalidate drops every ready entry whose key matches and returns how many
// were dropped. Unreferenced victims are reported to OnEvict like ordinary
// evictions; entries still pinned by a handle are orphaned instead —
// removed from the map so no later Acquire can reach them, their value
// released for collection when the last holder calls Release — and are NOT
// reported to OnEvict (a value still in use must not be spilled or reused).
// Entries still populating are skipped: their leader holds the resources
// the invalidation targets pinned anyway, and they complete normally.
func (c *Cache[K, V]) Invalidate(match func(K) bool) int {
	c.mu.Lock()
	var victims []Entry[K, V]
	dropped := 0
	for _, e := range c.entries {
		if !e.isReady() || e.err != nil || !match(e.key) {
			continue
		}
		c.removeLocked(e)
		c.stats.Invalidated++
		dropped++
		if e.refs == 0 {
			victims = append(victims, Entry[K, V]{Key: e.key, Value: e.value, Bytes: e.bytes})
		}
	}
	c.mu.Unlock()
	c.notify(victims)
	return dropped
}

// Take removes every ready entry whose key matches — like Invalidate — but
// hands the victims to the caller instead of routing them through OnEvict.
// taken holds the unreferenced ones: once Take returns, no map entry and no
// live handle references their values, so the caller may mutate them
// freely (the serving layer repairs walk indexes and their memoized tables
// in place after a graph mutation). orphaned holds the entries still pinned
// by a handle, orphaned exactly as Invalidate orphans them — removed from
// the map, value released for collection when the last holder calls
// Release. Their values are still shared with live readers, so the caller
// may read them (to copy one, say) but must not mutate them. Entries still
// populating are skipped entirely: their leader will publish under a key
// the caller has already decided is stale, which is wasteful but harmless
// (nothing resolves that key again) and the leader's handle keeps the entry
// pinned anyway.
func (c *Cache[K, V]) Take(match func(K) bool) (taken, orphaned []Entry[K, V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if !e.isReady() || e.err != nil || !match(e.key) {
			continue
		}
		c.removeLocked(e)
		c.stats.Invalidated++
		ent := Entry[K, V]{Key: e.key, Value: e.value, Bytes: e.bytes}
		if e.refs == 0 {
			taken = append(taken, ent)
		} else {
			orphaned = append(orphaned, ent)
		}
	}
	return taken, orphaned
}

// Put publishes value under key as a ready, unreferenced entry, unless the
// key is already present (resident or populating), and reports whether it
// did. It counts neither a hit nor a miss: the value was not asked for, it
// is carried over (the serving layer re-publishes memoized tables a graph
// mutation repaired under their post-mutation key). The entry joins the LRU
// as of the current clock and may push older entries out of the budgets.
func (c *Cache[K, V]) Put(key K, value V, bytes int64) bool {
	c.mu.Lock()
	if _, ok := c.entries[key]; ok {
		c.mu.Unlock()
		return false
	}
	e := &entry[K, V]{key: key, ready: make(chan struct{}), value: value, bytes: bytes, lastUse: c.clock}
	close(e.ready)
	c.entries[key] = e
	c.residentBytes += bytes
	victims := c.evictOverBudgetLocked()
	c.mu.Unlock()
	c.notify(victims)
	return true
}

// EvictIdle evicts every unreferenced entry whose last use is not newer than
// olderThan on the logical clock (see Clock and StartEvictor) and returns
// how many were evicted. Victims flow through OnEvict like any other
// eviction, so a spill hook keeps its asynchrony here too.
func (c *Cache[K, V]) EvictIdle(olderThan int64) int {
	c.mu.Lock()
	var victims []Entry[K, V]
	for {
		v := c.popVictimLocked(func(e *entry[K, V]) bool { return e.lastUse <= olderThan })
		if v == nil {
			break
		}
		victims = append(victims, Entry[K, V]{Key: v.key, Value: v.value, Bytes: v.bytes})
	}
	c.mu.Unlock()
	c.notify(victims)
	return len(victims)
}

// Clock returns the current logical LRU clock (bumped on every Acquire).
func (c *Cache[K, V]) Clock() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clock
}

// StartEvictor launches a goroutine that every interval evicts entries not
// acquired since the previous tick — the background eviction that keeps a
// long-idle daemon's heap proportional to its working set rather than its
// history. The returned stop function terminates the goroutine and must be
// called before the cache is abandoned.
func (c *Cache[K, V]) StartEvictor(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		mark := c.Clock()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.EvictIdle(mark)
				mark = c.Clock()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Resident returns a snapshot of the ready entries (for spill-at-shutdown
// and stats detail).
func (c *Cache[K, V]) Resident() []Entry[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry[K, V], 0, len(c.entries))
	for _, e := range c.entries {
		if e.isReady() && e.err == nil {
			out = append(out, Entry[K, V]{Key: e.key, Value: e.value, Bytes: e.bytes})
		}
	}
	return out
}

// Keys returns every key in the map, including entries still populating.
func (c *Cache[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]K, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	return keys
}

// Stats returns a snapshot of the traffic counters plus current residency.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Resident = len(c.entries)
	s.ResidentBytes = c.residentBytes
	return s
}

// PinnedRefs returns the total refcount across resident entries — test
// observability for "nothing stays pinned once traffic stops". Orphaned
// entries (failed populations, invalidated-while-referenced) are not in the
// map and therefore not counted.
func (c *Cache[K, V]) PinnedRefs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, e := range c.entries {
		total += e.refs
	}
	return total
}

// notify hands victims to the OnEvict hook, outside the lock.
func (c *Cache[K, V]) notify(victims []Entry[K, V]) {
	if c.cfg.OnEvict != nil && len(victims) > 0 {
		c.cfg.OnEvict(victims)
	}
}

// removeLocked drops e from the map and its published size from the bytes
// accounting.
func (c *Cache[K, V]) removeLocked(e *entry[K, V]) {
	delete(c.entries, e.key)
	c.residentBytes -= e.bytes
}

// overBudgetLocked reports whether either budget is exceeded.
func (c *Cache[K, V]) overBudgetLocked() bool {
	return (c.cfg.MaxEntries > 0 && len(c.entries) > c.cfg.MaxEntries) ||
		(c.cfg.MaxBytes > 0 && c.residentBytes > c.cfg.MaxBytes)
}

// evictOverBudgetLocked removes least-recently-used unreferenced entries
// until both budgets are satisfied, returning the victims for the caller to
// hand to OnEvict after releasing the lock (a spill hook writing a large
// value to disk must not block other Acquires). Entries still populating or
// still referenced are never evicted.
func (c *Cache[K, V]) evictOverBudgetLocked() []Entry[K, V] {
	var victims []Entry[K, V]
	for c.overBudgetLocked() {
		v := c.popVictimLocked(func(*entry[K, V]) bool { return true })
		if v == nil {
			break
		}
		victims = append(victims, Entry[K, V]{Key: v.key, Value: v.value, Bytes: v.bytes})
	}
	return victims
}

// popVictimLocked removes and returns the LRU ready entry with refs == 0
// matching ok, or nil if none qualifies.
func (c *Cache[K, V]) popVictimLocked(ok func(*entry[K, V]) bool) *entry[K, V] {
	var victim *entry[K, V]
	for _, e := range c.entries {
		if !e.isReady() {
			continue // still populating
		}
		if e.refs > 0 || e.err != nil || !ok(e) {
			continue
		}
		if victim == nil || e.lastUse < victim.lastUse {
			victim = e
		}
	}
	if victim == nil {
		return nil
	}
	c.removeLocked(victim)
	c.stats.Evictions++
	return victim
}
