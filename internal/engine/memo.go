package engine

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/index"
)

// This file implements the memoized gain read path: a refcounted LRU cache
// of D-tables keyed by (index key and instance, problem, canonical set). The
// paper's whole point is that the walk index makes marginal-gain evaluation
// cheap — the index is built once and every gain is a read — yet the naive
// serving path re-materialized an n·R table and replayed the whole set on
// every /v1/gain and /v1/objective request. With the memo, the first request
// for a set pays one table materialization (extending the longest cached
// prefix of the set when one is resident, so only the delta is replayed) and
// every later request is a pure read of the frozen table.
//
// Frozen means exactly that: while an entry is reachable — resident in the
// cache, or pinned by a handle — its table is never mutated. Gain/GainBatch/
// TopGains are pure reads, so any number of requests can share the table
// concurrently, and a TopGains miss evaluates only the candidates whose
// empty-set bound can still reach the top B (internal/core), not all n; the
// objective — whose D-table scan memoizes saturation state and is therefore
// NOT a pure read — is computed once during population and stored, with
// its integer sum. Entries are only evicted when unreferenced, so a table
// can never be freed under an in-flight request. The one writer is a graph
// mutation (ApplyDelta): it takes a key's tables out of the cache, and
// only those no handle pins — unreachable from then on — are patched by
// the index Repair and published again under the post-mutation key, each
// a new entry with its objective advanced and an empty top-B memo.
//
// The refs/ready/LRU machinery lives in the generic internal/cache core
// (shared with internal/index.Cache); this file adds the memo-specific
// policy: canonical-set keying, longest-prefix pinning and extension, the
// stored objective, and index-eviction linkage — when the index cache
// evicts an index, invalidate removes every table built under that key so
// the evicted index's heap is actually released instead of staying pinned
// by its dependent tables (tables still mid-read are orphaned and released
// with their last handle).

// canonicalSet returns the sorted, duplicate-free form of nodes together
// with its canonical key string. Two node lists denote the same seed set —
// and therefore the same D-table — iff their canonical keys are equal:
// D-table state is order-independent (Update min-folds hop values for
// Problem 1 and writes indicators for Problem 2, both commutative) and
// duplicate-insensitive (Update is idempotent on table state).
func canonicalSet(nodes []int) ([]int, string) {
	canon := append([]int(nil), nodes...)
	sort.Ints(canon)
	w := 0
	for i, u := range canon {
		if i > 0 && u == canon[w-1] {
			continue
		}
		canon[w] = u
		w++
	}
	canon = canon[:w]
	return canon, setKeyOf(canon)
}

// setKeyOf renders a canonical (sorted, deduplicated) set as its exact key:
// decimal ids joined by commas. On canonical input the encoding is
// injective — distinct sets always get distinct keys — so a key match can
// never serve the wrong table (no hashing, no collisions to reason about).
func setKeyOf(set []int) string {
	if len(set) == 0 {
		return ""
	}
	var b strings.Builder
	for i, u := range set {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(u))
	}
	return b.String()
}

// isPrefix reports whether p is a proper leading prefix of set (both
// canonical, so element-wise comparison suffices).
func isPrefix(p, set []int) bool {
	if len(p) >= len(set) {
		return false
	}
	for i, u := range p {
		if set[i] != u {
			return false
		}
	}
	return true
}

// memoKey identifies one cached D-table. A table reads through the index
// instance it was built over, so the instance is part of the key: a read
// that pinned instance B (say, a rebuild of the same cache key) never
// reaches a table over an instance A that the index cache no longer holds
// and may have handed to Repair.
type memoKey struct {
	idx     index.CacheKey
	ix      *index.Index // set by acquire
	problem index.Problem
	set     string // canonical set key (setKeyOf)
}

// memoValue is one cached table: written once at population and immutable
// while reachable, except for the attached top-B result memo, which has its
// own lock. A graph mutation may patch an unreachable table and publish it
// again as a new value (see the frozen contract above).
type memoValue struct {
	set       []int         // canonical set, for prefix extension
	d         *index.DTable // frozen after publication
	objSum    int64         // the objective's integer sum, advanced across deltas
	objective float64
	top       *topMemo // per-entry top-B winners, lazily filled
}

// topMemo caches TopGains results per budget B for one frozen table. The
// table never changes after publication, so a stored result is valid for
// the entry's whole lifetime; the map is bounded (topMemoMaxBudgets) so an
// adversary sweeping B values cannot grow it without bound. Eviction of the
// entry drops the memo with it.
type topMemo struct {
	mu  sync.Mutex
	byB map[int]topResult
}

type topResult struct {
	nodes []int
	gains []float64
}

// topMemoMaxBudgets bounds how many distinct B values one table caches.
const topMemoMaxBudgets = 16

// get returns a copy of the cached winners for budget b, if present.
// Copying at the memo boundary (both directions — see put) keeps callers
// free to mutate their results without corrupting every later answer.
func (t *topMemo) get(b int) ([]int, []float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.byB[b]
	if !ok {
		return nil, nil, false
	}
	return append([]int(nil), r.nodes...), append([]float64(nil), r.gains...), true
}

// put stores a copy of the winners for budget b, unless the budget cap is
// reached (concurrent computes of the same b store identical results, so
// last-write is harmless).
func (t *topMemo) put(b int, nodes []int, gains []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byB == nil {
		t.byB = make(map[int]topResult, 4)
	}
	if _, ok := t.byB[b]; !ok && len(t.byB) >= topMemoMaxBudgets {
		return
	}
	t.byB[b] = topResult{
		nodes: append([]int(nil), nodes...),
		gains: append([]float64(nil), gains...),
	}
}

// memoHandle pins one cached table. Callers must Release exactly once;
// Release after the first is a no-op.
type memoHandle struct {
	h *cache.Handle[memoKey, memoValue]
}

// Table returns the pinned frozen table. Callers may read gains from it
// (Gain/GainBatch/TopGains) but must not mutate it.
func (h *memoHandle) Table() *index.DTable { return h.h.Value().d }

// Objective returns the set's estimated objective, computed once at
// population time.
func (h *memoHandle) Objective() float64 { return h.h.Value().objective }

// CachedTop returns the memoized top-B winners for this table, if a prior
// request already paid the top-B read for budget b.
func (h *memoHandle) CachedTop(b int) ([]int, []float64, bool) {
	return h.h.Value().top.get(b)
}

// StoreTop memoizes the top-B winners so repeated same-set topgains
// requests become O(B) reads instead of bound-pruned gain evaluations.
func (h *memoHandle) StoreTop(b int, nodes []int, gains []float64) {
	h.h.Value().top.put(b, nodes, gains)
}

// Release unpins the table, making its entry eligible for eviction.
func (h *memoHandle) Release() { h.h.Release() }

// MemoStats counts memo-cache traffic. Hits + Misses equals the number of
// non-empty-set memoized lookups minus waiters that coalesced onto a failed
// population (a failed population is counted as a miss plus a populate
// error; its waiters as populate errors only). EmptyHits counts set-free
// requests served straight off the index's memoized empty-set vectors (no
// table at all).
type MemoStats struct {
	// Hits counts acquires served by a resident table; Coalesced the subset
	// that attached to a population already in flight.
	Hits      int64
	Coalesced int64
	// Misses counts acquires that populated a new table; PrefixExtended the
	// subset that extended the longest cached prefix of the requested set
	// instead of replaying it from scratch.
	Misses         int64
	PrefixExtended int64
	// EmptyHits counts empty-set requests answered from the index's
	// memoized empty-set gain vector / objective, with no D-table involved.
	EmptyHits int64
	// TopHits counts TopGains requests served from a table's per-entry
	// top-B result memo (an O(B) read instead of a bound-pruned top-B read).
	TopHits int64
	// Evictions counts entries dropped by the entry/bytes budgets;
	// Invalidated counts tables removed because the index they were built
	// from left the index cache — evicted, or displaced by a graph mutation
	// (a table the mutation carries counts here too, and is resident again
	// under its post-mutation key); PopulateErrors counts failed
	// populations and the waiters that coalesced onto them (which hold no
	// entry and are not hits).
	Evictions      int64
	Invalidated    int64
	PopulateErrors int64
	// Resident is the number of cached tables at snapshot time;
	// ResidentBytes the sum of their heap footprints.
	Resident      int
	ResidentBytes int64
}

// memoCache is the refcounted LRU of frozen D-tables. Like index.Cache it
// coalesces concurrent populations of the same key and never evicts a
// referenced entry; unlike it there is no spill — a lost table costs one
// replay against a resident index, not a walk rematerialization.
type memoCache struct {
	core *cache.Cache[memoKey, memoValue]

	mu             sync.Mutex
	prefixExtended int64
	emptyHits      int64
	topHits        int64
}

// newMemoCache returns a memo cache bounded by maxEntries tables (<= 0
// means unbounded) and maxBytes of table heap (<= 0 means unbounded).
func newMemoCache(maxEntries int, maxBytes int64) *memoCache {
	return &memoCache{core: cache.New(cache.Config[memoKey, memoValue]{
		MaxEntries: maxEntries,
		MaxBytes:   maxBytes,
	})}
}

// Memo acquire outcomes, echoed through every transport (the HTTP "memo"
// response field, the client SDK, the result types below) so clients and
// the parity/stress tests can see which path served them. Untyped string
// constants so codecs compare them against plain string fields.
const (
	MemoHit      = "hit"      // resident frozen table
	MemoMiss     = "miss"     // populated by full replay
	MemoExtended = "extended" // populated by extending a cached prefix
	MemoEmpty    = "empty"    // empty set, served off the index itself
	MemoOff      = "off"      // memoization disabled, fresh-table path
)

// acquire returns a pinned handle on the table for (key, set) over the index
// instance ix, populating it at most once across concurrent callers. ix is
// the index the caller pinned; acquire sets key.ix to it. set must be
// canonical and non-empty. The returned status is MemoHit, MemoMiss or
// MemoExtended.
func (c *memoCache) acquire(key memoKey, set []int, ix *index.Index) (*memoHandle, string, error) {
	key.ix = ix
	populated, extended := false, false
	h, err := c.core.Acquire(key, func() (memoValue, int64, error) {
		populated = true
		if err := faultinject.Do(faultinject.SiteMemoPopulate); err != nil {
			return memoValue{}, 0, err
		}
		// Pin the longest ready proper prefix of set (if any) so eviction
		// cannot free it while we extend from its snapshot. The scan is
		// O(resident·|set|), bounded by the cache size — probing the map for
		// every prefix key would cost O(|set|²) string building per miss,
		// which an attacker-sized set turns into a DoS.
		prefix := c.core.PinBest(func(k memoKey, v memoValue) int {
			if k.idx != key.idx || k.ix != key.ix || k.problem != key.problem {
				return 0
			}
			if !isPrefix(v.set, set) {
				return 0
			}
			return len(v.set) // longest prefix wins; always >= 1 (only non-empty sets are cached)
		})
		var prefixD *index.DTable
		prefixLen := 0
		if prefix != nil {
			defer prefix.Release()
			prefixD, prefixLen = prefix.Value().d, len(prefix.Value().set)
			extended = true
		}
		d, objSum, err := populateTable(ix, key.problem, set, prefixD, prefixLen)
		if err != nil {
			return memoValue{}, 0, err
		}
		v := memoValue{set: set, d: d, objSum: objSum, objective: ix.ObjectiveOf(key.problem, objSum), top: &topMemo{}}
		return v, d.MemoryBytes(), nil
	})
	if err != nil {
		return nil, "", err
	}
	status := MemoHit
	if populated {
		status = MemoMiss
		if extended {
			status = MemoExtended
			c.mu.Lock()
			c.prefixExtended++
			c.mu.Unlock()
		}
	}
	return &memoHandle{h: h}, status, nil
}

// populateTable materializes the frozen table for set over ix: from the
// longest cached prefix when one is pinned (one array copy plus a replay of
// only the delta of set past prefixLen), otherwise by full replay. The
// objective's integer sum is computed here, before publication, because
// EstimateObjectiveSum memoizes saturation state in the table and therefore
// must not run on a shared frozen table.
func populateTable(ix *index.Index, p index.Problem, set []int, prefix *index.DTable, prefixLen int) (*index.DTable, int64, error) {
	d, err := ix.NewDTable(p)
	if err != nil {
		return nil, 0, err
	}
	if prefix != nil {
		if err := d.ExtendFrom(prefix.Snapshot(), set[prefixLen:]...); err != nil {
			return nil, 0, err
		}
	} else {
		for _, u := range set {
			d.Update(u)
		}
	}
	members := make([]bool, ix.Graph().N())
	for _, u := range set {
		members[u] = true
	}
	return d, d.EstimateObjectiveSum(members), nil
}

// peek returns a pinned handle on a resident frozen table for (idx,
// problem, set) over any index instance, or nil — never populating and
// never blocking. This is the degraded read path: when the index cannot be
// acquired (build shed, failed, or out-deadlined), an already-memoized
// table can still answer its exact set. Every instance of one cache key
// holds identical entries (walks are seeded per node and replicate), so any
// match answers identically; ApplyDelta takes a key's tables out of the
// cache before it repairs the key's index, and repairs a copy of an index
// whose tables are still pinned, so a peeked table's index is never
// mutated under it.
func (c *memoCache) peek(idx index.CacheKey, problem index.Problem, set string) *memoHandle {
	h := c.core.PinBest(func(k memoKey, _ memoValue) int {
		if k.idx == idx && k.problem == problem && k.set == set {
			return 1
		}
		return 0
	})
	if h == nil {
		return nil
	}
	return &memoHandle{h: h}
}

// invalidate drops every memoized table built under one of the given
// index keys — the index cache's eviction hook, which is what lets an index
// eviction actually release the index heap instead of leaving it pinned by
// dependent tables. Tables a request still pins are orphaned: no new
// request can reach them, and their memory goes with the last release.
// Tables mid-population are untouched, which is safe because a populating
// request holds a handle on its index, so that index cannot be the one
// being evicted.
func (c *memoCache) invalidate(keys []index.CacheKey) {
	c.core.Invalidate(keyIn(keys))
}

// take removes every table built under one of the given index keys, for
// ApplyDelta: the unpinned ones are handed over (nothing else can reach
// them any more, so Repair may patch them), and those a request pins are
// orphaned and reported with their values, whose index instances must then
// not change under them.
func (c *memoCache) take(keys []index.CacheKey) (taken, pinned []cache.Entry[memoKey, memoValue]) {
	return c.core.Take(keyIn(keys))
}

// keyIn matches the memo keys built under one of keys.
func keyIn(keys []index.CacheKey) func(memoKey) bool {
	in := make(map[index.CacheKey]bool, len(keys))
	for _, k := range keys {
		in[k] = true
	}
	return func(k memoKey) bool { return in[k.idx] }
}

// put publishes a table carried across a graph mutation under its
// post-mutation key, counted as neither hit nor miss; false means the key
// was already present.
func (c *memoCache) put(key memoKey, v memoValue) bool {
	return c.core.Put(key, v, v.d.MemoryBytes())
}

// noteEmptyHit records an empty-set request served off the index.
func (c *memoCache) noteEmptyHit() {
	c.mu.Lock()
	c.emptyHits++
	c.mu.Unlock()
}

// noteTopHit records a TopGains request served from a per-entry top memo.
func (c *memoCache) noteTopHit() {
	c.mu.Lock()
	c.topHits++
	c.mu.Unlock()
}

// Stats returns a snapshot of the traffic counters plus current residency.
func (c *memoCache) Stats() MemoStats {
	cs := c.core.Stats()
	c.mu.Lock()
	extended, empty, top := c.prefixExtended, c.emptyHits, c.topHits
	c.mu.Unlock()
	return MemoStats{
		Hits:           cs.Hits,
		Coalesced:      cs.Coalesced,
		Misses:         cs.Misses,
		PrefixExtended: extended,
		EmptyHits:      empty,
		TopHits:        top,
		Evictions:      cs.Evictions,
		Invalidated:    cs.Invalidated,
		PopulateErrors: cs.PopulateErrors,
		Resident:       cs.Resident,
		ResidentBytes:  cs.ResidentBytes,
	}
}

// pinnedRefs returns the total refcount across resident entries — test
// observability for "no table is still pinned once traffic stops".
func (c *memoCache) pinnedRefs() int { return c.core.PinnedRefs() }
