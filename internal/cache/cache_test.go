package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// val is the test value type: content derived from the key so any holder can
// verify its handle never serves another key's value.
type val struct {
	key   int
	bytes int64
}

func populateVal(key int, bytes int64, populates *atomic.Int64) func() (val, int64, error) {
	return func() (val, int64, error) {
		if populates != nil {
			populates.Add(1)
		}
		return val{key: key, bytes: bytes}, bytes, nil
	}
}

func TestAcquireCoalescesConcurrentPopulates(t *testing.T) {
	c := New(Config[int, val]{MaxEntries: 4})
	var populates atomic.Int64
	const callers = 16
	var wg sync.WaitGroup
	handles := make([]*Handle[int, val], callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := c.Acquire(7, populateVal(7, 100, &populates))
			if err != nil {
				t.Error(err)
				return
			}
			handles[i] = h
		}(i)
	}
	wg.Wait()
	if got := populates.Load(); got != 1 {
		t.Fatalf("%d concurrent Acquires ran %d populates, want exactly 1", callers, got)
	}
	for _, h := range handles {
		if h == nil {
			t.Fatal("missing handle")
		}
		if h.Value().key != 7 {
			t.Fatalf("handle serves key %d, want 7", h.Value().key)
		}
		h.Release()
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", s, callers-1)
	}
	if s.ResidentBytes != 100 {
		t.Fatalf("resident bytes = %d, want 100", s.ResidentBytes)
	}
}

// A waiter that coalesces onto a population whose leader errors must be
// counted as a failed populate, not a hit — the hit rate must stay truthful
// exactly when populations are failing.
func TestFailedPopulationNotCountedAsHit(t *testing.T) {
	c := New(Config[int, val]{})
	boom := errors.New("boom")
	gate := make(chan struct{})
	const waiters = 7
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.Acquire(1, func() (val, int64, error) {
			<-gate // hold the population open until every waiter has attached
			return val{}, 0, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("leader err = %v, want boom", err)
		}
	}()
	for c.PinnedRefs() == 0 { // leader's entry is in the map and pinned
		runtime.Gosched()
	}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Acquire(1, func() (val, int64, error) {
				t.Error("waiter ran its own populate")
				return val{}, 0, nil
			})
			if !errors.Is(err, boom) {
				t.Errorf("waiter err = %v, want boom", err)
			}
		}()
	}
	for c.PinnedRefs() < waiters+1 { // all waiters attached
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	s := c.Stats()
	if s.Hits != 0 {
		t.Fatalf("hits = %d, want 0 (failed waiters are not hits)", s.Hits)
	}
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses)
	}
	if s.PopulateErrors != waiters+1 {
		t.Fatalf("populate errors = %d, want %d (leader + each waiter)", s.PopulateErrors, waiters+1)
	}
	if s.Resident != 0 {
		t.Fatalf("failed population left %d resident entries", s.Resident)
	}
	// The poisoned key repopulates cleanly.
	h, err := c.Acquire(1, populateVal(1, 10, nil))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
}

func TestBytesBudgetEvictsLRU(t *testing.T) {
	var evicted []int
	var mu sync.Mutex
	c := New(Config[int, val]{
		MaxBytes: 250,
		OnEvict: func(victims []Entry[int, val]) {
			mu.Lock()
			for _, v := range victims {
				evicted = append(evicted, v.Key)
			}
			mu.Unlock()
		},
	})
	for key := 1; key <= 3; key++ { // 3 × 100 bytes: over the 250 budget
		h, err := c.Acquire(key, populateVal(key, 100, nil))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	s := c.Stats()
	if s.ResidentBytes > 250 {
		t.Fatalf("resident bytes %d over the 250 budget with no pins held", s.ResidentBytes)
	}
	if s.Resident != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 resident and 1 eviction", s)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted = %v, want the LRU key [1]", evicted)
	}
}

// A referenced entry is never evicted, no matter how far over budget the
// cache is; the budget re-asserts itself at Release.
func TestBudgetNeverEvictsReferenced(t *testing.T) {
	c := New(Config[int, val]{MaxBytes: 100})
	big, err := c.Acquire(1, populateVal(1, 500, nil)) // alone worth 5× the budget
	if err != nil {
		t.Fatal(err)
	}
	for key := 2; key <= 4; key++ {
		h, err := c.Acquire(key, populateVal(key, 50, nil))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if got := big.Value().key; got != 1 {
		t.Fatalf("pinned value changed under pressure: key %d", got)
	}
	found := false
	for _, k := range c.Keys() {
		if k == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("pinned entry dropped from the map: keys %v", c.Keys())
	}
	big.Release() // now unreferenced and far over budget: next sweep drops it
	if s := c.Stats(); s.ResidentBytes > 100 {
		t.Fatalf("resident bytes %d over budget after release", s.ResidentBytes)
	}
}

func TestInvalidateDropsMatchingAndOrphansPinned(t *testing.T) {
	var evicted []int
	c := New(Config[int, val]{
		OnEvict: func(victims []Entry[int, val]) {
			for _, v := range victims {
				evicted = append(evicted, v.Key)
			}
		},
	})
	for key := 1; key <= 4; key++ {
		h, err := c.Acquire(key, populateVal(key, 10, nil))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	pinned, err := c.Acquire(2, populateVal(2, 10, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Drop even keys: 4 (unreferenced) goes through OnEvict, 2 (pinned) is
	// orphaned — gone from the map but still readable through the handle.
	if got := c.Invalidate(func(k int) bool { return k%2 == 0 }); got != 2 {
		t.Fatalf("Invalidate dropped %d, want 2", got)
	}
	if pinned.Value().key != 2 {
		t.Fatalf("orphaned handle serves key %d, want 2", pinned.Value().key)
	}
	if len(evicted) != 1 || evicted[0] != 4 {
		t.Fatalf("OnEvict saw %v, want only the unreferenced victim [4]", evicted)
	}
	s := c.Stats()
	if s.Invalidated != 2 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want 2 invalidated, 0 evictions", s)
	}
	if s.Resident != 2 {
		t.Fatalf("resident = %d, want 2 (odd keys)", s.Resident)
	}
	// A fresh Acquire for the orphaned key repopulates rather than reviving
	// the orphan.
	var populates atomic.Int64
	h2, err := c.Acquire(2, populateVal(2, 10, &populates))
	if err != nil {
		t.Fatal(err)
	}
	if populates.Load() != 1 {
		t.Fatal("acquire after invalidation reused the orphaned entry")
	}
	h2.Release()
	pinned.Release()
	if refs := c.PinnedRefs(); refs != 0 {
		t.Fatalf("%d refs pinned after all releases", refs)
	}
}

func TestPinBestPicksHighestScore(t *testing.T) {
	c := New(Config[int, val]{})
	for key := 1; key <= 5; key++ {
		h, err := c.Acquire(key, populateVal(key, 10, nil))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	// Highest even key wins.
	h := c.PinBest(func(k int, v val) int {
		if k%2 != 0 {
			return 0
		}
		return k
	})
	if h == nil || h.Key() != 4 {
		t.Fatalf("PinBest = %v, want key 4", h)
	}
	// The pin protects the entry from eviction.
	if n := c.EvictIdle(c.Clock()); n != 4 {
		t.Fatalf("EvictIdle evicted %d, want 4 (all but the pinned entry)", n)
	}
	if keys := c.Keys(); len(keys) != 1 || keys[0] != 4 {
		t.Fatalf("resident after idle eviction = %v, want [4]", keys)
	}
	h.Release()
	if h := c.PinBest(func(int, val) int { return 0 }); h != nil {
		t.Fatal("PinBest pinned an entry on all-zero scores")
	}
}

func TestEvictIdleSparesRecentlyUsed(t *testing.T) {
	c := New(Config[int, val]{})
	for key := 1; key <= 3; key++ {
		h, _ := c.Acquire(key, populateVal(key, 10, nil))
		h.Release()
	}
	mark := c.Clock()
	h, _ := c.Acquire(3, populateVal(3, 10, nil)) // touch 3 past the mark
	h.Release()
	if got := c.EvictIdle(mark); got != 2 {
		t.Fatalf("EvictIdle evicted %d, want 2", got)
	}
	if keys := c.Keys(); len(keys) != 1 || keys[0] != 3 {
		t.Fatalf("resident = %v, want [3]", keys)
	}
}

// TestStressInvariants floods the cache from many goroutines with mixed
// acquires, releases, invalidations and idle evictions (run under -race in
// CI). Invariants: a held handle always serves its own key's value, no ref
// survives the traffic, the bytes budget holds once everything is released,
// and the traffic counters conserve (every acquire is exactly one of
// hit / miss / populate-error).
func TestStressInvariants(t *testing.T) {
	const (
		workers   = 8
		perWorker = 400
		keySpace  = 24
		maxBytes  = 10 * 64 // room for ~10 of 24 keys
	)
	c := New(Config[int, val]{MaxBytes: maxBytes, MaxEntries: 16})
	var acquires, failures, leaderFailures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				key := rnd.Intn(keySpace)
				switch rnd.Intn(10) {
				case 0:
					c.Invalidate(func(k int) bool { return k == key })
				case 1:
					c.EvictIdle(c.Clock() - int64(keySpace))
				default:
					acquires.Add(1)
					fail := rnd.Intn(20) == 0
					h, err := c.Acquire(key, func() (val, int64, error) {
						if fail {
							leaderFailures.Add(1)
							return val{}, 0, errors.New("synthetic populate failure")
						}
						return val{key: key, bytes: 64}, 64, nil
					})
					if err != nil {
						// Either our own synthetic failure or a leader's; both
						// are accounted as populate errors.
						failures.Add(1)
						continue
					}
					if got := h.Value().key; got != key {
						t.Errorf("handle for key %d serves %d", key, got)
					}
					h.Release()
				}
			}
		}(w)
	}
	wg.Wait()
	if refs := c.PinnedRefs(); refs != 0 {
		t.Fatalf("%d refs still pinned after traffic stopped", refs)
	}
	s := c.Stats()
	if s.ResidentBytes > maxBytes {
		t.Fatalf("resident bytes %d over the %d budget at quiescence", s.ResidentBytes, maxBytes)
	}
	if s.Resident > 16 {
		t.Fatalf("resident %d over the 16-entry cap", s.Resident)
	}
	// Every acquire is exactly one of: hit, successful miss, failed leader
	// (counted as miss + populate-error), or failed waiter (populate-error
	// only) — so hits + misses + failed waiters must equal the acquires.
	failedWaiters := failures.Load() - leaderFailures.Load()
	if got := s.Hits + s.Misses + failedWaiters; got != acquires.Load() {
		t.Fatalf("hits(%d) + misses(%d) + failed waiters(%d) = %d, want %d acquires",
			s.Hits, s.Misses, failedWaiters, got, acquires.Load())
	}
	if s.PopulateErrors != failures.Load() {
		t.Fatalf("populate errors %d, but %d acquires returned errors", s.PopulateErrors, failures.Load())
	}
	// Sanity: the run exercised all three outcomes.
	if s.Hits == 0 || s.Misses == 0 || s.PopulateErrors == 0 {
		t.Fatalf("stress run missed an outcome class: %+v", s)
	}
}

// Eviction accounting must balance: everything that ever became resident is
// still resident, was evicted, or was invalidated.
func TestEvictionAccountingBalances(t *testing.T) {
	c := New(Config[int, val]{MaxEntries: 3})
	for key := 0; key < 10; key++ {
		h, err := c.Acquire(key, populateVal(key, 8, nil))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	c.Invalidate(func(k int) bool { return k == 9 })
	s := c.Stats()
	if got := int(s.Evictions+s.Invalidated) + s.Resident; got != 10 {
		t.Fatalf("evictions(%d) + invalidated(%d) + resident(%d) = %d, want 10",
			s.Evictions, s.Invalidated, s.Resident, got)
	}
	if s.ResidentBytes != int64(s.Resident)*8 {
		t.Fatalf("resident bytes %d disagree with %d resident × 8", s.ResidentBytes, s.Resident)
	}
}

func TestHandleDoubleReleaseIsNoOp(t *testing.T) {
	c := New(Config[int, val]{})
	h, err := c.Acquire(1, populateVal(1, 10, nil))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	h.Release()
	if refs := c.PinnedRefs(); refs != 0 {
		t.Fatalf("refs = %d after double release", refs)
	}
	// The entry is still acquirable and its refcount intact.
	h2, err := c.Acquire(1, func() (val, int64, error) {
		return val{}, 0, fmt.Errorf("must not repopulate")
	})
	if err != nil {
		t.Fatal(err)
	}
	h2.Release()
}

// Take hands over the unreferenced matches and reports the pinned ones with
// their values; Put re-publishes a value without counting a hit or a miss,
// and leaves a key that is already present alone.
func TestTakeAndPut(t *testing.T) {
	c := New(Config[int, val]{})
	for k := 1; k <= 3; k++ {
		h, err := c.Acquire(k, populateVal(k, 10, nil))
		if err != nil {
			t.Fatal(err)
		}
		if k != 2 {
			h.Release()
		} else {
			defer h.Release()
		}
	}
	taken, orphaned := c.Take(func(k int) bool { return k >= 2 })
	if len(taken) != 1 || taken[0].Key != 3 || taken[0].Value.key != 3 {
		t.Fatalf("taken %+v, want key 3 with its value", taken)
	}
	if len(orphaned) != 1 || orphaned[0].Key != 2 || orphaned[0].Value.key != 2 {
		t.Fatalf("orphaned %+v, want key 2 with its value", orphaned)
	}
	before := c.Stats()
	if !c.Put(4, taken[0].Value, 10) {
		t.Fatal("Put of an absent key did not publish")
	}
	if c.Put(1, val{key: 99}, 10) {
		t.Fatal("Put replaced a resident key")
	}
	h, err := c.Acquire(4, func() (val, int64, error) { return val{}, 0, errors.New("populated a put key") })
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if h.Value().key != 3 {
		t.Fatalf("put key serves %d, want the carried value 3", h.Value().key)
	}
	s := c.Stats()
	if s.Misses != before.Misses || s.Hits != before.Hits+1 || s.Resident != 2 || s.ResidentBytes != 20 {
		t.Fatalf("stats after Put and one Acquire: %+v (before %+v)", s, before)
	}
}
