package index

import (
	"fmt"
)

// This file holds the memoized read-path machinery the query-serving daemon
// builds on: per-problem empty-set gain vectors computed straight off the
// index (no D-table at all), and cheap state transfer between D-tables
// (Snapshot/ExtendFrom) so a table replayed for a set S can be extended to
// S ∪ Δ without replaying S.

// emptySlot maps a Problem to its memo slot in the Index.
func emptySlot(p Problem) (int, error) {
	switch p {
	case Problem1:
		return 0, nil
	case Problem2:
		return 1, nil
	default:
		return 0, fmt.Errorf("index: unknown problem %d", int(p))
	}
}

// emptySumInt computes the empty-set integer gain sum of node u, the kernel
// behind EmptySetGainSums (and through it EmptySetGains): the D-table gain
// kernel with d ≡ L (Problem 1) or d ≡ 0 (Problem 2) folded in, reading the
// node's R rows through nodeRows like every other row kernel.
func (ix *Index) emptySumInt(p Problem, u int) int64 {
	if ix.parts != nil {
		// Per-chunk accumulators start from the chunk's own width (R_c·L or
		// R_c), so they sum to the flat accumulator exactly: Σ R_c = R.
		var acc int64
		for _, pt := range ix.parts {
			acc += pt.emptySumInt(p, u)
		}
		return acc
	}
	r := int64(ix.r)
	l := int64(ix.l)
	lo, hi, _, hops := ix.nodeRows(u)
	if p == Problem2 {
		// d ≡ 0: the node's own rows contribute R, and every index entry is
		// a not-yet-dominated source walk.
		acc := r
		for i := range lo {
			acc += hi[i] - lo[i]
		}
		return acc
	}
	// d ≡ L: the node's own rows contribute R·L, and every index entry with
	// hop < L improves its source's hitting time by L − hop.
	acc := r * l
	for i := range lo {
		for _, hop := range hops[lo[i]:hi[i]] {
			if int64(hop) < l {
				acc += l - int64(hop)
			}
		}
	}
	return acc
}

// EmptySetGains returns the marginal gain of every node against the empty
// set — Gain(u) of a fresh D-table — computed directly from the index
// entries without materializing any n·R table. The vector is derived once
// per problem from the memoized EmptySetGainSums and memoized on the index
// until the next Repair drops it (one division per node re-derives it from
// the patched sums), so steady-state calls are free; it is safe for
// concurrent callers. The returned slice is shared and must not be
// modified.
//
// Values are bit-for-bit identical to NewDTable(p).Gain(u): both accumulate
// the same integer sum over u's replicate span and divide by R last.
func (ix *Index) EmptySetGains(p Problem) ([]float64, error) {
	slot, err := emptySlot(p)
	if err != nil {
		return nil, err
	}
	ix.emptyMu.Lock()
	defer ix.emptyMu.Unlock()
	if ix.emptyGains[slot] == nil {
		sums := ix.emptySumsLocked(p, slot)
		gains := make([]float64, len(sums))
		fr := float64(ix.r)
		for u, s := range sums {
			gains[u] = float64(s) / fr
		}
		ix.emptyGains[slot] = gains
	}
	return ix.emptyGains[slot], nil
}

// EmptySetGainSums is EmptySetGains in the integer domain: the gain sum of
// every node against the empty set, before the division by R. The vector is
// computed once per problem and memoized on the index; Repair patches it in
// place from the entries it edits (so a delta costs O(edits), not a
// rescan), which makes the returned slice valid only while the caller keeps
// the index from being repaired. It is shared and must not be modified. The
// greedy oracle of core.ApproxWithIndex answers round 1 of every select
// from it (each entry divided by R is exactly DTable.Gain on a fresh
// table). By submodularity each entry bounds the node's gain sum against
// every set, which is what lets core.TopGains stop early. It is also the
// empty-set fast path of the partial (replicate-sharded) read surface,
// where answers stay integral so the coordinator can merge shard ranges
// exactly.
func (ix *Index) EmptySetGainSums(p Problem) ([]int64, error) {
	slot, err := emptySlot(p)
	if err != nil {
		return nil, err
	}
	ix.emptyMu.Lock()
	defer ix.emptyMu.Unlock()
	return ix.emptySumsLocked(p, slot), nil
}

// emptySumsLocked returns the memoized empty-set sums of p, computing them
// on first use; ix.emptyMu must be held.
func (ix *Index) emptySumsLocked(p Problem, slot int) []int64 {
	if ix.emptySums[slot] == nil {
		sums := make([]int64, ix.g.N())
		for u := range sums {
			sums[u] = ix.emptySumInt(p, u)
		}
		ix.emptySums[slot] = sums
	}
	return ix.emptySums[slot]
}

// growEmptySums readies the memoized empty-set sums for a Repair to n
// nodes and returns them for mergeEdits to patch (nil slots were never
// computed and stay so). An added node starts from its own rows' term — R·L
// for Problem 1, R for Problem 2 — with no entries yet; the edits that fill
// its rows, and every other row the delta changed, add the rest. The float
// view is dropped: EmptySetGains re-derives it from the sums.
func (ix *Index) growEmptySums(n int) [2][]int64 {
	ix.emptyMu.Lock()
	defer ix.emptyMu.Unlock()
	base := [2]int64{int64(ix.r) * int64(ix.l), int64(ix.r)}
	for s, sums := range ix.emptySums {
		for sums != nil && len(sums) < n {
			sums = append(sums, base[s])
		}
		ix.emptySums[s] = sums
	}
	ix.emptyGains = [2][]float64{}
	return ix.emptySums
}

// resetEmptyMemos drops the memoized empty-set vectors; ExtendReplicates
// calls it because a new chunk adds entries no edit describes.
func (ix *Index) resetEmptyMemos() {
	ix.emptyMu.Lock()
	ix.emptyGains = [2][]float64{}
	ix.emptySums = [2][]int64{}
	ix.emptyMu.Unlock()
}

// EmptySetObjectiveSum returns the integer objective accumulator of the
// empty set — what DTable.ObjectiveSum reports on a fresh table: n·R·L for
// Problem 1 (every replicate row holds L), 0 for Problem 2.
func (ix *Index) EmptySetObjectiveSum(p Problem) (int64, error) {
	if _, err := emptySlot(p); err != nil {
		return 0, err
	}
	if p == Problem1 {
		return int64(ix.g.N()) * int64(ix.r) * int64(ix.l), nil
	}
	return 0, nil
}

// EmptySetObjective returns the estimated objective of the empty set — what
// EstimateObjective reports on a fresh D-table — without materializing one.
// (Both objectives are 0 by construction; the value is computed with the
// same floating-point operations as the D-table path so the two read paths
// stay bit-for-bit identical.)
func (ix *Index) EmptySetObjective(p Problem) (float64, error) {
	sum, err := ix.EmptySetObjectiveSum(p)
	if err != nil {
		return 0, err
	}
	return ix.ObjectiveOf(p, sum), nil
}

// Snapshot is a read-only view of a D-table's state at a point in time,
// the source side of ExtendFrom. It aliases the table's storage rather than
// copying it: taking one is O(1), and it remains valid only until the next
// mutation (Update, ExtendFrom or Repair) of the source table. ExtendFrom rejects
// an invalidated snapshot.
//
// The memoized gain cache in internal/server relies on exactly this
// shape: cached tables are frozen after population, so their snapshots stay
// valid indefinitely and extending one to a superset set costs a single
// array copy plus the delta replay — never a replay of the whole set.
type Snapshot struct {
	src  *DTable
	muts uint64
}

// Snapshot returns a read-only view of the table's current state. See the
// Snapshot type for the aliasing/validity contract.
func (t *DTable) Snapshot() *Snapshot {
	return &Snapshot{src: t, muts: t.muts}
}

// Size returns |S| of the snapshotted state.
func (s *Snapshot) Size() int { return s.src.size }

// Problem returns the objective the snapshotted table tracks.
func (s *Snapshot) Problem() Problem { return s.src.problem }

// ExtendFrom replaces t's state with the snapshot's and then folds each
// node of extra in (Algorithm 5), so t becomes the table for
// S_snapshot ∪ extra without replaying S_snapshot. t must belong to the
// same index and problem as the snapshot's source, and the snapshot must
// still be valid (no mutation of its source since it was taken).
func (t *DTable) ExtendFrom(s *Snapshot, extra ...int) error {
	if s == nil || s.src == nil {
		return fmt.Errorf("index: ExtendFrom of nil snapshot")
	}
	if s.src.ix != t.ix {
		return fmt.Errorf("index: ExtendFrom across indexes")
	}
	if s.src.problem != t.problem {
		return fmt.Errorf("index: ExtendFrom across problems (%v vs %v)", s.src.problem, t.problem)
	}
	if s.muts != s.src.muts {
		return fmt.Errorf("index: snapshot invalidated by %d later mutation(s) of its source", s.src.muts-s.muts)
	}
	if t != s.src {
		if t.tabs != nil || s.src.tabs != nil {
			// Chunked tables transfer column by column; both sides must hold
			// the same chunk set (a SyncChunks on either side bumps muts, so
			// width drift is caught here or by the snapshot check above).
			if len(t.tabs) != len(s.src.tabs) {
				return fmt.Errorf("index: ExtendFrom across chunk widths (%d vs %d chunks)", len(t.tabs), len(s.src.tabs))
			}
			for i, st := range s.src.tabs {
				dt := t.tabs[i]
				copy(dt.d, st.d)
				if dt.sat != nil {
					copy(dt.sat, st.sat)
				}
				dt.sel = append(dt.sel[:0], st.sel...)
				dt.size = st.size
			}
			t.sel = append(t.sel[:0], s.src.sel...)
		} else {
			copy(t.d, s.src.d)
			if t.sat != nil {
				copy(t.sat, s.src.sat)
			}
			t.sel = append(t.sel[:0], s.src.sel...)
		}
		t.size = s.src.size
	}
	t.muts++
	for _, u := range extra {
		t.Update(u)
	}
	return nil
}

// Index returns the index the table reads.
func (t *DTable) Index() *Index { return t.ix }

// ObjectiveDelta returns the change the last Repair that patched the table
// made to its integer objective sum — ObjectiveSum over the table's own set
// — so a holder of the old sum can advance it without a rescan. It is 0 for
// a table no Repair has patched.
func (t *DTable) ObjectiveDelta() int64 { return t.objDelta }

// MemoryBytes reports the approximate heap footprint of the table, used by
// the serving layer's memo cache for /stats accounting.
func (t *DTable) MemoryBytes() int64 {
	total := int64(len(t.d))*2 + int64(len(t.sat)) + int64(len(t.sel))*8
	for _, tb := range t.tabs {
		total += tb.MemoryBytes()
	}
	return total
}
