package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/index"
)

// This file is the engine's mutation entrypoint: ApplyDelta applies an edge
// delta to a served graph, bumps its mutation epoch, and carries the
// resident walk indexes — with the memoized D-tables and empty-set sums
// derived from them — across it by incremental repair instead of dropping
// them for full rebuilds. The mutation path is the only writer of the
// engine's graphs map; the whole stale-state story hangs on two mechanisms
// acting together:
//
//   - The epoch rides in every derived identity. resolveParams snapshots
//     (graph, epoch) atomically under the graphs RLock, and the epoch flows
//     from params into the index cache key, the spill path, the
//     singleflight selection key and the memo key — so a request resolved
//     before a mutation computes consistently against the pre-mutation
//     graph, and a request resolved after can never hit a pre-mutation
//     artifact.
//
//   - Resident indexes and their tables are taken out of both caches,
//     repaired, and published again under the post-mutation key.
//     Cache.TakeGraph hands over the indexes; the memo cache hands over
//     every table under a displaced key. A table an in-flight read pins is
//     orphaned (its reader finishes on a consistent pre-mutation answer,
//     and the last release frees it); every other table is unreachable from
//     then on and is passed to its index's Repair (internal/index), which
//     replays only the walks the delta touched, patches the index's rows
//     and empty-set sums from them, and rewrites the tables' entries for
//     the walks that diverged. An index nothing pins is repaired in place.
//     One a read pins — through its own handle, or through a pinned table
//     that reads through it — is never mutated: ApplyDelta repairs a
//     private Copy and adopts that, and the readers keep the original.
//     Only indexes Repair refuses (built from raw walks, or at an older
//     epoch) are dropped, with their tables.

// ApplyDeltaRequest asks for a graph mutation. Graph may be empty when the
// engine serves exactly one graph.
type ApplyDeltaRequest struct {
	Graph string
	// Delta is the mutation: nodes to append, edges to add, edges to
	// remove. Validation is all-or-nothing (graph.ApplyDelta).
	Delta graph.Delta
	// BaseEpoch, when non-nil, makes the mutation conditional: it applies
	// only if the graph's current epoch still equals *BaseEpoch, failing
	// with CodeConflict otherwise. This is optimistic concurrency for
	// read-modify-write callers; unconditional mutations leave it nil.
	BaseEpoch *uint64
}

// ApplyDeltaResult reports one applied mutation.
type ApplyDeltaResult struct {
	// Epoch is the graph's new mutation epoch (monotone, one per applied
	// delta). Readers that pin this epoch are guaranteed post-mutation
	// answers; shard coordinators broadcast it to their workers.
	Epoch uint64
	// Nodes and Edges are the post-mutation graph dimensions.
	Nodes int
	Edges int
	// Touched is the number of nodes whose adjacency the delta changed.
	Touched int
	// IndexesRepaired counts resident walk indexes carried across the
	// mutation by incremental repair (in place, or on a copy when an
	// in-flight read pins the index); IndexesDropped the resident indexes
	// that could not be (built from raw walks, or at an older epoch) and
	// will rebuild on next use.
	IndexesRepaired int
	IndexesDropped  int
	// MemosDropped counts memoized D-tables discarded by the mutation:
	// those an in-flight read pinned, and those over an index that was
	// dropped. Tables patched and carried to the post-mutation key are not
	// counted.
	MemosDropped int
}

// ApplyDelta applies a delta to the named graph. The mutation is
// copy-on-write — in-flight requests that already resolved their graph
// snapshot finish against the pre-mutation state, bit-identically — and
// serialized: concurrent ApplyDeltas are ordered by the engine, each
// observing its predecessor's epoch. Structural conflicts (adding an edge
// that exists, removing one that doesn't, a stale BaseEpoch) fail with
// CodeConflict and apply nothing.
//
// Resident walk indexes for the graph are repaired, so a mutation on a
// warm engine keeps it warm: the indexes, their memoized empty-set sums and
// their memoized D-tables all answer at the new epoch without a rescan.
// Repair replays each walk that visits a touched node (the affected walks)
// on the old and new graph in lockstep, a few neighbour picks each, and
// edits index rows, sums and table entries only for the walks whose
// trajectory actually diverges; the cost follows those walks, not the
// graph (index.Repair has the cost model), plus a copy of the index when a
// read pins it.
//
// ctx is accepted for surface symmetry with the rest of the public API but
// not consulted: an admitted mutation is quick — an 8-edge delta on a
// 5000-node power-law graph repairs an L=6, R=50 index in about 4 ms,
// against about 65 ms for a rebuild — and must be all-or-nothing: aborting
// halfway would leave caches and graph out of step. Reads that have not yet resolved
// their graph snapshot wait on graphsMu while the repair holds it.
func (e *Engine) ApplyDelta(ctx context.Context, req ApplyDeltaRequest) (*ApplyDeltaResult, error) {
	name := e.soleGraphName(req.Graph)
	if req.Delta.Empty() {
		return nil, badRequestf("empty delta")
	}

	e.graphsMu.Lock()
	defer e.graphsMu.Unlock()

	g, ok := e.graphs[name]
	if !ok {
		return nil, &Error{Code: CodeNotFound, Message: fmt.Sprintf("unknown graph %q", name)}
	}
	if req.BaseEpoch != nil && *req.BaseEpoch != g.Epoch() {
		return nil, &Error{
			Code:    CodeConflict,
			Message: fmt.Sprintf("graph %q is at epoch %d, request expected %d", name, g.Epoch(), *req.BaseEpoch),
		}
	}
	ng, touched, err := g.ApplyDelta(req.Delta)
	if err != nil {
		if errors.Is(err, graph.ErrEdgeExists) || errors.Is(err, graph.ErrEdgeMissing) {
			return nil, &Error{Code: CodeConflict, Message: err.Error(), cause: err}
		}
		return nil, &Error{Code: CodeBadRequest, Message: err.Error(), cause: err}
	}

	res := &ApplyDeltaResult{
		Epoch:   ng.Epoch(),
		Nodes:   ng.N(),
		Edges:   ng.M(),
		Touched: len(touched),
	}

	// Displace every resident index for this graph, and every table
	// memoized over one, before any repair: afterwards no request can reach
	// a displaced index or an unpinned table.
	taken, pinned := e.cache.TakeGraph(name)
	staleKeys := make([]index.CacheKey, 0, len(taken)+len(pinned))
	for _, t := range slices.Concat(taken, pinned) {
		staleKeys = append(staleKeys, t.Key)
	}
	var tables, readTables []cache.Entry[memoKey, memoValue]
	if e.memo != nil {
		tables, readTables = e.memo.take(staleKeys)
	}
	// A pinned table stays with its reader, as does the index instance it
	// reads through.
	res.MemosDropped = len(readTables)
	read := make(map[*index.Index]bool, len(pinned)+len(readTables))
	for _, t := range pinned {
		read[t.Index] = true
	}
	for _, t := range readTables {
		read[t.Key.ix] = true
	}
	carried := make(map[*index.Index][]cache.Entry[memoKey, memoValue])
	for _, t := range tables {
		carried[t.Key.ix] = append(carried[t.Key.ix], t)
	}
	for _, t := range slices.Concat(taken, pinned) {
		tabs := carried[t.Index]
		delete(carried, t.Index)
		if t.Key.Epoch == g.Epoch() && e.carry(t, read[t.Index], tabs, ng, touched) {
			res.IndexesRepaired++
			continue
		}
		res.IndexesDropped++
		res.MemosDropped += len(tabs)
	}
	// Tables over an instance neither cache still held (one a read rebuilt
	// while the old one was being displaced) go with it.
	for _, tabs := range carried {
		res.MemosDropped += len(tabs)
	}

	e.graphs[name] = ng
	return res, nil
}

// carry repairs the displaced index t, with the memo tables taken over it,
// to ng and publishes both under the post-mutation key. An index a read
// still holds (read) is copied first, and the copy is repaired and adopted.
// It reports false, publishing nothing, when the index cannot be repaired;
// its tables are then unreachable and go with it.
func (e *Engine) carry(t index.TakenIndex, read bool, tabs []cache.Entry[memoKey, memoValue], ng *graph.Graph, touched []int) bool {
	ds := make([]*index.DTable, len(tabs))
	for i, tb := range tabs {
		ds[i] = tb.Value.d
	}
	ix := t.Index
	if read {
		// Rebuilding costs far more than copying: a read on the original
		// keeps its answers, and new reads get the repaired copy. (An index
		// Repair refuses is copied for nothing, but none is on a hot path.)
		var err error
		if ix, err = ix.Copy(ds...); err != nil {
			return false
		}
	}
	if ix.Repair(ng, touched, ds...) != nil {
		return false
	}
	key := t.Key
	key.Epoch = ng.Epoch()
	for _, tb := range tabs {
		v := tb.Value
		v.objSum += v.d.ObjectiveDelta()
		v.objective = ix.ObjectiveOf(tb.Key.problem, v.objSum)
		v.top = &topMemo{}
		mk := tb.Key
		mk.idx, mk.ix = key, ix
		e.memo.put(mk, v)
	}
	if e.cache.Adopt(key, ix) != nil {
		if e.memo != nil {
			e.memo.invalidate([]index.CacheKey{key})
		}
		return false
	}
	return true
}

// epochGuard rejects a read pinned to an epoch the graph has moved past
// (or hasn't reached — a laggard worker behind a coordinator that already
// mutated must not answer from pre-mutation state either). Shard scatters
// carry the coordinator's epoch so a mid-round mutation surfaces as a
// typed retryable CodeStaleEpoch instead of a silently mixed-epoch merge.
func epochGuard(p params, want *uint64) error {
	if want == nil || *want == p.epoch {
		return nil
	}
	return &Error{
		Code:    CodeStaleEpoch,
		Message: fmt.Sprintf("graph %q is at epoch %d, request pinned epoch %d", p.graphName, p.epoch, *want),
	}
}
