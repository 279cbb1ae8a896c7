package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/index"
)

// This file is the engine's mutation entrypoint: ApplyDelta applies an edge
// delta to a served graph, bumps its mutation epoch, and repairs the
// resident walk indexes incrementally instead of dropping them for full
// rebuilds. The mutation path is the only writer of the engine's graphs
// map; the whole stale-state story hangs on two mechanisms acting together:
//
//   - The epoch rides in every derived identity. resolveParams snapshots
//     (graph, epoch) atomically under the graphs RLock, and the epoch flows
//     from params into the index cache key, the spill path, the
//     singleflight selection key and the memo key — so a request resolved
//     before a mutation computes consistently against the pre-mutation
//     graph, and a request resolved after can never hit a pre-mutation
//     artifact.
//
//   - Resident indexes are taken, repaired, and re-adopted under the
//     post-mutation key. Cache.TakeGraph transfers exclusive ownership of
//     the unpinned indexes (pinned ones are orphaned: their in-flight
//     readers finish on a consistent pre-mutation answer and the last
//     release frees them). Every displaced key's memoized D-tables are
//     then invalidated through the same linkage an index eviction uses —
//     before any repair, because a table reads through its index. Each
//     current-epoch index no surviving table pins is repaired in place
//     (internal/index.Repair regenerates only the walk rows the delta
//     touched) and re-adopted; anything else is dropped.

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
	// mutation by incremental repair; IndexesDropped the resident indexes
	// that could not be (pinned by in-flight reads, read through by a memo
	// table a degraded read still pins, built from raw walks, or at an
	// older epoch) and will rebuild on next use.
	IndexesRepaired int
	IndexesDropped  int
	// MemosDropped counts memoized D-tables invalidated because their
	// index identity is pre-mutation.
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
// Resident walk indexes for the graph are repaired in place when possible,
// so a mutation on a warm engine keeps it warm. Repair replays each walk
// that visits a touched node (the affected walks) on the old and new graph
// in lockstep, a few neighbour picks each, and edits index rows only for
// the walks whose trajectory actually diverges; the cost follows those
// walks, not the graph (index.Repair has the cost model).
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

	// Displace every resident index for this graph. Unpinned current-epoch
	// indexes are repaired and re-adopted under the post-mutation key;
	// everything else (pinned, walk-adopted, older-epoch stragglers) is
	// dropped and rebuilds on next use. Stale keys — repaired or not — lose
	// their memoized D-tables.
	taken, orphaned := e.cache.TakeGraph(name)
	staleKeys := make([]index.CacheKey, 0, len(taken)+len(orphaned))
	staleKeys = append(staleKeys, orphaned...)
	for _, t := range taken {
		staleKeys = append(staleKeys, t.Key)
	}
	// Drop the stale memo tables before any repair: afterwards no request
	// can reach a table over a taken index, and a taken index that a
	// still-pinned table (a degraded read) reads through is dropped, not
	// repaired under that reader.
	var pinned map[*index.Index]bool
	if e.memo != nil {
		res.MemosDropped, pinned = e.memo.dropIndexes(staleKeys)
	}
	res.IndexesDropped = len(orphaned)
	for _, t := range taken {
		if t.Key.Epoch == g.Epoch() && !pinned[t.Index] && t.Index.Repair(ng, touched) == nil {
			newKey := t.Key
			newKey.Epoch = ng.Epoch()
			if e.cache.Adopt(newKey, t.Index) == nil {
				res.IndexesRepaired++
				continue
			}
		}
		res.IndexesDropped++
	}

	e.graphs[name] = ng
	return res, nil
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
