package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Graph mutation. Graphs stay immutable values: ApplyDelta is copy-on-write,
// returning a new *Graph one epoch newer and leaving the receiver untouched,
// so in-flight readers of the old graph are never disturbed and the old and
// new versions can coexist (the engine serves requests that began before a
// mutation from the old snapshot). The returned touched-node list is the
// contract the incremental walk-index repair builds on: a node is touched
// iff its adjacency row changed, and a random walk's trajectory depends
// only on the adjacency rows of the nodes it visits — so any walk whose old
// trajectory avoids every touched node replays bit-identically on the new
// graph and needs no repair.

// Mutation errors. ErrEdgeExists and ErrEdgeMissing are conflicts with the
// current graph state (the delta may be valid against a different epoch);
// the remaining validation failures reuse the construction errors
// (ErrNodeRange, ErrSelfLoop, ErrBadWeight).
var (
	ErrEdgeExists    = errors.New("graph: edge already exists")
	ErrEdgeMissing   = errors.New("graph: edge does not exist")
	ErrDuplicateEdge = errors.New("graph: edge appears more than once in delta")
)

// Edge names one edge (undirected) or arc (directed) of a Delta. W is the
// edge weight for additions to weighted graphs; zero means "default"
// (weight 1). Unweighted graphs reject any other weight — a delta cannot
// turn an unweighted graph weighted. W is ignored on removals.
type Edge struct {
	U, V int
	W    float64
}

// Delta is one atomic batch of graph mutations: removals are validated and
// applied together with additions and node growth, and the whole batch
// advances the epoch by exactly one. New nodes get the next AddNodes dense
// IDs [N, N+AddNodes); edges in AddEdges may reference them.
type Delta struct {
	// AddNodes appends this many fresh (initially isolated) nodes.
	AddNodes int
	// AddEdges are edges to insert. Each must be absent from the graph and
	// must appear at most once in the delta (an undirected pair counts both
	// orientations as the same edge).
	AddEdges []Edge
	// RemoveEdges are edges to delete. Each must be present in the graph.
	RemoveEdges []Edge
}

// Empty reports whether the delta mutates nothing.
func (d Delta) Empty() bool {
	return d.AddNodes == 0 && len(d.AddEdges) == 0 && len(d.RemoveEdges) == 0
}

// pairKey canonicalizes an edge for duplicate detection: undirected pairs
// are unordered.
func pairKey(kind Kind, u, v int) [2]int {
	if kind == Undirected && u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// rowDelta collects one node's adjacency-row changes.
type rowDelta struct {
	add    []int32
	addW   []float64
	remove []int32
}

// ApplyDelta validates d against g and returns the mutated graph (epoch
// g.Epoch()+1) plus the sorted list of touched nodes — nodes whose
// adjacency row changed (both endpoints for undirected edges, the tail for
// directed arcs; freshly added nodes count as touched when they receive
// edges). g itself is never modified. On any validation failure nothing is
// applied: the delta is all-or-nothing.
//
// Cost: O(n + m) to copy the CSR arrays plus O(Δ log Δ) for the delta
// itself; weighted graphs additionally rebuild the cumulative-weight and
// alias tables (O(m)). The array copy is a contiguous memcpy — cheap next
// to the walk regeneration the caller typically performs afterwards.
func (g *Graph) ApplyDelta(d Delta) (*Graph, []int, error) {
	if d.AddNodes < 0 {
		return nil, nil, fmt.Errorf("graph: AddNodes=%d: %w", d.AddNodes, ErrNegativeN)
	}
	// Node ids are stored as int32. Checked before anything is sized by
	// the new node count, and written so the sum cannot overflow int.
	if d.AddNodes > math.MaxInt32-g.n {
		return nil, nil, fmt.Errorf("graph: AddNodes=%d with n=%d exceeds %d nodes: %w", d.AddNodes, g.n, math.MaxInt32, ErrNodeRange)
	}
	newN := g.n + d.AddNodes

	seen := make(map[[2]int]struct{}, len(d.AddEdges)+len(d.RemoveEdges))
	note := func(u, v int) error {
		k := pairKey(g.kind, u, v)
		if _, dup := seen[k]; dup {
			return fmt.Errorf("graph: edge (%d,%d): %w", u, v, ErrDuplicateEdge)
		}
		seen[k] = struct{}{}
		return nil
	}

	rows := make(map[int]*rowDelta)
	row := func(u int) *rowDelta {
		rd := rows[u]
		if rd == nil {
			rd = &rowDelta{}
			rows[u] = rd
		}
		return rd
	}

	for _, e := range d.RemoveEdges {
		if e.U < 0 || e.U >= g.n || e.V < 0 || e.V >= g.n {
			return nil, nil, fmt.Errorf("graph: remove (%d,%d) with n=%d: %w", e.U, e.V, g.n, ErrNodeRange)
		}
		if e.U == e.V {
			return nil, nil, fmt.Errorf("graph: remove (%d,%d): %w", e.U, e.V, ErrSelfLoop)
		}
		if err := note(e.U, e.V); err != nil {
			return nil, nil, err
		}
		if !g.HasEdge(e.U, e.V) {
			return nil, nil, fmt.Errorf("graph: remove (%d,%d): %w", e.U, e.V, ErrEdgeMissing)
		}
		row(e.U).remove = append(row(e.U).remove, int32(e.V))
		if g.kind == Undirected {
			row(e.V).remove = append(row(e.V).remove, int32(e.U))
		}
	}
	for _, e := range d.AddEdges {
		if e.U < 0 || e.U >= newN || e.V < 0 || e.V >= newN {
			return nil, nil, fmt.Errorf("graph: add (%d,%d) with n=%d (+%d new): %w", e.U, e.V, g.n, d.AddNodes, ErrNodeRange)
		}
		if e.U == e.V {
			return nil, nil, fmt.Errorf("graph: add (%d,%d): %w", e.U, e.V, ErrSelfLoop)
		}
		w := e.W
		if w == 0 {
			w = 1
		}
		if w < 0 || (!g.Weighted() && w != 1) {
			return nil, nil, fmt.Errorf("graph: add (%d,%d) weight %v on %s graph: %w", e.U, e.V, e.W, map[bool]string{true: "weighted", false: "unweighted"}[g.Weighted()], ErrBadWeight)
		}
		if err := note(e.U, e.V); err != nil {
			return nil, nil, err
		}
		if e.U < g.n && g.HasEdge(e.U, e.V) {
			return nil, nil, fmt.Errorf("graph: add (%d,%d): %w", e.U, e.V, ErrEdgeExists)
		}
		rd := row(e.U)
		rd.add = append(rd.add, int32(e.V))
		rd.addW = append(rd.addW, w)
		if g.kind == Undirected {
			rd = row(e.V)
			rd.add = append(rd.add, int32(e.U))
			rd.addW = append(rd.addW, w)
		}
	}

	ng := &Graph{
		kind:  g.kind,
		n:     newN,
		m:     g.m + len(d.AddEdges) - len(d.RemoveEdges),
		epoch: g.epoch + 1,
	}

	// New degrees, then the CSR prefix.
	ng.offsets = make([]int32, newN+1)
	for u := 0; u < newN; u++ {
		deg := 0
		if u < g.n {
			deg = g.Degree(u)
		}
		if rd := rows[u]; rd != nil {
			deg += len(rd.add) - len(rd.remove)
		}
		ng.offsets[u+1] = ng.offsets[u] + int32(deg)
	}
	total := int(ng.offsets[newN])
	ng.adj = make([]int32, total)
	if g.Weighted() {
		ng.weights = make([]float64, total)
	}

	for u := 0; u < newN; u++ {
		dst := int(ng.offsets[u])
		rd := rows[u]
		if rd == nil {
			if u < g.n {
				lo, hi := g.offsets[u], g.offsets[u+1]
				copy(ng.adj[dst:], g.adj[lo:hi])
				if ng.weights != nil {
					copy(ng.weights[dst:], g.weights[lo:hi])
				}
			}
			continue
		}
		// Merge: old row minus removals, plus additions, kept sorted.
		removed := make(map[int32]struct{}, len(rd.remove))
		for _, v := range rd.remove {
			removed[v] = struct{}{}
		}
		if u < g.n {
			lo, hi := g.offsets[u], g.offsets[u+1]
			for i := lo; i < hi; i++ {
				if _, drop := removed[g.adj[i]]; drop {
					continue
				}
				ng.adj[dst] = g.adj[i]
				if ng.weights != nil {
					ng.weights[dst] = g.weights[i]
				}
				dst++
			}
		}
		for i, v := range rd.add {
			ng.adj[dst] = v
			if ng.weights != nil {
				ng.weights[dst] = rd.addW[i]
			}
			dst++
		}
		lo, hi := ng.offsets[u], ng.offsets[u+1]
		if ng.weights == nil {
			rowSlice := ng.adj[lo:hi]
			sort.Slice(rowSlice, func(i, j int) bool { return rowSlice[i] < rowSlice[j] })
		} else {
			sort.Sort(&rowSorter{ng.adj[lo:hi], ng.weights[lo:hi]})
		}
	}

	if ng.weights != nil {
		// Per-row prefixes, then the global running conversion — exactly the
		// builder's construction so mutated and rebuilt graphs match
		// bit-for-bit.
		ng.cumWeights = make([]float64, total)
		for u := 0; u < newN; u++ {
			lo, hi := ng.offsets[u], ng.offsets[u+1]
			sum := 0.0
			for i := lo; i < hi; i++ {
				sum += ng.weights[i]
				ng.cumWeights[i] = sum
			}
		}
		running := 0.0
		for u := 0; u < newN; u++ {
			lo, hi := ng.offsets[u], ng.offsets[u+1]
			for i := lo; i < hi; i++ {
				ng.cumWeights[i] += running
			}
			if hi > lo {
				running = ng.cumWeights[hi-1]
			}
		}
		ng.buildAliasTables()
	}

	touched := make([]int, 0, len(rows))
	for u := range rows {
		touched = append(touched, u)
	}
	sort.Ints(touched)
	return ng, touched, nil
}
