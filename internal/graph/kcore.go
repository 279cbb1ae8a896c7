package graph

import "sort"

// CoreNumbers returns the k-core number of every node: the largest k such
// that the node belongs to a subgraph in which every node has degree >= k.
// Computed with the standard O(n + m) bucket peeling algorithm (Batagelj &
// Zaversnik). Core numbers are a robustness-aware alternative to raw degree
// for seed selection: a high-degree node whose neighbors are all leaves has
// a low core number.
func (g *Graph) CoreNumbers() []int {
	n := g.n
	deg := make([]int, n)
	maxDeg := 0
	for u := 0; u < n; u++ {
		deg[u] = g.Degree(u)
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}
	// Bucket sort nodes by degree.
	binStart := make([]int, maxDeg+2)
	for _, d := range deg {
		binStart[d+1]++
	}
	for d := 1; d <= maxDeg+1; d++ {
		binStart[d] += binStart[d-1]
	}
	pos := make([]int, n)  // position of node in vert
	vert := make([]int, n) // nodes sorted by current degree
	fill := make([]int, maxDeg+1)
	copy(fill, binStart[:maxDeg+1])
	for u := 0; u < n; u++ {
		p := fill[deg[u]]
		pos[u] = p
		vert[p] = u
		fill[deg[u]]++
	}
	// bin[d] = index of the first node with degree d in vert.
	bin := make([]int, maxDeg+1)
	copy(bin, binStart[:maxDeg+1])

	core := make([]int, n)
	copy(core, deg)
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, wi := range g.Neighbors(v) {
			w := int(wi)
			if core[w] > core[v] {
				dw := core[w]
				pw := pos[w]
				// Swap w with the first node of its degree bucket, then
				// shrink the bucket boundary and decrement.
				ps := bin[dw]
				s := vert[ps]
				if s != w {
					vert[ps], vert[pw] = w, s
					pos[w], pos[s] = ps, pw
				}
				bin[dw]++
				core[w]--
			}
		}
	}
	return core
}

// TopKByCore returns the k nodes with the highest core number, ties broken
// by higher degree then lower node id — the "Core" baseline: like Degree
// but robust to locally star-like hubs.
func (g *Graph) TopKByCore(k int) []int {
	if k > g.n {
		k = g.n
	}
	core := g.CoreNumbers()
	ids := make([]int, g.n)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		ca, cb := core[ids[a]], core[ids[b]]
		if ca != cb {
			return ca > cb
		}
		da, db := g.Degree(ids[a]), g.Degree(ids[b])
		if da != db {
			return da > db
		}
		return ids[a] < ids[b]
	})
	return ids[:k]
}
