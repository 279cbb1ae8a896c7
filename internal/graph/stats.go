package graph

import (
	"fmt"
	"math"
	"sort"
)

// Stats summarizes degree and connectivity statistics of a graph. It backs
// the Table 2 dataset summary and the dataset stand-in calibration tests.
type Stats struct {
	Nodes        int
	Edges        int
	MinDegree    int
	MaxDegree    int
	MeanDegree   float64
	MedianDegree float64
	DegreeGini   float64 // Gini coefficient of the degree distribution
	Components   int
	LargestComp  int
	Isolated     int
}

// ComputeStats collects the statistics in a single pass plus a component
// labeling.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Nodes: g.n, Edges: g.m, MinDegree: math.MaxInt}
	degs := make([]int, g.n)
	sum := 0
	for u := 0; u < g.n; u++ {
		d := g.Degree(u)
		degs[u] = d
		sum += d
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d == 0 {
			s.Isolated++
		}
	}
	if g.n == 0 {
		s.MinDegree = 0
		return s
	}
	s.MeanDegree = float64(sum) / float64(g.n)
	sort.Ints(degs)
	if g.n%2 == 1 {
		s.MedianDegree = float64(degs[g.n/2])
	} else {
		s.MedianDegree = float64(degs[g.n/2-1]+degs[g.n/2]) / 2
	}
	s.DegreeGini = gini(degs)
	labels, count := g.ConnectedComponents()
	s.Components = count
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	for _, sz := range sizes {
		if sz > s.LargestComp {
			s.LargestComp = sz
		}
	}
	return s
}

// gini computes the Gini coefficient of a sorted non-negative sample.
// 0 means perfectly uniform degrees; values near 1 mean extreme skew.
// Power-law graphs land noticeably higher than Erdős–Rényi graphs of the
// same density, which the dataset stand-in tests assert.
func gini(sorted []int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	var cum, total float64
	for i, v := range sorted {
		cum += float64(i+1) * float64(v)
		total += float64(v)
	}
	if total == 0 {
		return 0
	}
	return (2*cum/(float64(n)*total) - float64(n+1)/float64(n))
}

// String renders the stats as a single line suitable for dataset tables.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d m=%d deg[min=%d med=%.0f mean=%.2f max=%d gini=%.3f] comps=%d largest=%d isolated=%d",
		s.Nodes, s.Edges, s.MinDegree, s.MedianDegree, s.MeanDegree, s.MaxDegree, s.DegreeGini,
		s.Components, s.LargestComp, s.Isolated)
}

// TopKByDegree returns the k nodes with the highest degree, ties broken by
// lower node id, in descending degree order. This is exactly the paper's
// Degree baseline selection.
func (g *Graph) TopKByDegree(k int) []int {
	if k > g.n {
		k = g.n
	}
	ids := make([]int, g.n)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := g.Degree(ids[a]), g.Degree(ids[b])
		if da != db {
			return da > db
		}
		return ids[a] < ids[b]
	})
	return ids[:k]
}
