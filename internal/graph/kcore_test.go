package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestCoreNumbersKnownGraphs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
		want []int
	}{
		{"path4", mustGen(Path(4)), []int{1, 1, 1, 1}},
		{"cycle5", mustGen(Cycle(5)), []int{2, 2, 2, 2, 2}},
		{"K4", mustGen(Complete(4)), []int{3, 3, 3, 3}},
		{"star5", mustGen(Star(5)), []int{1, 1, 1, 1, 1}},
		{"triangle+pendant", MustFromEdgeList(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}}), []int{2, 2, 2, 1}},
	} {
		got := tc.g.CoreNumbers()
		for u := range tc.want {
			if got[u] != tc.want[u] {
				t.Errorf("%s: core[%d] = %d, want %d", tc.name, u, got[u], tc.want[u])
			}
		}
	}
}

func TestCoreNumberIsolated(t *testing.T) {
	g := MustFromEdgeList(3, [][2]int{{0, 1}})
	core := g.CoreNumbers()
	if core[2] != 0 {
		t.Fatalf("isolated core = %d", core[2])
	}
}

// coreInvariant checks the defining property by brute force: iteratively
// peel nodes of degree < k and confirm membership in the k-core.
func coreInvariant(g *Graph, core []int) bool {
	n := g.N()
	for k := 1; k <= maxOf(core); k++ {
		alive := make([]bool, n)
		deg := make([]int, n)
		for u := 0; u < n; u++ {
			alive[u] = true
			deg[u] = g.Degree(u)
		}
		changed := true
		for changed {
			changed = false
			for u := 0; u < n; u++ {
				if alive[u] && deg[u] < k {
					alive[u] = false
					changed = true
					for _, v := range g.Neighbors(u) {
						if alive[v] {
							deg[v]--
						}
					}
				}
			}
		}
		for u := 0; u < n; u++ {
			if alive[u] != (core[u] >= k) {
				return false
			}
		}
	}
	return true
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestCoreNumbersAgainstPeeling(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(30)
		m := r.Intn(n*(n-1)/2 + 1)
		g, err := ErdosRenyi(n, m, seed)
		if err != nil {
			return false
		}
		return coreInvariant(g, g.CoreNumbers())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKByCore(t *testing.T) {
	// Triangle (core 2) + star hub (core 1, but high degree): core ranking
	// puts the triangle first, unlike degree ranking.
	b := NewBuilder(9, Undirected)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	for leaf := 4; leaf < 9; leaf++ {
		b.AddEdge(3, leaf)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	top := g.TopKByCore(3)
	want := map[int]bool{0: true, 1: true, 2: true}
	for _, u := range top {
		if !want[u] {
			t.Fatalf("TopKByCore = %v, want the triangle {0,1,2}", top)
		}
	}
	byDeg := g.TopKByDegree(1)
	if byDeg[0] != 3 {
		t.Fatalf("degree ranking should pick the star hub, got %v", byDeg)
	}
	if got := g.TopKByCore(100); len(got) != 9 {
		t.Fatalf("k clamp broken: %d", len(got))
	}
}
