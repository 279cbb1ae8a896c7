package graph

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBuilderBasic(t *testing.T) {
	g := MustFromEdgeList(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("got n=%d m=%d, want 4, 4", g.N(), g.M())
	}
	for u := 0; u < 4; u++ {
		if g.Degree(u) != 2 {
			t.Errorf("degree(%d) = %d, want 2", u, g.Degree(u))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	g := MustFromEdgeList(3, [][2]int{{0, 1}, {1, 0}, {0, 1}, {1, 2}})
	if g.M() != 2 {
		t.Fatalf("M = %d after dedup, want 2", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Fatalf("degrees wrong after dedup: %d %d", g.Degree(0), g.Degree(1))
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(3, Undirected)
	b.AddEdge(1, 1)
	if _, err := b.Build(); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("got %v, want ErrSelfLoop", err)
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	for _, e := range [][2]int{{-1, 0}, {0, 3}, {5, 1}} {
		b := NewBuilder(3, Undirected)
		b.AddEdge(e[0], e[1])
		if _, err := b.Build(); !errors.Is(err, ErrNodeRange) {
			t.Fatalf("edge %v: got %v, want ErrNodeRange", e, err)
		}
	}
}

func TestBuilderRejectsEmptyGraph(t *testing.T) {
	if _, err := NewBuilder(0, Undirected).Build(); !errors.Is(err, ErrEmptyGraph) {
		t.Fatalf("got %v, want ErrEmptyGraph", err)
	}
}

func TestBuilderRejectsBadWeight(t *testing.T) {
	b := NewBuilder(2, Undirected)
	b.AddWeightedEdge(0, 1, -2)
	if _, err := b.Build(); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("got %v, want ErrBadWeight", err)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := MustFromEdgeList(5, [][2]int{{4, 0}, {4, 3}, {4, 1}, {4, 2}})
	row := g.Neighbors(4)
	for i := 1; i < len(row); i++ {
		if row[i-1] >= row[i] {
			t.Fatalf("row not sorted: %v", row)
		}
	}
}

func TestDirectedGraph(t *testing.T) {
	b := NewBuilder(3, Directed)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatalf("out-degrees %d %d %d, want 1 1 0", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("directed edge symmetry wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedGraph(t *testing.T) {
	b := NewBuilder(3, Undirected)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("graph should be weighted")
	}
	if got := g.WeightDegree(1); got != 5 {
		t.Fatalf("WeightDegree(1) = %v, want 5", got)
	}
	if got := g.TransitionProb(1, 0); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("TransitionProb(1,0) = %v, want 0.4", got)
	}
	if got := g.TransitionProb(0, 2); got != 0 {
		t.Fatalf("TransitionProb(0,2) = %v, want 0", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTransitionProbUnweighted(t *testing.T) {
	g := MustFromEdgeList(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	if got := g.TransitionProb(0, 2); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("p = %v, want 1/3", got)
	}
	if got := g.TransitionProb(1, 0); got != 1 {
		t.Fatalf("p = %v, want 1", got)
	}
}

func TestEdgesIteration(t *testing.T) {
	g := MustFromEdgeList(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	var got [][2]int
	g.Edges(func(u, v int, w float64) bool {
		got = append(got, [2]int{u, v})
		return true
	})
	if len(got) != 3 {
		t.Fatalf("iterated %d edges, want 3", len(got))
	}
	for _, e := range got {
		if e[0] >= e[1] {
			t.Fatalf("undirected edge %v not reported with u < v", e)
		}
	}
	// Early stop.
	count := 0
	g.Edges(func(u, v int, w float64) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop iterated %d, want 2", count)
	}
}

func TestDegreeSumInvariant(t *testing.T) {
	// Property: for undirected graphs, sum of degrees = 2m.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(50)
		maxM := n * (n - 1) / 2
		m := r.Intn(maxM + 1)
		g, err := ErdosRenyi(n, m, seed)
		if err != nil {
			return false
		}
		sum := 0
		for u := 0; u < g.N(); u++ {
			sum += g.Degree(u)
		}
		return sum == 2*g.M() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := MustFromEdgeList(6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (two comps + isolated node 5)", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("nodes 0,1,2 should share a component")
	}
	if labels[3] != labels[4] {
		t.Fatal("nodes 3,4 should share a component")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Fatal("node 5 should be its own component")
	}
}

func mustGen(g *Graph, err error) *Graph {
	if err != nil {
		panic(err)
	}
	return g
}

func TestGenerators(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"path", mustGen(Path(10)), 10, 9},
		{"cycle", mustGen(Cycle(10)), 10, 10},
		{"star", mustGen(Star(10)), 10, 9},
		{"complete", mustGen(Complete(5)), 5, 10},
		{"grid", mustGen(Grid(3, 4)), 12, 17},
	} {
		if tc.g.N() != tc.n || tc.g.M() != tc.m {
			t.Errorf("%s: n=%d m=%d, want %d %d", tc.name, tc.g.N(), tc.g.M(), tc.n, tc.m)
		}
		if err := tc.g.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestGeneratorErrors(t *testing.T) {
	if _, err := Path(0); err == nil {
		t.Error("Path(0) should fail")
	}
	if _, err := Cycle(2); err == nil {
		t.Error("Cycle(2) should fail")
	}
	if _, err := Star(1); err == nil {
		t.Error("Star(1) should fail")
	}
	if _, err := Complete(1); err == nil {
		t.Error("Complete(1) should fail")
	}
	if _, err := Grid(0, 5); err == nil {
		t.Error("Grid(0,5) should fail")
	}
	if _, err := BarabasiAlbert(10, 0, 1); err == nil {
		t.Error("BarabasiAlbert mPerNode=0 should fail")
	}
	if _, err := BarabasiAlbert(5, 5, 1); err == nil {
		t.Error("BarabasiAlbert mPerNode>=n should fail")
	}
	if _, err := ErdosRenyi(5, 100, 1); err == nil {
		t.Error("ErdosRenyi with too many edges should fail")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g, err := BarabasiAlbert(1000, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1000 {
		t.Fatalf("n = %d, want 1000", g.N())
	}
	// m = core path edges + mPerNode per arriving node, minus dedup losses
	// (none: chosen set is distinct per node).
	wantM := 5 + (1000-6)*5
	if g.M() != wantM {
		t.Fatalf("m = %d, want %d", g.M(), wantM)
	}
	if !g.IsConnected() {
		t.Fatal("BA graph should be connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a, _ := BarabasiAlbert(200, 3, 7)
	b, _ := BarabasiAlbert(200, 3, 7)
	if a.M() != b.M() {
		t.Fatalf("same seed gave different edge counts: %d vs %d", a.M(), b.M())
	}
	for u := 0; u < a.N(); u++ {
		ra, rb := a.Neighbors(u), b.Neighbors(u)
		if len(ra) != len(rb) {
			t.Fatalf("node %d rows differ in length", u)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("node %d rows differ", u)
			}
		}
	}
}

func TestBarabasiAlbertIsSkewed(t *testing.T) {
	ba, _ := BarabasiAlbert(2000, 5, 1)
	er, _ := ErdosRenyi(2000, ba.M(), 1)
	giniBA := ba.ComputeStats().DegreeGini
	giniER := er.ComputeStats().DegreeGini
	if giniBA <= giniER {
		t.Fatalf("BA gini %v should exceed ER gini %v", giniBA, giniER)
	}
}

func TestPaperExampleGraph(t *testing.T) {
	g := PaperExample()
	if g.N() != 8 {
		t.Fatalf("n = %d, want 8", g.N())
	}
	// Every walk the paper derives from Fig. 1 must be a valid path.
	walks := [][]int{
		{0, 1, 2, 1, 5}, // (v1,v2,v3,v2,v6)
		{0, 5, 1, 2, 4}, // (v1,v6,v2,v3,v5)
		{0, 1, 2},       // Example 3.1 walks
		{1, 2, 4},
		{2, 1, 4},
		{3, 6, 4},
		{4, 1, 5},
		{5, 6, 4},
		{6, 4, 6},
		{7, 6, 3},
	}
	for _, w := range walks {
		for i := 1; i < len(w); i++ {
			if !g.HasEdge(w[i-1], w[i]) {
				t.Errorf("walk %v: missing edge %d-%d", w, w[i-1], w[i])
			}
		}
	}
}

func TestTopKByDegree(t *testing.T) {
	g := mustGen(Star(6)) // node 0 has degree 5, rest degree 1
	top := g.TopKByDegree(3)
	if top[0] != 0 {
		t.Fatalf("top degree node = %d, want 0", top[0])
	}
	if top[1] != 1 || top[2] != 2 {
		t.Fatalf("tie-break by id broken: %v", top)
	}
	if got := g.TopKByDegree(100); len(got) != 6 {
		t.Fatalf("k > n should clamp: got %d", len(got))
	}
}

func TestComputeStats(t *testing.T) {
	g := MustFromEdgeList(5, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	s := g.ComputeStats()
	if s.Nodes != 5 || s.Edges != 3 {
		t.Fatalf("stats n=%d m=%d", s.Nodes, s.Edges)
	}
	if s.MaxDegree != 3 || s.MinDegree != 0 || s.Isolated != 1 {
		t.Fatalf("degree stats wrong: %+v", s)
	}
	if s.Components != 2 || s.LargestComp != 4 {
		t.Fatalf("component stats wrong: %+v", s)
	}
	if s.MeanDegree != 6.0/5 {
		t.Fatalf("mean degree %v", s.MeanDegree)
	}
	if !strings.Contains(s.String(), "n=5") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestGraphString(t *testing.T) {
	g := mustGen(Path(3))
	if got := g.String(); !strings.Contains(got, "undirected") || !strings.Contains(got, "3 nodes") {
		t.Fatalf("String() = %q", got)
	}
}

func TestKindString(t *testing.T) {
	if Undirected.String() != "undirected" || Directed.String() != "directed" {
		t.Fatal("Kind.String wrong")
	}
	if got := Kind(9).String(); !strings.Contains(got, "9") {
		t.Fatalf("unknown kind string %q", got)
	}
}
