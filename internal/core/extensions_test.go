package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/hitting"
)

func TestCombinedEndpointsMatchSingleObjectives(t *testing.T) {
	// w=1 must reproduce ApproxF1's selection, w=0 ApproxF2's (same index
	// seed, same tie-breaks).
	g, _ := graph.BarabasiAlbert(100, 3, 5)
	opts := optsFor(5, 5, 100)
	f1, err := ApproxF1(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ApproxF2(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	cw1, err := Combined(g, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	cw0, err := Combined(g, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1.Nodes {
		if f1.Nodes[i] != cw1.Nodes[i] {
			t.Fatalf("Combined(w=1) %v != ApproxF1 %v", cw1.Nodes, f1.Nodes)
		}
		if f2.Nodes[i] != cw0.Nodes[i] {
			t.Fatalf("Combined(w=0) %v != ApproxF2 %v", cw0.Nodes, f2.Nodes)
		}
	}
}

func TestCombinedInterpolatesQuality(t *testing.T) {
	// A mid-weight combination should be competitive on both exact metrics:
	// no worse than the weaker endpoint on either objective.
	g, _ := graph.BarabasiAlbert(150, 3, 11)
	const L, k, R = 5, 8, 150
	opts := optsFor(k, L, R)
	mid, err := Combined(g, opts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	f1sel, _ := ApproxF1(g, opts)
	f2sel, _ := ApproxF2(g, opts)
	ev, _ := hitting.NewEvaluator(g, L)
	midF1, _ := ev.F1(mid.Nodes)
	midF2, _ := ev.F2(mid.Nodes)
	loF1, _ := ev.F1(f2sel.Nodes) // F1 value of the F2-optimized set: weak end
	loF2, _ := ev.F2(f1sel.Nodes)
	if midF1 < loF1*0.98 {
		t.Errorf("Combined F1 value %v worse than F2-optimized set's %v", midF1, loF1)
	}
	if midF2 < loF2*0.98 {
		t.Errorf("Combined F2 value %v worse than F1-optimized set's %v", midF2, loF2)
	}
}

func TestCombinedValidation(t *testing.T) {
	g, _ := graph.Path(4)
	opts := optsFor(2, 3, 20)
	if _, err := Combined(g, opts, -0.1); err == nil {
		t.Error("w<0 accepted")
	}
	if _, err := Combined(g, opts, 1.1); err == nil {
		t.Error("w>1 accepted")
	}
	if _, err := Combined(g, Options{K: 2, L: 0, R: 20}, 0.5); err == nil {
		t.Error("L=0 accepted")
	}
}

func TestPartialCoverReachesTarget(t *testing.T) {
	g, _ := graph.BarabasiAlbert(200, 3, 3)
	opts := Options{L: 6, R: 100, Seed: 1}
	res, err := PartialCover(g, opts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Achieved {
		t.Fatal("α=0.5 should be reachable on a connected power-law graph")
	}
	last := res.Coverage[len(res.Coverage)-1]
	if last < res.Target {
		t.Fatalf("final coverage %v below target %v", last, res.Target)
	}
	// Trajectory is nondecreasing and the run stops as soon as the target
	// is met (previous point below target).
	for i := 1; i < len(res.Coverage); i++ {
		if res.Coverage[i] < res.Coverage[i-1] {
			t.Fatal("coverage decreased")
		}
	}
	if len(res.Coverage) > 1 && res.Coverage[len(res.Coverage)-2] >= res.Target {
		t.Fatal("run continued past the target")
	}
	// Verify the estimate against the exact F2 of the selected set.
	ev, _ := hitting.NewEvaluator(g, opts.L)
	exact, _ := ev.F2(res.Nodes)
	if math.Abs(exact-last) > 0.1*float64(g.N()) {
		t.Fatalf("estimated coverage %v far from exact %v", last, exact)
	}
}

func TestPartialCoverMonotoneInAlpha(t *testing.T) {
	g, _ := graph.BarabasiAlbert(150, 3, 9)
	opts := Options{L: 5, R: 80, Seed: 2}
	prev := 0
	for _, alpha := range []float64{0.2, 0.4, 0.6, 0.8} {
		res, err := PartialCover(g, opts, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Achieved {
			t.Fatalf("α=%v unreachable", alpha)
		}
		if len(res.Nodes) < prev {
			t.Fatalf("higher α needed fewer nodes: %d < %d", len(res.Nodes), prev)
		}
		prev = len(res.Nodes)
	}
}

func TestPartialCoverUnreachable(t *testing.T) {
	// A graph of isolated nodes plus one edge: walks never leave their
	// component, so full coverage needs nearly all nodes; with α=1 the run
	// must still terminate and report achievement correctly.
	b := graph.NewBuilder(6, graph.Undirected)
	b.AddEdge(0, 1)
	g, _ := b.Build()
	res, err := PartialCover(g, Options{L: 3, R: 30, Seed: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Achieved {
		// Achievable by selecting everything; greedy will do so.
		t.Fatalf("full cover by selecting all nodes should be achieved, got %d nodes", len(res.Nodes))
	}
	if len(res.Nodes) < 5 {
		t.Fatalf("isolated nodes force nearly all selections, got %d", len(res.Nodes))
	}
}

func TestPartialCoverValidation(t *testing.T) {
	g, _ := graph.Path(4)
	if _, err := PartialCover(g, Options{L: 3, R: 20}, -0.5); err == nil {
		t.Error("negative α accepted")
	}
	if _, err := PartialCover(g, Options{L: 3, R: 20}, 1.5); err == nil {
		t.Error("α>1 accepted")
	}
	if _, err := PartialCover(g, Options{L: 3, R: 0}, 0.5); err == nil {
		t.Error("R=0 accepted")
	}
}

func TestEdgeDominationBasics(t *testing.T) {
	g, _ := graph.Star(10)
	// Hub as target: every walk traverses exactly its first edge, then hits.
	v, err := EdgeDomination(g, []int{0}, 5, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := 9.0 // 9 leaves × 1 edge each
	if math.Abs(v-want) > 1e-9 {
		t.Fatalf("star hub edge domination %v, want %v", v, want)
	}
	// Empty target: walks run to exhaustion and traverse more edges.
	v2, err := EdgeDomination(g, nil, 5, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v {
		t.Fatalf("untargeted traversal %v should exceed targeted %v", v2, v)
	}
}

func TestEdgeDominationMonotone(t *testing.T) {
	// Adding targets can only reduce expected pre-hit edge traversal (in
	// expectation; allow small sampling slack).
	g, _ := graph.BarabasiAlbert(80, 3, 6)
	a, _ := EdgeDomination(g, []int{0}, 6, 300, 9)
	b, _ := EdgeDomination(g, []int{0, 1, 2}, 6, 300, 9)
	if b > a+0.5 {
		t.Fatalf("more targets increased traversal: %v -> %v", a, b)
	}
}

func TestEdgeDominationValidation(t *testing.T) {
	g, _ := graph.Path(3)
	if _, err := EdgeDomination(nil, nil, 2, 5, 0); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := EdgeDomination(g, nil, -1, 5, 0); err == nil {
		t.Error("negative L accepted")
	}
	if _, err := EdgeDomination(g, nil, 2, 0, 0); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := EdgeDomination(g, []int{7}, 2, 5, 0); err == nil {
		t.Error("out-of-range member accepted")
	}
}
