package walk

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hitting"
	"repro/internal/rng"
)

func TestWalkStuckAtIsolatedNode(t *testing.T) {
	// A walk from an isolated node never moves, so it never reaches S and
	// its hitting time is pinned at L.
	g := graph.MustFromEdgeList(3, [][2]int{{0, 1}}) // node 2 isolated
	inS := []bool{true, false, false}
	if tHit, hit := hitTimeSeeded(g, 5, 2, inS, rng.New(1)); tHit != 5 || hit {
		t.Fatalf("isolated walk: got (%d,%v), want (5,false)", tHit, hit)
	}
}

func TestHitTimeImmediate(t *testing.T) {
	g := graph.MustFromEdgeList(2, [][2]int{{0, 1}})
	inS := []bool{true, false}
	tHit, hit := hitTimeSeeded(g, 5, 0, inS, rng.New(1))
	if tHit != 0 || !hit {
		t.Fatalf("start in S: got (%d,%v), want (0,true)", tHit, hit)
	}
}

func TestHitTimeDeterministicChain(t *testing.T) {
	// On the 2-node path from 0 with S={1}, the walk hits at time 1 always.
	g := graph.MustFromEdgeList(2, [][2]int{{0, 1}})
	rnd := rng.New(9)
	inS := []bool{false, true}
	for i := 0; i < 20; i++ {
		tHit, hit := hitTimeSeeded(g, 5, 0, inS, rnd)
		if tHit != 1 || !hit {
			t.Fatalf("got (%d,%v), want (1,true)", tHit, hit)
		}
	}
}

func TestHitTimeCapAtL(t *testing.T) {
	// Unreachable target: always (L, false).
	g := graph.MustFromEdgeList(4, [][2]int{{0, 1}, {2, 3}})
	rnd := rng.New(2)
	inS := []bool{false, false, true, false}
	for i := 0; i < 20; i++ {
		tHit, hit := hitTimeSeeded(g, 4, 0, inS, rnd)
		if tHit != 4 || hit {
			t.Fatalf("got (%d,%v), want (4,false)", tHit, hit)
		}
	}
}

func TestEstimatorUnbiasedAgainstExactDP(t *testing.T) {
	// With many samples, the per-node estimators ĥ (Eq. 9) and p̂ (Eq. 10)
	// that EstimateF sums converge to the exact DP values.
	g, _ := graph.BarabasiAlbert(60, 2, 5)
	const L = 6
	const R = 4000
	S := []int{0, 11}
	inS := make([]bool, g.N())
	for _, v := range S {
		inS[v] = true
	}
	ev, _ := hitting.NewEvaluator(g, L)
	exactH, _ := ev.HitTimesToSet(S, nil)
	exactP, _ := ev.HitProbsToSet(S, nil)
	for _, u := range []int{1, 5, 20, 40, 59} {
		total, hits := 0, 0
		for i := 0; i < R; i++ {
			tHit, hit := hitTimeSeeded(g, L, u, inS, rng.New(rng.Mix(77, uint64(u), uint64(i))))
			total += tHit
			if hit {
				hits++
			}
		}
		hHat := float64(total) / R
		pHat := float64(hits) / R
		if math.Abs(hHat-exactH[u]) > 0.15 {
			t.Errorf("u=%d: ĥ=%v exact=%v", u, hHat, exactH[u])
		}
		if math.Abs(pHat-exactP[u]) > 0.05 {
			t.Errorf("u=%d: p̂=%v exact=%v", u, pHat, exactP[u])
		}
	}
}

func TestEstimateFMatchesExact(t *testing.T) {
	g, _ := graph.BarabasiAlbert(50, 2, 3)
	const L = 5
	S := []int{0, 4}
	ev, _ := hitting.NewEvaluator(g, L)
	exactF1, _ := ev.F1(S)
	exactF2, _ := ev.F2(S)
	est, err := NewEstimator(g, L, 123)
	if err != nil {
		t.Fatal(err)
	}
	f1, f2, err := est.EstimateF(S, 3000)
	if err != nil {
		t.Fatal(err)
	}
	// Tolerances: F1 error scales with (n−|S|)L, F2 with n.
	if math.Abs(f1-exactF1) > 0.02*float64(g.N())*L {
		t.Errorf("F̂1=%v exact=%v", f1, exactF1)
	}
	if math.Abs(f2-exactF2) > 0.02*float64(g.N()) {
		t.Errorf("F̂2=%v exact=%v", f2, exactF2)
	}
}

func TestEstimateFEmptySet(t *testing.T) {
	g, _ := graph.Path(5)
	est, _ := NewEstimator(g, 4, 1)
	f1, f2, err := est.EstimateF(nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != 0 || f2 != 0 {
		t.Fatalf("F̂(∅) = (%v,%v), want (0,0): no walk can hit an empty set", f1, f2)
	}
}

func TestEstimateFFullSet(t *testing.T) {
	g, _ := graph.Path(4)
	est, _ := NewEstimator(g, 3, 1)
	f1, f2, err := est.EstimateF([]int{0, 1, 2, 3}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != float64(4*3) {
		t.Fatalf("F̂1(V) = %v, want nL=12", f1)
	}
	if f2 != 4 {
		t.Fatalf("F̂2(V) = %v, want n=4", f2)
	}
}

func TestEstimateFErrors(t *testing.T) {
	g, _ := graph.Path(3)
	est, _ := NewEstimator(g, 2, 1)
	if _, _, err := est.EstimateF([]int{9}, 10); err == nil {
		t.Error("out-of-range member accepted")
	}
	if _, _, err := est.EstimateF([]int{0}, 0); err == nil {
		t.Error("R=0 accepted")
	}
}

func TestWeightedWalkBias(t *testing.T) {
	// Node 1 connects to 0 with weight 9 and to 2 with weight 1: the first
	// step from 1 should go to 0 about 90% of the time.
	b := graph.NewBuilder(3, graph.Undirected)
	b.AddWeightedEdge(0, 1, 9)
	b.AddWeightedEdge(1, 2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// With L = 1 and S = {0}, a walk from 1 hits exactly when its first
	// step goes to 0.
	inS := []bool{true, false, false}
	rnd := rng.New(11)
	to0 := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		if _, hit := hitTimeSeeded(g, 1, 1, inS, rnd); hit {
			to0++
		}
	}
	frac := float64(to0) / trials
	if math.Abs(frac-0.9) > 0.03 {
		t.Fatalf("weighted first-step fraction to node 0 = %v, want ≈0.9", frac)
	}
}

func TestHoeffdingBounds(t *testing.T) {
	// Lemma 3.3 closed form: R = ceil(ln((n−|S|)/δ) / (2ε²)).
	got := SampleSizeF1(1000, 30, 0.1, 0.01)
	want := int(math.Ceil(math.Log(970/0.01) / (2 * 0.01)))
	if got != want {
		t.Fatalf("SampleSizeF1 = %d, want %d", got, want)
	}
	got = SampleSizeF2(1000, 0.1, 0.01)
	want = int(math.Ceil(math.Log(1000/0.01) / (2 * 0.01)))
	if got != want {
		t.Fatalf("SampleSizeF2 = %d, want %d", got, want)
	}
	// Degenerate parameters fall back to 1 sample.
	for _, r := range []int{
		SampleSizeF1(10, 10, 0.1, 0.1),
		SampleSizeF1(10, 0, 0, 0.1),
		SampleSizeF2(10, 0.1, 0),
		SampleSizeF2(0, 0.1, 0.1),
	} {
		if r != 1 {
			t.Fatalf("degenerate sample size = %d, want 1", r)
		}
	}
}

func TestSampleSizeMonotonicity(t *testing.T) {
	// Tighter ε or δ requires more samples.
	f := func(seed uint64) bool {
		eps1, eps2 := 0.05, 0.1
		d := 0.05
		return SampleSizeF2(1000, eps1, d) >= SampleSizeF2(1000, eps2, d) &&
			SampleSizeF2(1000, 0.1, 0.01) >= SampleSizeF2(1000, 0.1, 0.1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateFWorkersInvariant(t *testing.T) {
	// Per-node seeding makes the estimate bit-for-bit identical for any
	// worker count.
	g, _ := graph.BarabasiAlbert(120, 3, 13)
	est, _ := NewEstimator(g, 5, 77)
	S := []int{2, 50}
	f1a, f2a, err := est.EstimateFWorkers(S, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0, 1000} {
		f1b, f2b, err := est.EstimateFWorkers(S, 40, workers)
		if err != nil {
			t.Fatal(err)
		}
		if f1a != f1b || f2a != f2b {
			t.Fatalf("workers=%d changed estimate: (%v,%v) vs (%v,%v)", workers, f1a, f2a, f1b, f2b)
		}
	}
}

func TestEstimateFDuplicateMembers(t *testing.T) {
	// Duplicate set members must not double-count the |S| term of F2.
	g, _ := graph.Star(10)
	est, _ := NewEstimator(g, 3, 1)
	_, f2a, _ := est.EstimateF([]int{0}, 50)
	_, f2b, _ := est.EstimateF([]int{0, 0, 0}, 50)
	if f2a != f2b {
		t.Fatalf("duplicates changed F2: %v vs %v", f2a, f2b)
	}
}

func TestEstimatorDeterministicForSeed(t *testing.T) {
	g, _ := graph.BarabasiAlbert(40, 2, 9)
	S := []int{3}
	a, _ := NewEstimator(g, 5, 42)
	b, _ := NewEstimator(g, 5, 42)
	f1a, f2a, _ := a.EstimateF(S, 50)
	f1b, f2b, _ := b.EstimateF(S, 50)
	if f1a != f1b || f2a != f2b {
		t.Fatalf("same seed gave different estimates: (%v,%v) vs (%v,%v)", f1a, f2a, f1b, f2b)
	}
}

func BenchmarkEstimateF(b *testing.B) {
	g, _ := graph.BarabasiAlbert(1000, 5, 1)
	est, _ := NewEstimator(g, 6, 1)
	S := []int{0, 1, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := est.EstimateF(S, 10); err != nil {
			b.Fatal(err)
		}
	}
}
