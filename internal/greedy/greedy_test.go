package greedy

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// coverageOracle is a weighted max-coverage objective: each candidate covers
// a fixed set of elements with weights; the gain is the weight of newly
// covered elements. Coverage functions are the canonical submodular family,
// so they exercise both drivers realistically.
type coverageOracle struct {
	covers  [][]int
	weight  []float64
	covered []bool
	calls   int
}

func (o *coverageOracle) Gain(u int) float64 {
	o.calls++
	g := 0.0
	for _, e := range o.covers[u] {
		if !o.covered[e] {
			g += o.weight[e]
		}
	}
	return g
}

func (o *coverageOracle) Update(u int) {
	for _, e := range o.covers[u] {
		o.covered[e] = true
	}
}

func newCoverage(covers [][]int, elements int) *coverageOracle {
	w := make([]float64, elements)
	for i := range w {
		w[i] = 1
	}
	return &coverageOracle{covers: covers, weight: w, covered: make([]bool, elements)}
}

func randomCoverage(seed uint64, n, elements int) *coverageOracle {
	r := rng.New(seed)
	covers := make([][]int, n)
	for u := range covers {
		sz := 1 + r.Intn(5)
		for j := 0; j < sz; j++ {
			covers[u] = append(covers[u], r.Intn(elements))
		}
	}
	return newCoverage(covers, elements)
}

func TestPlainGreedyPicksObviousWinner(t *testing.T) {
	// Candidate 0 covers everything; it must be picked first.
	o := newCoverage([][]int{{0, 1, 2, 3}, {0}, {1}, {2}}, 4)
	res, err := Run(context.Background(), 4, 2, o, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected[0] != 0 {
		t.Fatalf("first pick %d, want 0", res.Selected[0])
	}
	if res.Gains[0] != 4 {
		t.Fatalf("first gain %v, want 4", res.Gains[0])
	}
	if res.Objective() != 4 {
		t.Fatalf("objective %v, want 4 (everything covered by first pick)", res.Objective())
	}
}

func TestLazyMatchesPlainSelectionValue(t *testing.T) {
	// On submodular objectives, lazy greedy must achieve exactly the same
	// objective value as plain greedy (selections may differ only on ties).
	f := func(seed uint64) bool {
		const n, elements, k = 40, 60, 8
		plain := randomCoverage(seed, n, elements)
		lazy := randomCoverage(seed, n, elements)
		rp, err1 := Run(context.Background(), n, k, plain, Config{})
		rl, err2 := Run(context.Background(), n, k, lazy, Config{Lazy: true})
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(rp.Objective()-rl.Objective()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLazyUsesFewerEvaluations(t *testing.T) {
	const n, elements, k = 200, 300, 20
	plain := randomCoverage(7, n, elements)
	lazy := randomCoverage(7, n, elements)
	rp, _ := Run(context.Background(), n, k, plain, Config{})
	rl, _ := Run(context.Background(), n, k, lazy, Config{Lazy: true})
	if rl.Evaluations >= rp.Evaluations {
		t.Fatalf("lazy evaluations %d not fewer than plain %d", rl.Evaluations, rp.Evaluations)
	}
	if rp.Evaluations < n {
		t.Fatalf("plain evaluations %d suspiciously low", rp.Evaluations)
	}
}

func TestKClampedToN(t *testing.T) {
	o := newCoverage([][]int{{0}, {1}, {2}}, 3)
	res, err := Run(context.Background(), 3, 10, o, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 3 {
		t.Fatalf("selected %d nodes, want 3", len(res.Selected))
	}
	o2 := newCoverage([][]int{{0}, {1}, {2}}, 3)
	res2, err := Run(context.Background(), 3, 10, o2, Config{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Selected) != 3 {
		t.Fatalf("lazy selected %d nodes, want 3", len(res2.Selected))
	}
}

func TestValidation(t *testing.T) {
	o := newCoverage([][]int{{0}}, 1)
	if _, err := Run(context.Background(), 0, 1, o, Config{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Run(context.Background(), 1, -1, o, Config{}); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := Run(context.Background(), 0, 1, o, Config{Lazy: true}); err == nil {
		t.Error("lazy n=0 accepted")
	}
	if _, err := Run(context.Background(), 1, -2, o, Config{Lazy: true}); err == nil {
		t.Error("lazy negative k accepted")
	}
}

func TestZeroBudget(t *testing.T) {
	o := newCoverage([][]int{{0}, {1}}, 2)
	res, err := Run(context.Background(), 2, 0, o, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 || res.Evaluations != 0 {
		t.Fatalf("k=0: selected=%v evals=%d", res.Selected, res.Evaluations)
	}
	res, err = Run(context.Background(), 2, 0, o, Config{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 {
		t.Fatalf("lazy k=0 selected %v", res.Selected)
	}
}

func TestNoRepeatSelections(t *testing.T) {
	f := func(seed uint64) bool {
		const n, elements, k = 30, 40, 15
		for _, cfg := range []Config{{}, {Lazy: true}} {
			o := randomCoverage(seed, n, elements)
			res, err := Run(context.Background(), n, k, o, cfg)
			if err != nil {
				return false
			}
			seen := map[int]bool{}
			for _, u := range res.Selected {
				if u < 0 || u >= n || seen[u] {
					return false
				}
				seen[u] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGainsNonIncreasing(t *testing.T) {
	// Greedy marginal gains on a submodular objective are non-increasing in
	// selection order.
	o := randomCoverage(11, 50, 80)
	res, _ := Run(context.Background(), 50, 12, o, Config{})
	for i := 1; i < len(res.Gains); i++ {
		if res.Gains[i] > res.Gains[i-1]+1e-9 {
			t.Fatalf("gain increased: %v then %v", res.Gains[i-1], res.Gains[i])
		}
	}
}

func TestGreedyApproximationGuarantee(t *testing.T) {
	// On small instances, compare greedy against the exhaustive optimum:
	// greedy must achieve at least (1 − 1/e) of it (Nemhauser et al.).
	r := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		const n, elements, k = 10, 12, 3
		covers := make([][]int, n)
		for u := range covers {
			sz := 1 + r.Intn(4)
			for j := 0; j < sz; j++ {
				covers[u] = append(covers[u], r.Intn(elements))
			}
		}
		eval := func(sel []int) float64 {
			covered := map[int]bool{}
			for _, u := range sel {
				for _, e := range covers[u] {
					covered[e] = true
				}
			}
			return float64(len(covered))
		}
		best := 0.0
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				for c := b + 1; c < n; c++ {
					if v := eval([]int{a, b, c}); v > best {
						best = v
					}
				}
			}
		}
		o := newCoverage(covers, elements)
		res, _ := Run(context.Background(), n, k, o, Config{})
		if got := res.Objective(); got < (1-1/math.E)*best-1e-9 {
			t.Fatalf("trial %d: greedy %v below (1-1/e)·OPT = %v", trial, got, (1-1/math.E)*best)
		}
	}
}

func TestOracleFuncs(t *testing.T) {
	calls := 0
	o := OracleFuncs(
		func(u int) float64 { return float64(-u) },
		func(u int) { calls++ },
	)
	res, err := Run(context.Background(), 3, 1, o, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected[0] != 0 || calls != 1 {
		t.Fatalf("selected %v, update calls %d", res.Selected, calls)
	}
}

func BenchmarkPlainGreedy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := randomCoverage(1, 500, 800)
		if _, err := Run(context.Background(), 500, 30, o, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLazyGreedy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := randomCoverage(1, 500, 800)
		if _, err := Run(context.Background(), 500, 30, o, Config{Lazy: true}); err != nil {
			b.Fatal(err)
		}
	}
}
