package greedy

import (
	"context"
	"math"
	"testing"
)

func TestStochasticValidation(t *testing.T) {
	o := newCoverage([][]int{{0}}, 1)
	if _, err := RunStochastic(0, 1, o, 0.1, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := RunStochastic(1, -1, o, 0.1, 1); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := RunStochastic(1, 1, o, 0, 1); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := RunStochastic(1, 1, o, 1, 1); err == nil {
		t.Error("eps=1 accepted")
	}
}

func TestStochasticZeroBudget(t *testing.T) {
	o := newCoverage([][]int{{0}, {1}}, 2)
	res, err := RunStochastic(2, 0, o, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 {
		t.Fatalf("k=0 selected %v", res.Selected)
	}
}

func TestStochasticNoRepeats(t *testing.T) {
	o := randomCoverage(3, 50, 70)
	res, err := RunStochastic(50, 20, o, 0.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 20 {
		t.Fatalf("selected %d, want 20", len(res.Selected))
	}
	seen := map[int]bool{}
	for _, u := range res.Selected {
		if seen[u] {
			t.Fatalf("repeated selection %d", u)
		}
		seen[u] = true
	}
}

func TestStochasticFewerEvaluationsThanPlain(t *testing.T) {
	const n, elements, k = 400, 600, 40
	plain := randomCoverage(7, n, elements)
	stoch := randomCoverage(7, n, elements)
	rp, _ := Run(context.Background(), n, k, plain, Config{})
	rs, err := RunStochastic(n, k, stoch, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Evaluations >= rp.Evaluations {
		t.Fatalf("stochastic evals %d not fewer than plain %d", rs.Evaluations, rp.Evaluations)
	}
}

func TestStochasticQualityNearPlain(t *testing.T) {
	// Averaged over seeds, stochastic greedy should land within ~(1−eps) of
	// plain greedy's objective on coverage instances.
	const n, elements, k = 200, 300, 15
	plain := randomCoverage(11, n, elements)
	rp, _ := Run(context.Background(), n, k, plain, Config{})
	total := 0.0
	const trials = 10
	for s := uint64(0); s < trials; s++ {
		stoch := randomCoverage(11, n, elements)
		rs, err := RunStochastic(n, k, stoch, 0.1, s)
		if err != nil {
			t.Fatal(err)
		}
		total += rs.Objective()
	}
	avg := total / trials
	if avg < 0.9*rp.Objective() {
		t.Fatalf("stochastic avg %v below 90%% of plain %v", avg, rp.Objective())
	}
}

func TestStochasticDeterministicForSeed(t *testing.T) {
	a, _ := RunStochastic(50, 10, randomCoverage(2, 50, 70), 0.2, 42)
	b, _ := RunStochastic(50, 10, randomCoverage(2, 50, 70), 0.2, 42)
	if len(a.Selected) != len(b.Selected) {
		t.Fatal("lengths differ")
	}
	for i := range a.Selected {
		if a.Selected[i] != b.Selected[i] {
			t.Fatal("same seed, different selections")
		}
	}
}

func TestStochasticSampleCoversAllWhenTiny(t *testing.T) {
	// With n small and eps tiny, the sample covers every candidate and
	// stochastic greedy equals plain greedy exactly.
	const n, elements, k = 12, 20, 4
	plain := randomCoverage(5, n, elements)
	stoch := randomCoverage(5, n, elements)
	rp, _ := Run(context.Background(), n, k, plain, Config{})
	rs, _ := RunStochastic(n, k, stoch, 1e-9, 1)
	if math.Abs(rp.Objective()-rs.Objective()) > 1e-9 {
		t.Fatalf("full-sample stochastic %v != plain %v", rs.Objective(), rp.Objective())
	}
}
