// Package walk implements the L-length random-walk model of Section 2 of the
// paper and the sampling-based estimators of Section 3.1 (Algorithm 2):
//
//   - Estimator.EstimateF implements Algorithm 2, producing F̂1(S) and F̂2(S)
//     from R walks per node, whose per-node averages are the unbiased
//     estimators ĥ^L_{uS} of Eq. (9) and Ê[X^L_{uS}] of Eq. (10);
//   - SampleSizeF1 / SampleSizeF2 implement the Hoeffding sample-size bounds
//     of Lemmas 3.3 and 3.4.
//
// An L-length random walk starts at a node and repeatedly moves to a
// uniformly random neighbor (weight-proportionally for weighted graphs) for
// at most L hops. Nodes may repeat within a walk. A walk stuck at a node
// with no outgoing edges simply stops moving; its remaining positions are
// the stuck node, which matches the T^L_{uS} = L convention for sources that
// never reach S.
package walk

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Estimator implements Algorithm 2: sampling-based estimation of F1(S) and
// F2(S) for arbitrary sets S. Each node's walks are seeded independently
// from the master seed, so estimates are identical however the per-node
// work is sharded across goroutines (EstimateFWorkers).
type Estimator struct {
	g    *graph.Graph
	l    int
	seed uint64
	inS  []bool
}

// NewEstimator returns an Algorithm-2 estimator on g with bound L.
func NewEstimator(g *graph.Graph, L int, seed uint64) (*Estimator, error) {
	if L < 0 {
		return nil, fmt.Errorf("walk: negative walk length %d", L)
	}
	return &Estimator{g: g, l: L, seed: seed, inS: make([]bool, g.N())}, nil
}

// EstimateF runs Algorithm 2 with sample size R and returns unbiased
// estimates of F1(S) and F2(S).
//
// Note on F1: the paper's Eq. (6) defines F1(S) = nL − Σ_{u∈V\S} h^L_{uS},
// while Algorithm 2 line 14 computes |V\S|·L − Σ ĥ, which differs by the
// constant |S|·L (the two forms appear interchangeably in the paper; they
// induce the same greedy ordering at fixed |S|). This implementation returns
// the Eq. (6) form so sampled values are directly comparable with the exact
// hitting.Evaluator.F1.
func (e *Estimator) EstimateF(S []int, R int) (f1, f2 float64, err error) {
	return e.EstimateFWorkers(S, R, 1)
}

// EstimateFWorkers is EstimateF sharded over the given number of
// goroutines. Results are bit-for-bit identical for every worker count.
func (e *Estimator) EstimateFWorkers(S []int, R, workers int) (f1, f2 float64, err error) {
	if R <= 0 {
		return 0, 0, fmt.Errorf("walk: sample size R = %d, want > 0", R)
	}
	if workers < 1 {
		workers = 1
	}
	g := e.g
	n := g.N()
	if workers > n {
		workers = n
	}
	for i := range e.inS {
		e.inS[i] = false
	}
	sizeS := 0
	for _, v := range S {
		if v < 0 || v >= n {
			return 0, 0, fmt.Errorf("walk: set member %d out of range [0,%d): %w", v, n, graph.ErrNodeRange)
		}
		if !e.inS[v] {
			sizeS++
		}
		e.inS[v] = true
	}

	// nodeEstimates accumulates per-node totals of hit time and hit count
	// over R walks, using a fresh per-(node, replicate) seed, then folds
	// them into (Σĥ/R, Σr/R) for the range.
	nodeEstimates := func(lo, hi int) (sumT, sumR int64) {
		for u := lo; u < hi; u++ {
			if e.inS[u] {
				continue
			}
			for i := 0; i < R; i++ {
				rnd := rng.New(rng.Mix(e.seed, uint64(u), uint64(i)))
				t, hit := hitTimeSeeded(g, e.l, u, e.inS, rnd)
				sumT += int64(t)
				if hit {
					sumR++
				}
			}
		}
		return sumT, sumR
	}

	var totT, totR int64
	if workers == 1 {
		totT, totR = nodeEstimates(0, n)
	} else {
		type partial struct{ t, r int64 }
		parts := make([]partial, workers)
		var wg sync.WaitGroup
		per := (n + workers - 1) / workers
		for wk := 0; wk < workers; wk++ {
			lo := wk * per
			hi := lo + per
			if hi > n {
				hi = n
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(wk, lo, hi int) {
				defer wg.Done()
				t, r := nodeEstimates(lo, hi)
				parts[wk] = partial{t, r}
			}(wk, lo, hi)
		}
		wg.Wait()
		for _, p := range parts {
			totT += p.t
			totR += p.r
		}
	}
	sumH := float64(totT) / float64(R)
	sumP := float64(totR) / float64(R)
	f1 = float64(n)*float64(e.l) - sumH
	f2 = sumP + float64(sizeS) // members of S hit with probability 1 (line 15)
	return f1, f2, nil
}

// hitTimeSeeded runs one walk from start on rnd and returns the first time
// t at which the walk occupies a node with inS[node] true, or L if no such
// time exists within the budget — exactly the random variable T^L_{uS} of
// Eq. (3). The second result reports whether the walk hit. The estimator
// seeds rnd per (node, sample), so estimates do not depend on sharding.
func hitTimeSeeded(g *graph.Graph, L, start int, inS []bool, rnd *rng.Source) (int, bool) {
	if inS[start] {
		return 0, true
	}
	u := start
	for step := 1; step <= L; step++ {
		v := g.PickNeighbor(u, rnd.Float64())
		if v < 0 {
			return L, false
		}
		if inS[v] {
			return step, true
		}
		u = v
	}
	return L, false
}

// SampleSizeF1 returns the Hoeffding sample size of Lemma 3.3: with
// R >= ln((n−|S|)/δ) / (2ε²) samples per node,
// Pr[|F̂1(S) − F1(S)| >= ε(n−|S|)L] <= δ.
func SampleSizeF1(n, sizeS int, eps, delta float64) int {
	if eps <= 0 || delta <= 0 || delta >= 1 || n-sizeS <= 0 {
		return 1
	}
	return int(math.Ceil(math.Log(float64(n-sizeS)/delta) / (2 * eps * eps)))
}

// SampleSizeF2 returns the Hoeffding sample size of Lemma 3.4: with
// R >= ln(n/δ) / (2ε²) samples per node, Pr[|F̂2(S) − F2(S)| >= εn] <= δ.
func SampleSizeF2(n int, eps, delta float64) int {
	if eps <= 0 || delta <= 0 || delta >= 1 || n <= 0 {
		return 1
	}
	return int(math.Ceil(math.Log(float64(n)/delta) / (2 * eps * eps)))
}
