package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/index"
	"repro/internal/rng"
)

// This file implements the three extensions the paper sketches as future
// work in Section 5:
//
//  1. Combined: maximize a positive weighted combination of the two
//     objectives ("one may combine these two objective functions (e.g., by
//     a positive weights, it is still submodular)").
//  2. PartialCover: the complementary problem — given α ∈ [0,1], find the
//     minimum set whose expected domination covers at least α·n nodes.
//  3. EdgeDomination: count the expected number of distinct edges traversed
//     by the L-length walks before hitting the targeted set.

// combinedOracle mixes the Problem-1 and Problem-2 gains of a shared index.
// Both objectives are normalized to [0, 1] ranges (F1 by nL, F2 by n) so the
// weight is scale-free; a positive combination of submodular functions is
// submodular, so CELF remains valid. Gain is a pure read of both D-tables,
// so greedy.Run may shard it like any other index-backed oracle.
type combinedOracle struct {
	d1, d2 *index.DTable
	w      float64 // weight on normalized F1; 1−w on normalized F2
	nL, n  float64
}

func (o *combinedOracle) Gain(u int) float64 {
	return o.w*o.d1.Gain(u)/o.nL + (1-o.w)*o.d2.Gain(u)/o.n
}

func (o *combinedOracle) Update(u int) {
	o.d1.Update(u)
	o.d2.Update(u)
}

// Combined solves the weighted combined problem
//
//	max  w·F1(S)/(nL) + (1−w)·F2(S)/n   s.t. |S| ≤ k
//
// with the approximate greedy machinery: one inverted index feeds both
// objectives. w = 1 reduces to ApproxF1, w = 0 to ApproxF2.
func Combined(g *graph.Graph, opts Options, w float64) (*Selection, error) {
	if err := opts.validate(g, true); err != nil {
		return nil, err
	}
	if w < 0 || w > 1 {
		return nil, fmt.Errorf("core: combination weight %v outside [0,1]", w)
	}
	if opts.L == 0 {
		return nil, fmt.Errorf("core: combined objective undefined at L=0 (F1 normalization nL vanishes)")
	}
	workers := opts.workers()
	start := time.Now()
	ix, err := index.BuildWorkers(g, opts.L, opts.R, opts.Seed, workers)
	if err != nil {
		return nil, err
	}
	d1, err := ix.NewDTable(index.Problem1)
	if err != nil {
		return nil, err
	}
	d2, err := ix.NewDTable(index.Problem2)
	if err != nil {
		return nil, err
	}
	build := time.Since(start)
	oracle := &combinedOracle{
		d1: d1, d2: d2, w: w,
		nL: float64(g.N()) * float64(opts.L),
		n:  float64(g.N()),
	}
	start = time.Now()
	res, err := greedy.Run(context.Background(), g.N(), opts.K, oracle, greedy.Config{Lazy: opts.Lazy, Workers: workers})
	if err != nil {
		return nil, err
	}
	return &Selection{
		Algorithm:   fmt.Sprintf("Combined(w=%.2f)", w),
		Nodes:       res.Selected,
		Gains:       res.Gains,
		Evaluations: res.Evaluations,
		BuildTime:   build,
		SelectTime:  time.Since(start),
	}, nil
}

// PartialCoverResult extends Selection with the coverage trajectory of the
// partial-cover run.
type PartialCoverResult struct {
	Selection
	// Coverage[i] is the estimated expected number of dominated nodes after
	// the first i+1 selections.
	Coverage []float64
	// Target is the requested α·n threshold.
	Target float64
	// Achieved reports whether the threshold was reached before exhausting
	// the candidate set.
	Achieved bool
}

// PartialCover solves the paper's complementary problem: find the minimum
// number of nodes whose expected domination count reaches at least α·n.
// Greedy selection on the submodular coverage objective gives the classic
// ln(1/ε)-style bicriteria guarantee for partial cover. Options.K is
// ignored; the budget is determined by the threshold (capped at n).
func PartialCover(g *graph.Graph, opts Options, alpha float64) (*PartialCoverResult, error) {
	if err := opts.validate(g, true); err != nil {
		return nil, err
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("core: coverage fraction α=%v outside [0,1]", alpha)
	}
	start := time.Now()
	ix, err := index.BuildWorkers(g, opts.L, opts.R, opts.Seed, opts.workers())
	if err != nil {
		return nil, err
	}
	d, err := ix.NewDTable(index.Problem2)
	if err != nil {
		return nil, err
	}
	build := time.Since(start)
	target := alpha * float64(g.N())
	res := &PartialCoverResult{Target: target}
	res.Algorithm = fmt.Sprintf("PartialCover(α=%.2f)", alpha)
	res.BuildTime = build

	start = time.Now()
	selected := make([]bool, g.N())
	covered := 0.0
	for covered < target && len(res.Nodes) < g.N() {
		best, bestGain := -1, 0.0
		for u := 0; u < g.N(); u++ {
			if selected[u] {
				continue
			}
			gn := d.Gain(u)
			res.Evaluations++
			if best == -1 || gn > bestGain {
				best, bestGain = u, gn
			}
		}
		if best == -1 || bestGain <= 0 {
			break // no candidate adds coverage: the target is unreachable
		}
		selected[best] = true
		d.Update(best)
		covered += bestGain
		res.Nodes = append(res.Nodes, best)
		res.Gains = append(res.Gains, bestGain)
		res.Coverage = append(res.Coverage, covered)
	}
	res.Achieved = covered >= target
	res.SelectTime = time.Since(start)
	return res, nil
}

// EdgeDomination estimates the expected number of distinct edges traversed
// by L-length random walks from all sources before they hit the targeted
// set S (the paper's second future-work problem). A walk that hits S stops
// contributing at the hit; a walk that never hits S contributes all the
// distinct edges it traverses. R walks per source are averaged. Larger
// values mean the targeted set leaves more of the graph "unshielded".
func EdgeDomination(g *graph.Graph, S []int, L, R int, seed uint64) (float64, error) {
	if g == nil || g.N() == 0 {
		return 0, graph.ErrEmptyGraph
	}
	if L < 0 {
		return 0, fmt.Errorf("core: negative walk length L=%d", L)
	}
	if R <= 0 {
		return 0, fmt.Errorf("core: sample size R=%d, want > 0", R)
	}
	inS := make([]bool, g.N())
	for _, v := range S {
		if v < 0 || v >= g.N() {
			return 0, fmt.Errorf("core: set member %d out of range [0,%d): %w", v, g.N(), graph.ErrNodeRange)
		}
		inS[v] = true
	}
	rnd := rng.New(seed)
	// Distinct-edge tracking with a generation-stamped map from packed edge
	// keys; walks are short so a small map reused across walks is fine.
	seen := make(map[int64]uint32, L)
	var generation uint32
	total := 0.0
	n := int64(g.N())
	for u := 0; u < g.N(); u++ {
		if inS[u] {
			continue
		}
		for i := 0; i < R; i++ {
			generation++
			cur := u
			count := 0
			for step := 0; step < L; step++ {
				v := g.PickNeighbor(cur, rnd.Float64())
				if v < 0 {
					break
				}
				a, b := int64(cur), int64(v)
				if a > b {
					a, b = b, a
				}
				key := a*n + b
				if seen[key] != generation {
					seen[key] = generation
					count++
				}
				if inS[v] {
					break
				}
				cur = v
			}
			total += float64(count)
		}
	}
	return total / float64(R), nil
}
