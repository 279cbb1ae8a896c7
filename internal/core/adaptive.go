package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/index"
)

// The paper proves the approximate greedy algorithm reaches 1 − 1/e − ε for
// "an appropriate parameter R" and observes empirically that R = 100
// suffices, but gives no procedure for picking R on an unfamiliar graph.
// ApproxAdaptive supplies one: double R until the greedy selection
// stabilizes between consecutive sample sizes. Because each run is cheap
// (O(kRLn)) and R grows geometrically, the total cost is within a constant
// factor of the final run.

// AdaptiveResult reports an ApproxAdaptive run.
type AdaptiveResult struct {
	Selection
	// RUsed is the sample size of the accepted selection.
	RUsed int
	// Rounds is the number of selection runs performed.
	Rounds int
	// Stability is the Jaccard similarity between the last two selections.
	Stability float64
}

// ApproxAdaptive runs the approximate greedy algorithm with geometrically
// increasing sample sizes, starting at opts.R (or 25 if zero), until the
// Jaccard similarity of two consecutive selections reaches stability (e.g.
// 0.95), or R exceeds 64× the starting value. The final selection is
// returned with the R that produced it.
func ApproxAdaptive(g *graph.Graph, opts Options, p index.Problem, stability float64) (*AdaptiveResult, error) {
	if stability <= 0 || stability > 1 {
		return nil, fmt.Errorf("core: stability %v outside (0,1]", stability)
	}
	if opts.R == 0 {
		opts.R = 25
	}
	if err := opts.validate(g, true); err != nil {
		return nil, err
	}
	start := time.Now()
	maxR := opts.R * 64
	var prev []int
	var last *Selection
	res := &AdaptiveResult{}
	workers := opts.workers()
	for r := opts.R; ; r *= 2 {
		ix, err := index.BuildWorkers(g, opts.L, r, opts.Seed, workers)
		if err != nil {
			return nil, err
		}
		sel, err := ApproxWithIndex(context.Background(), ix, p, opts.K, greedy.Config{Lazy: opts.Lazy, Workers: workers})
		if err != nil {
			return nil, err
		}
		res.Rounds++
		last = sel
		res.RUsed = r
		if prev != nil {
			res.Stability = jaccard(prev, sel.Nodes)
			if res.Stability >= stability {
				break
			}
		}
		if r*2 > maxR {
			break
		}
		prev = sel.Nodes
	}
	res.Selection = *last
	res.Selection.BuildTime = time.Since(start) - last.SelectTime
	return res, nil
}

// ApproxStochastic runs the approximate greedy algorithm with the
// stochastic-greedy driver (Mirzasoleiman et al.): each round evaluates a
// random ⌈(n/k)·ln(1/eps)⌉-subset of candidates against the inverted index.
// Total gain evaluations are O(n·ln(1/eps)) regardless of k, versus CELF's
// O(n) first sweep plus per-round re-evaluations; the guarantee relaxes to
// 1 − 1/e − ε(index) − eps(driver) in expectation. Use when both n and k
// are large.
func ApproxStochastic(g *graph.Graph, opts Options, p index.Problem, eps float64) (*Selection, error) {
	if err := opts.validate(g, true); err != nil {
		return nil, err
	}
	start := time.Now()
	ix, err := index.BuildWorkers(g, opts.L, opts.R, opts.Seed, opts.workers())
	if err != nil {
		return nil, err
	}
	d, err := ix.NewDTable(p)
	if err != nil {
		return nil, err
	}
	build := time.Since(start)
	start = time.Now()
	oracle, err := newDTableOracle(d)
	if err != nil {
		return nil, err
	}
	res, err := greedy.RunStochastic(g.N(), opts.K, oracle, eps, opts.Seed+0x57)
	if err != nil {
		return nil, err
	}
	name := "StochasticF1"
	if p == index.Problem2 {
		name = "StochasticF2"
	}
	return &Selection{
		Algorithm:   name,
		Nodes:       res.Selected,
		Gains:       res.Gains,
		Evaluations: res.Evaluations,
		BuildTime:   build,
		SelectTime:  time.Since(start),
	}, nil
}

// jaccard returns |A∩B| / |A∪B| for two node lists.
func jaccard(a, b []int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	set := make(map[int]bool, len(a))
	for _, u := range a {
		set[u] = true
	}
	inter := 0
	for _, u := range b {
		if set[u] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
