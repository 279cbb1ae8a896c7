package greedy

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// RunStochastic executes stochastic greedy ("lazier than lazy greedy",
// Mirzasoleiman et al., AAAI 2015): each round evaluates a uniform random
// subset of ⌈(n/k)·ln(1/eps)⌉ remaining candidates and selects the best
// among them. For a nondecreasing submodular objective this achieves a
// (1 − 1/e − eps) approximation in expectation with only O(n·ln(1/eps))
// total gain evaluations — independent of k.
//
// It slots into this module as the third flavor next to Run's plain and
// lazy loops: on the paper's problems it trades a provably bounded sliver
// of quality for k-independent cost, which matters when both n and k are
// large and even CELF's first full sweep dominates.
func RunStochastic(n, k int, oracle Oracle, eps float64, seed uint64) (*Result, error) {
	k, err := validate(n, k)
	if err != nil {
		return nil, err
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("greedy: stochastic eps %v outside (0,1)", eps)
	}
	res := &Result{Selected: make([]int, 0, k), Gains: make([]float64, 0, k)}
	if k == 0 {
		return res, nil
	}
	sample := int(math.Ceil(float64(n) / float64(k) * math.Log(1/eps)))
	if sample < 1 {
		sample = 1
	}
	r := rng.New(seed)

	// remaining holds the not-yet-selected candidates; sampling without
	// replacement is a partial Fisher–Yates over its prefix.
	remaining := make([]int32, n)
	for i := range remaining {
		remaining[i] = int32(i)
	}
	for round := 0; round < k && len(remaining) > 0; round++ {
		s := sample
		if s > len(remaining) {
			s = len(remaining)
		}
		for i := 0; i < s; i++ {
			j := i + r.Intn(len(remaining)-i)
			remaining[i], remaining[j] = remaining[j], remaining[i]
		}
		// Ties break toward the smaller node id, matching Run's loops,
		// so a full sample reproduces plain greedy exactly.
		bestIdx, bestGain := -1, 0.0
		for i := 0; i < s; i++ {
			u := int(remaining[i])
			g := oracle.Gain(u)
			res.Evaluations++
			if bestIdx == -1 || g > bestGain || (g == bestGain && u < int(remaining[bestIdx])) {
				bestIdx, bestGain = i, g
			}
		}
		best := int(remaining[bestIdx])
		remaining[bestIdx] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
		oracle.Update(best)
		res.Selected = append(res.Selected, best)
		res.Gains = append(res.Gains, bestGain)
	}
	return res, nil
}
