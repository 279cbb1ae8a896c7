package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/index"
)

// Adaptive replicate budgets. The paper's ε guarantee sizes the fixed sample
// count R for the worst case, so easy graphs pay full price and hard graphs
// get silent noise. The adaptive driver instead materializes the index in
// replicate chunks (index.BuildChunkedWorkers) and, each greedy round, bounds
// the separation between the leading candidate and the runner-up with a
// confidence interval over the per-replicate gain samples: when the interval
// half-width is at most ε at per-round confidence δ/k (union bound over the
// k rounds), the leader is committed with the replicates materialized so
// far; otherwise one more chunk is built and attached (ExtendReplicates +
// SyncChunks) and the round re-sweeps, capped at R. Easy instances finish
// with a fraction of R; hard instances spend the full budget and report
// their achieved interval instead of failing silently.
//
// The driver is deterministic: chunk contents are fixed by per-walk seeding,
// sweeps and interval arithmetic are pure functions of them, so selections
// and reported intervals are bit-for-bit identical at every worker count.

// Accuracy configures the adaptive stopping rule.
type Accuracy struct {
	// Epsilon is the target half-width of the per-round separation
	// confidence interval, in objective units (a per-replicate gain
	// average). Must be > 0 to enable the adaptive driver.
	Epsilon float64
	// Delta is the confidence parameter: each round's interval holds with
	// probability at least 1 − Delta/k. Must be in (0, 1).
	Delta float64
	// Chunk is the replicate-chunk width built per extension step; 0 means
	// ceil(R/8). Values above R are clamped to R.
	Chunk int
}

func (a Accuracy) validate() error {
	if a.Epsilon <= 0 || math.IsInf(a.Epsilon, 0) || math.IsNaN(a.Epsilon) {
		return fmt.Errorf("core: accuracy epsilon %v, want > 0", a.Epsilon)
	}
	if !(a.Delta > 0 && a.Delta < 1) {
		return fmt.Errorf("core: accuracy delta %v, want in (0, 1)", a.Delta)
	}
	if a.Chunk < 0 {
		return fmt.Errorf("core: accuracy chunk %d, want >= 0", a.Chunk)
	}
	return nil
}

// BudgetPick is one committed adaptive round: the greedy.Pick plus the round's
// separation-interval half-width and the replicates materialized when the
// leader was committed.
type BudgetPick struct {
	greedy.Pick
	CIWidth    float64
	Replicates int
}

// BudgetSelection is a Selection annotated with the adaptive run's accuracy
// evidence.
type BudgetSelection struct {
	Selection
	// ReplicatesUsed is the final materialized replicate width (≤ R).
	ReplicatesUsed int
	// ChunksBuilt counts index chunks materialized, including the first.
	ChunksBuilt int
	// EarlyStopped reports whether the run finished below the R cap.
	EarlyStopped bool
	// MaxCIWidth is the largest per-round separation half-width among the
	// committed rounds — the weakest of the per-round guarantees, so
	// MaxCIWidth ≤ ε certifies every round met the target.
	MaxCIWidth float64
	// Rounds holds each round's half-width and committed replicate count,
	// parallel to Selection.Nodes.
	Rounds []BudgetRound
}

// BudgetRound is the per-round accuracy record of a BudgetSelection.
type BudgetRound struct {
	CIWidth    float64
	Replicates int
}

// ApproxAdaptiveStream runs the approximate greedy algorithm under an
// adaptive replicate budget: opts.R is the cap, acc the stopping rule, and
// onPick (may be nil) observes each committed round. opts.Lazy is ignored —
// the adaptive loop re-sweeps all candidates each round because CELF bounds
// recorded at one replicate width are invalid after the width grows.
func ApproxAdaptiveStream(ctx context.Context, g *graph.Graph, p index.Problem, opts Options, acc Accuracy, onPick func(BudgetPick) error) (*BudgetSelection, error) {
	if err := opts.validate(g, true); err != nil {
		return nil, err
	}
	if err := acc.validate(); err != nil {
		return nil, err
	}
	if p != index.Problem1 && p != index.Problem2 {
		return nil, fmt.Errorf("core: unknown problem %d", int(p))
	}
	workers := opts.workers()
	n := g.N()
	k := opts.K
	if k > n {
		k = n
	}
	chunk := acc.Chunk
	if chunk == 0 {
		chunk = (opts.R + 7) / 8
	}
	if chunk > opts.R {
		chunk = opts.R
	}
	// δ is split evenly over the rounds (union bound), so the k per-round
	// intervals hold jointly with probability ≥ 1 − δ.
	deltaRound := acc.Delta
	if k > 1 {
		deltaRound = acc.Delta / float64(k)
	}

	start := time.Now()
	// Materialize only the first chunk up front; rounds extend on demand.
	ix, err := index.BuildChunkedRangeWorkers(g, opts.L, opts.Seed, 0, chunk, chunk, workers)
	if err != nil {
		return nil, err
	}
	d, err := ix.NewDTable(p)
	if err != nil {
		return nil, err
	}
	buildTime := time.Since(start)
	chunksBuilt := 1

	sel := &BudgetSelection{}
	members := make([]bool, n)
	var total float64
	var sampA, sampB []int64
	selStart := time.Now()
	for round := 0; round < k; round++ {
		var committed bool
		for {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			nodes, sums, err := TopGainSums(ctx, d, 2, members, workers)
			if err != nil {
				return nil, err
			}
			sel.Evaluations += n - round
			if len(nodes) == 0 {
				break
			}
			m := ix.R()
			hw := 0.0
			if len(nodes) > 1 {
				sampA = d.AppendReplicateGainSums(nodes[0], sampA[:0])
				sampB = d.AppendReplicateGainSums(nodes[1], sampB[:0])
				hw = separationHalfWidth(sampA, sampB, gainRangeBound(ix, p, nodes[0], nodes[1]), deltaRound)
			}
			if hw <= acc.Epsilon || m >= opts.R {
				gain := float64(sums[0]) / float64(m)
				total += gain
				u := nodes[0]
				d.Update(u)
				members[u] = true
				sel.Nodes = append(sel.Nodes, u)
				sel.Gains = append(sel.Gains, gain)
				sel.Rounds = append(sel.Rounds, BudgetRound{CIWidth: hw, Replicates: m})
				if hw > sel.MaxCIWidth {
					sel.MaxCIWidth = hw
				}
				if onPick != nil {
					if err := onPick(BudgetPick{
						Pick:       greedy.Pick{Round: round + 1, Node: u, Gain: gain, Total: total},
						CIWidth:    hw,
						Replicates: m,
					}); err != nil {
						return nil, err
					}
				}
				committed = true
				break
			}
			grow := chunk
			if m+grow > opts.R {
				grow = opts.R - m
			}
			bt := time.Now()
			if err := ix.ExtendReplicates(grow, workers); err != nil {
				return nil, err
			}
			buildTime += time.Since(bt)
			if err := d.SyncChunks(); err != nil {
				return nil, err
			}
			chunksBuilt++
		}
		if !committed {
			break
		}
	}
	sel.Algorithm = "AdaptiveF1"
	if p == index.Problem2 {
		sel.Algorithm = "AdaptiveF2"
	}
	sel.BuildTime = buildTime
	sel.SelectTime = time.Since(selStart)
	sel.ReplicatesUsed = ix.R()
	sel.ChunksBuilt = chunksBuilt
	sel.EarlyStopped = ix.R() < opts.R
	return sel, nil
}

// gainRangeBound bounds the range of one replicate's gain separation between
// candidates a and b: each candidate's per-replicate gain lies in [0, B(u)],
// where B(u) follows from u's densest index row — for Problem 2 a replicate
// contributes at most 1 (u's own walk) plus one per row entry; for Problem 1
// at most L (u's own hitting time) plus L−1 improvement per row entry. The
// difference therefore spans at most B(a) + B(b).
func gainRangeBound(ix *index.Index, p index.Problem, a, b int) float64 {
	bound := func(u int) float64 {
		rowLen := float64(ix.MaxRowLen(u))
		if p == index.Problem1 {
			l := float64(ix.L())
			improve := l - 1
			if improve < 0 {
				improve = 0
			}
			return l + rowLen*improve
		}
		return 1 + rowLen
	}
	return bound(a) + bound(b)
}

// separationHalfWidth bounds |empirical mean − true mean| of the
// per-replicate separation Y_i = gain_i(a) − gain_i(b) at confidence 1 − δ,
// taking the smaller of two two-sided bounds over m samples of range width w:
//
//   - Hoeffding: w·sqrt(ln(2/δ) / 2m) — tight when the separation is
//     high-variance or m is tiny;
//   - empirical Bernstein (Audibert–Munos–Szepesvári):
//     sqrt(2·V̂·ln(3/δ)/m) + 3·w·ln(3/δ)/m with V̂ the empirical variance —
//     far tighter once the observed variance is small, which is the common
//     case for a clear leader.
//
// The computation is pure float64 arithmetic over integer samples, so it is
// bit-reproducible at every worker count.
func separationHalfWidth(sampA, sampB []int64, w, delta float64) float64 {
	m := len(sampA)
	if m == 0 || w <= 0 {
		return 0
	}
	fm := float64(m)
	var sum int64
	for i := range sampA {
		sum += sampA[i] - sampB[i]
	}
	mean := float64(sum) / fm
	variance := 0.0
	for i := range sampA {
		dev := float64(sampA[i]-sampB[i]) - mean
		variance += dev * dev
	}
	variance /= fm
	hoeffding := w * math.Sqrt(math.Log(2/delta)/(2*fm))
	bernstein := math.Sqrt(2*variance*math.Log(3/delta)/fm) + 3*w*math.Log(3/delta)/fm
	return math.Min(hoeffding, bernstein)
}
