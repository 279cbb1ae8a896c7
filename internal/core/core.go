// Package core implements the random-walk domination algorithms of the
// paper — its primary contribution:
//
//   - DPF1 / DPF2: the DP-based greedy algorithm of Section 3.1, computing
//     exact marginal gains with the dynamic program of Theorems 2.2/2.3;
//     O(k n m L) time (O(n + kn·mL) objective evaluations), impractical
//     beyond small graphs, and the accuracy reference for everything else.
//   - SampleF1 / SampleF2: the sampling-based greedy algorithm of Section
//     3.1, estimating marginal gains with Algorithm 2; O(k n² R L) walks.
//   - ApproxF1 / ApproxF2: the approximate greedy algorithm of Section 3.2
//     (Algorithm 6), materializing R walks per node in an inverted index and
//     estimating all marginal gains from it; O(k R L n) time, O(nRL + m)
//     space, 1 − 1/e − ε approximation.
//   - Degree / Dominate: the two baselines of Section 4.1.
//   - Combined / PartialCover / EdgeDomination: the three future-work
//     extensions sketched in Section 5.
//
// All algorithms return a Selection describing the chosen nodes in selection
// order with their recorded marginal gains and timing breakdowns. Every
// greedy algorithm here runs through the one driver greedy.Run, configured
// with greedy.Config. ApproxWithIndex is the single entry point for the
// approximate algorithm on an already-built index: the ApproxF1/F2
// one-shots, ApproxAdaptive, the query-serving engine and the experiments
// all call it, and its Config.Observe streams each committed round.
package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/hitting"
	"repro/internal/index"
	"repro/internal/walk"
)

// Options configures a selection run.
type Options struct {
	// K is the cardinality budget |S| <= K. Values above n are clamped.
	K int
	// L is the random-walk length bound.
	L int
	// R is the per-node sample size for the sampling-based and approximate
	// algorithms (ignored by DP and baselines). The paper finds R = 100
	// sufficient in practice (Section 4.2).
	R int
	// Seed makes sampling deterministic.
	Seed uint64
	// Lazy selects the CELF lazy-evaluation driver instead of the plain
	// per-round scan. Valid for the DP and approximate algorithms, whose
	// gain functions are submodular (exactly, and per-sample respectively).
	Lazy bool
	// Workers shards index construction and the approximate algorithms'
	// gain evaluations over this many goroutines. Zero (the default) means
	// runtime.GOMAXPROCS(0). Selections are bit-for-bit identical for every
	// worker count: walks are seeded per (node, replicate) and gains
	// accumulate in integers, so only wall-clock time changes.
	Workers int
}

// workers resolves the Workers knob, defaulting to all available cores.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) validate(g *graph.Graph, needsR bool) error {
	if g == nil || g.N() == 0 {
		return graph.ErrEmptyGraph
	}
	if o.K < 0 {
		return fmt.Errorf("core: negative budget K=%d", o.K)
	}
	if o.L < 0 {
		return fmt.Errorf("core: negative walk length L=%d", o.L)
	}
	if needsR && o.R <= 0 {
		return fmt.Errorf("core: sample size R=%d, want > 0", o.R)
	}
	return nil
}

// Selection is the result of a selection algorithm.
type Selection struct {
	// Algorithm is the name used in the paper's figures (e.g. "ApproxF1").
	Algorithm string
	// Nodes lists the selected nodes in selection order; prefixes of the
	// list are the algorithm's selections for smaller budgets.
	Nodes []int
	// Gains holds the marginal gain recorded at each selection, parallel to
	// Nodes. For sampled algorithms these are estimates.
	Gains []float64
	// Evaluations counts marginal-gain computations.
	Evaluations int
	// BuildTime is preprocessing time (index construction); SelectTime is
	// the greedy loop. Total run time is their sum.
	BuildTime  time.Duration
	SelectTime time.Duration
}

// Objective returns the telescoped objective value Σ Gains.
func (s *Selection) Objective() float64 {
	t := 0.0
	for _, g := range s.Gains {
		t += g
	}
	return t
}

func (s *Selection) String() string {
	return fmt.Sprintf("%s: k=%d objective=%.4g build=%v select=%v",
		s.Algorithm, len(s.Nodes), s.Objective(), s.BuildTime.Round(time.Millisecond), s.SelectTime.Round(time.Millisecond))
}

// ---------------------------------------------------------------------------
// DP-based greedy (DPF1, DPF2)
// ---------------------------------------------------------------------------

// dpOracle computes exact marginal gains F(S ∪ {u}) − F(S) with the dynamic
// program, caching F(S) between updates.
type dpOracle struct {
	obj  func([]int) (float64, error)
	s    []int
	cand []int
	cur  float64
	err  error
}

func (o *dpOracle) Gain(u int) float64 {
	if o.err != nil {
		return 0
	}
	o.cand = append(o.cand[:0], o.s...)
	o.cand = append(o.cand, u)
	f, err := o.obj(o.cand)
	if err != nil {
		o.err = err
		return 0
	}
	return f - o.cur
}

func (o *dpOracle) Update(u int) {
	if o.err != nil {
		return
	}
	o.s = append(o.s, u)
	f, err := o.obj(o.s)
	if err != nil {
		o.err = err
		return
	}
	o.cur = f
}

func dpGreedy(g *graph.Graph, opts Options, name string, pick func(*hitting.Evaluator) func([]int) (float64, error)) (*Selection, error) {
	if err := opts.validate(g, false); err != nil {
		return nil, err
	}
	start := time.Now()
	ev, err := hitting.NewEvaluator(g, opts.L)
	if err != nil {
		return nil, err
	}
	oracle := &dpOracle{obj: pick(ev)}
	build := time.Since(start)
	start = time.Now()
	res, err := greedy.Run(context.Background(), g.N(), opts.K, oracle, greedy.Config{Lazy: opts.Lazy})
	if err != nil {
		return nil, err
	}
	if oracle.err != nil {
		return nil, oracle.err
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

// DPF1 solves Problem 1 with the DP-based greedy algorithm: exact marginal
// gains for F1(S) = nL − Σ_{u∈V\S} h^L_{uS}, 1 − 1/e approximation.
func DPF1(g *graph.Graph, opts Options) (*Selection, error) {
	return dpGreedy(g, opts, "DPF1", func(ev *hitting.Evaluator) func([]int) (float64, error) {
		return ev.F1
	})
}

// DPF2 solves Problem 2 with the DP-based greedy algorithm: exact marginal
// gains for F2(S) = Σ_{u∈V} p^L_{uS}, 1 − 1/e approximation.
func DPF2(g *graph.Graph, opts Options) (*Selection, error) {
	return dpGreedy(g, opts, "DPF2", func(ev *hitting.Evaluator) func([]int) (float64, error) {
		return ev.F2
	})
}

// ---------------------------------------------------------------------------
// Sampling-based greedy (SampleF1, SampleF2)
// ---------------------------------------------------------------------------

// sampleOracle estimates marginal gains by running Algorithm 2 afresh for
// every candidate — the paper's intermediate algorithm, O(kn²R) walks total.
type sampleOracle struct {
	est   *walk.Estimator
	first bool // true: F1, false: F2
	r     int
	s     []int
	cand  []int
	cur   float64
	err   error
}

func (o *sampleOracle) eval(S []int) float64 {
	if o.err != nil {
		return 0
	}
	f1, f2, err := o.est.EstimateF(S, o.r)
	if err != nil {
		o.err = err
		return 0
	}
	if o.first {
		return f1
	}
	return f2
}

func (o *sampleOracle) Gain(u int) float64 {
	o.cand = append(o.cand[:0], o.s...)
	o.cand = append(o.cand, u)
	return o.eval(o.cand) - o.cur
}

func (o *sampleOracle) Update(u int) {
	o.s = append(o.s, u)
	o.cur = o.eval(o.s)
}

func sampleGreedy(g *graph.Graph, opts Options, name string, first bool) (*Selection, error) {
	if err := opts.validate(g, true); err != nil {
		return nil, err
	}
	start := time.Now()
	est, err := walk.NewEstimator(g, opts.L, opts.Seed)
	if err != nil {
		return nil, err
	}
	oracle := &sampleOracle{est: est, first: first, r: opts.R}
	build := time.Since(start)
	start = time.Now()
	// Sampling noise breaks exact submodularity, so the plain driver is used
	// regardless of opts.Lazy: a stale CELF bound may be violated by noise.
	res, err := greedy.Run(context.Background(), g.N(), opts.K, oracle, greedy.Config{})
	if err != nil {
		return nil, err
	}
	if oracle.err != nil {
		return nil, oracle.err
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

// SampleF1 solves Problem 1 with the sampling-based greedy algorithm,
// re-estimating every marginal gain with Algorithm 2.
func SampleF1(g *graph.Graph, opts Options) (*Selection, error) {
	return sampleGreedy(g, opts, "SampleF1", true)
}

// SampleF2 solves Problem 2 with the sampling-based greedy algorithm.
func SampleF2(g *graph.Graph, opts Options) (*Selection, error) {
	return sampleGreedy(g, opts, "SampleF2", false)
}

// ---------------------------------------------------------------------------
// Approximate greedy (ApproxF1, ApproxF2) — Algorithm 6
// ---------------------------------------------------------------------------

// dtableOracle adapts an index.DTable to the greedy.BatchOracle interface.
// Gain and GainBatch are pure reads of the D-table, so greedy.Run may call
// them concurrently between Updates. While the table is empty — round 1 of
// every driver — they answer from the index's memoized empty-set gain sums
// instead: the same integer sum divided by the same R as DTable.Gain, so
// the values are the same float64 bits without a D-table sweep.
type dtableOracle struct {
	d     *index.DTable
	empty []int64 // Index.EmptySetGainSums of d's problem
	r     float64
}

// newDTableOracle wraps d, fetching the empty-set sums once up front: inside
// GainBatch the concurrent sweep workers would queue on the memo's lock.
func newDTableOracle(d *index.DTable) (dtableOracle, error) {
	empty, err := d.Index().EmptySetGainSums(d.Problem())
	if err != nil {
		return dtableOracle{}, err
	}
	return dtableOracle{d: d, empty: empty, r: float64(d.Index().R())}, nil
}

func (o dtableOracle) Gain(u int) float64 {
	if o.d.Size() == 0 {
		return float64(o.empty[u]) / o.r
	}
	return o.d.Gain(u)
}

func (o dtableOracle) Update(u int) { o.d.Update(u) }

func (o dtableOracle) GainBatch(us []int, out []float64) []float64 {
	if o.d.Size() == 0 {
		for _, u := range us {
			out = append(out, float64(o.empty[u])/o.r)
		}
		return out
	}
	return o.d.GainBatch(us, out)
}

// ApproxF1 solves Problem 1 with the approximate greedy algorithm
// (Algorithm 6): build the inverted index once, then run greedy with
// index-estimated gains. O(kRLn) time, O(nRL + m) space.
func ApproxF1(g *graph.Graph, opts Options) (*Selection, error) {
	return approxGreedy(g, opts, "ApproxF1", index.Problem1)
}

// ApproxF2 solves Problem 2 with the approximate greedy algorithm.
func ApproxF2(g *graph.Graph, opts Options) (*Selection, error) {
	return approxGreedy(g, opts, "ApproxF2", index.Problem2)
}

func approxGreedy(g *graph.Graph, opts Options, name string, p index.Problem) (*Selection, error) {
	if err := opts.validate(g, true); err != nil {
		return nil, err
	}
	workers := opts.workers()
	start := time.Now()
	ix, err := index.BuildWorkers(g, opts.L, opts.R, opts.Seed, workers)
	if err != nil {
		return nil, err
	}
	build := time.Since(start)
	sel, err := ApproxWithIndex(context.Background(), ix, p, opts.K, greedy.Config{Lazy: opts.Lazy, Workers: workers})
	if err != nil {
		return nil, err
	}
	sel.Algorithm = name
	sel.BuildTime = build
	return sel, nil
}

// ApproxWithIndex runs the greedy loop of Algorithm 6 on an already-built
// index, so several budgets or both problems can share one
// materialization. cfg selects the driver as for greedy.Run, except that
// Workers <= 0 means runtime.GOMAXPROCS(0); selections are bit-for-bit
// identical for every worker count and with or without cfg.Observe.
// Canceling ctx aborts the greedy loop between evaluation strides and
// returns ctx's error — how the query-serving engine enforces per-request
// timeouts and graceful drain. BuildTime in the result covers only the
// D-table setup.
//
// Round 1 is answered from the index's memoized empty-set gain sums
// (Index.EmptySetGainSums) rather than a D-table sweep, with bit-identical
// gains and the same Evaluations count. The first select on a fresh or
// just-repaired index pays the one-off O(entries) sum, inside SelectTime;
// later selects on the same index read round 1 for free.
func ApproxWithIndex(ctx context.Context, ix *index.Index, p index.Problem, k int, cfg greedy.Config) (*Selection, error) {
	if k < 0 {
		return nil, fmt.Errorf("core: negative budget K=%d", k)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	d, err := ix.NewDTable(p)
	if err != nil {
		return nil, err
	}
	build := time.Since(start)
	start = time.Now()
	// A request canceled already need not pay for the one-off memo sum.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	oracle, err := newDTableOracle(d)
	if err != nil {
		return nil, err
	}
	res, err := greedy.Run(ctx, ix.Graph().N(), k, oracle, cfg)
	if err != nil {
		return nil, err
	}
	name := "ApproxF1"
	if p == index.Problem2 {
		name = "ApproxF2"
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

// ApproxWithIndexCtx is ApproxWithIndex with cfg spelled out as lazy and
// workers. It remains only because the repository benchmark under bench/
// computes its reference selections through this name.
func ApproxWithIndexCtx(ctx context.Context, ix *index.Index, p index.Problem, k int, lazy bool, workers int) (*Selection, error) {
	return ApproxWithIndex(ctx, ix, p, k, greedy.Config{Lazy: lazy, Workers: workers})
}

// ---------------------------------------------------------------------------
// Baselines (Section 4.1)
// ---------------------------------------------------------------------------

// Degree is the paper's first baseline: select the k highest-degree nodes.
func Degree(g *graph.Graph, k int) (*Selection, error) {
	if g == nil || g.N() == 0 {
		return nil, graph.ErrEmptyGraph
	}
	if k < 0 {
		return nil, fmt.Errorf("core: negative budget K=%d", k)
	}
	start := time.Now()
	nodes := g.TopKByDegree(k)
	gains := make([]float64, len(nodes))
	for i, u := range nodes {
		gains[i] = float64(g.Degree(u))
	}
	return &Selection{
		Algorithm:  "Degree",
		Nodes:      nodes,
		Gains:      gains,
		SelectTime: time.Since(start),
	}, nil
}

// Core is an additional baseline beyond the paper: select the k nodes with
// the highest k-core number (ties by degree). Core numbers are robust to
// locally star-like hubs, so this baseline separates "embedded in a dense
// region" from "merely high degree" — a useful contrast when interpreting
// why Degree underperforms greedy.
func Core(g *graph.Graph, k int) (*Selection, error) {
	if g == nil || g.N() == 0 {
		return nil, graph.ErrEmptyGraph
	}
	if k < 0 {
		return nil, fmt.Errorf("core: negative budget K=%d", k)
	}
	start := time.Now()
	core := g.CoreNumbers()
	nodes := g.TopKByCore(k)
	gains := make([]float64, len(nodes))
	for i, u := range nodes {
		gains[i] = float64(core[u])
	}
	return &Selection{
		Algorithm:  "Core",
		Nodes:      nodes,
		Gains:      gains,
		SelectTime: time.Since(start),
	}, nil
}

// Dominate is the paper's second baseline: the greedy partial dominating-set
// heuristic. In each round it selects v = argmax_{u∈V\S} |N({u}) − N(S)|,
// the node whose (open) neighborhood covers the most not-yet-covered nodes,
// exactly as specified in Section 4.1.
func Dominate(g *graph.Graph, k int) (*Selection, error) {
	if g == nil || g.N() == 0 {
		return nil, graph.ErrEmptyGraph
	}
	if k < 0 {
		return nil, fmt.Errorf("core: negative budget K=%d", k)
	}
	start := time.Now()
	covered := make([]bool, g.N())
	oracle := greedy.OracleFuncs(
		func(u int) float64 {
			gain := 0
			for _, v := range g.Neighbors(u) {
				if !covered[v] {
					gain++
				}
			}
			return float64(gain)
		},
		func(u int) {
			for _, v := range g.Neighbors(u) {
				covered[v] = true
			}
		},
	)
	// Neighborhood coverage is submodular, so the lazy driver is exact and
	// keeps the baseline fast on large graphs.
	res, err := greedy.Run(context.Background(), g.N(), k, oracle, greedy.Config{Lazy: true})
	if err != nil {
		return nil, err
	}
	return &Selection{
		Algorithm:   "Dominate",
		Nodes:       res.Selected,
		Gains:       res.Gains,
		Evaluations: res.Evaluations,
		SelectTime:  time.Since(start),
	}, nil
}
