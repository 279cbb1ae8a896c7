package rwdom

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/hitting"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/simulate"
	"repro/internal/walk"
)

// Graph is an immutable graph in compressed sparse row form; see Builder and
// the Generate/Load constructors.
type Graph = graph.Graph

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// Kind distinguishes undirected from directed graphs.
type Kind = graph.Kind

// Graph kinds.
const (
	Undirected = graph.Undirected
	Directed   = graph.Directed
)

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int, kind Kind) *Builder { return graph.NewBuilder(n, kind) }

// FromEdgeList builds an undirected, unweighted graph from an edge list.
func FromEdgeList(n int, edges [][2]int) (*Graph, error) { return graph.FromEdgeList(n, edges) }

// ReadEdgeList parses a whitespace-separated edge list (SNAP format:
// "u v [w]" lines, '#'/'%' comments) and builds a graph.
func ReadEdgeList(r io.Reader, kind Kind) (*Graph, error) { return graph.ReadEdgeList(r, kind) }

// LoadEdgeListFile reads an edge-list file from disk.
func LoadEdgeListFile(path string, kind Kind) (*Graph, error) {
	return graph.LoadEdgeListFile(path, kind)
}

// GenerateBarabasiAlbert generates a connected power-law graph by
// preferential attachment with a fixed per-node attachment count.
func GenerateBarabasiAlbert(n, mPerNode int, seed uint64) (*Graph, error) {
	return graph.BarabasiAlbert(n, mPerNode, seed)
}

// GeneratePowerLaw generates a connected power-law graph with n nodes and
// approximately m edges (exact up to rare deduplication losses).
func GeneratePowerLaw(n, m int, seed uint64) (*Graph, error) {
	return dataset.PowerLawExact(n, m, seed)
}

// GenerateErdosRenyi generates a uniform random graph with exactly m edges.
func GenerateErdosRenyi(n, m int, seed uint64) (*Graph, error) {
	return graph.ErdosRenyi(n, m, seed)
}

// LoadDataset generates the deterministic stand-in for one of the paper's
// Table 2 datasets ("CAGrQc", "CAHepPh", "Brightkite", "Epinions") at the
// given scale in (0, 1]; scale 1 reproduces the paper's node count.
func LoadDataset(name string, scale float64) (*Graph, error) { return dataset.Load(name, scale) }

// DatasetNames lists the Table 2 dataset names in paper order.
func DatasetNames() []string { return dataset.Names() }

// Algorithm selects the solver used by MinimizeHittingTime and
// MaximizeCoverage.
type Algorithm int

const (
	// AlgorithmAuto picks AlgorithmDP for small graphs (n ≤ 2000) and
	// AlgorithmApprox otherwise.
	AlgorithmAuto Algorithm = iota
	// AlgorithmDP is the DP-based greedy algorithm: exact marginal gains,
	// O(k·n·m·L) time. Small graphs only.
	AlgorithmDP
	// AlgorithmSampling is the sampling-based greedy algorithm: marginal
	// gains re-estimated from fresh walks each round.
	AlgorithmSampling
	// AlgorithmApprox is the paper's approximate greedy algorithm over a
	// materialized inverted index of walk samples: O(k·R·L·n) time,
	// O(n·R·L + m) space, 1 − 1/e − ε guarantee. The default for large
	// graphs.
	AlgorithmApprox
	// AlgorithmDegree is the top-k-degree baseline.
	AlgorithmDegree
	// AlgorithmDominate is the greedy partial dominating-set baseline.
	AlgorithmDominate
	// AlgorithmCore is an extra baseline beyond the paper: top-k nodes by
	// k-core number (ties by degree).
	AlgorithmCore
)

func (a Algorithm) String() string {
	switch a {
	case AlgorithmAuto:
		return "Auto"
	case AlgorithmDP:
		return "DP"
	case AlgorithmSampling:
		return "Sampling"
	case AlgorithmApprox:
		return "Approx"
	case AlgorithmDegree:
		return "Degree"
	case AlgorithmDominate:
		return "Dominate"
	case AlgorithmCore:
		return "Core"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures a selection. The zero value is not useful: set at
// least K and L (and R for the sampled algorithms; DefaultR is the paper's
// recommended value).
type Options struct {
	// K is the number of nodes to select (the cardinality budget).
	K int
	// L bounds the random-walk length; the paper uses L ∈ [2, 10] with
	// L = 6 as the workhorse.
	L int
	// R is the per-node sample size for sampled algorithms. The paper finds
	// R = 100 sufficient (Section 4.2). Defaults to DefaultR when zero and
	// a sampled algorithm is chosen.
	R int
	// Seed fixes the sampling randomness; runs are fully deterministic for
	// a given (graph, Options) pair.
	Seed uint64
	// Algorithm picks the solver; see the Algorithm constants.
	Algorithm Algorithm
	// Lazy enables the CELF lazy-evaluation driver for the DP and
	// approximate algorithms (identical selections, usually far fewer gain
	// evaluations). Defaults to true for AlgorithmAuto resolution.
	Lazy bool
	// Workers shards index construction and the approximate algorithm's
	// gain evaluations over this many goroutines; zero means
	// runtime.GOMAXPROCS(0), i.e. all available cores. Selections are
	// bit-for-bit identical for every worker count — walks are seeded per
	// (node, replicate) and gains accumulate in integers — so the knob only
	// changes wall-clock time.
	Workers int
}

// DefaultR is the sample size the paper recommends for the approximate
// algorithms.
const DefaultR = 100

// Selection reports a selection run; see internal/core.Selection.
type Selection = core.Selection

func (o Options) resolve(g *Graph) (Options, error) {
	if g == nil || g.N() == 0 {
		return o, graph.ErrEmptyGraph
	}
	if o.Algorithm == AlgorithmAuto {
		if g.N() <= 2000 {
			o.Algorithm = AlgorithmDP
		} else {
			o.Algorithm = AlgorithmApprox
		}
		o.Lazy = true
	}
	if o.R == 0 && (o.Algorithm == AlgorithmSampling || o.Algorithm == AlgorithmApprox) {
		o.R = DefaultR
	}
	return o, nil
}

func (o Options) coreOptions() core.Options {
	return core.Options{K: o.K, L: o.L, R: o.R, Seed: o.Seed, Lazy: o.Lazy, Workers: o.Workers}
}

// Solve selects up to Options.K nodes for problem p with the chosen
// solver — the problem-parameterized home of the direct algorithms (DP,
// sampling, and the degree/dominate/core baselines), which have no serving
// equivalent. AlgorithmApprox routes through a throwaway default Engine;
// long-lived approximate users should Open an Engine and Select against it
// instead, sharing walk indexes and memoized reads across calls and
// problems. Baseline algorithms ignore p (they never look at the
// objective).
func Solve(g *Graph, p Problem, opts Options) (*Selection, error) {
	if p != Problem1 && p != Problem2 {
		return nil, fmt.Errorf("rwdom: unknown problem %v", p)
	}
	opts, err := opts.resolve(g)
	if err != nil {
		return nil, err
	}
	switch opts.Algorithm {
	case AlgorithmDP:
		if p == Problem2 {
			return core.DPF2(g, opts.coreOptions())
		}
		return core.DPF1(g, opts.coreOptions())
	case AlgorithmSampling:
		if p == Problem2 {
			return core.SampleF2(g, opts.coreOptions())
		}
		return core.SampleF1(g, opts.coreOptions())
	case AlgorithmApprox:
		return defaultEngineSelect(g, opts, p)
	case AlgorithmDegree:
		return core.Degree(g, opts.K)
	case AlgorithmDominate:
		return core.Dominate(g, opts.K)
	case AlgorithmCore:
		return core.Core(g, opts.K)
	default:
		return nil, fmt.Errorf("rwdom: unknown algorithm %v", opts.Algorithm)
	}
}

// MinimizeHittingTime solves Problem 1: select up to K nodes minimizing the
// total expected L-length hitting time from the remaining nodes
// (equivalently, maximizing F1(S) = nL − Σ_{u∈V\S} h^L_{uS}).
//
// Deprecated: use Open and Engine.Select with Problem1 — the context-first
// API shares walk indexes and memoized reads across calls and problems —
// or Solve with Problem1 for the direct (DP, sampling, baseline)
// algorithms. This shim is Solve(g, Problem1, opts); selections are
// bit-for-bit unchanged.
func MinimizeHittingTime(g *Graph, opts Options) (*Selection, error) {
	return Solve(g, Problem1, opts)
}

// MaximizeCoverage solves Problem 2: select up to K nodes maximizing the
// expected number of nodes whose L-length random walk hits the selection
// (F2(S) = E[Σ_u X^L_{uS}]).
//
// Deprecated: use Open and Engine.Select with Problem2, or Solve with
// Problem2; see MinimizeHittingTime for the shim semantics.
func MaximizeCoverage(g *Graph, opts Options) (*Selection, error) {
	return Solve(g, Problem2, opts)
}

// Metrics holds the paper's two effectiveness metrics: AHT (average hitting
// time, lower is better) and EHN (expected number of dominated nodes, higher
// is better).
type Metrics = metrics.Result

// EvaluateExact computes both metrics for a selection with the exact dynamic
// program (O(mL) time).
func EvaluateExact(g *Graph, S []int, L int) (Metrics, error) {
	return metrics.Exact(g, S, L)
}

// EvaluateSampled estimates both metrics with R random walks per node
// (Algorithm 2); the paper reports metrics at R = 500.
func EvaluateSampled(g *Graph, S []int, L, R int, seed uint64) (Metrics, error) {
	return metrics.Sampled(g, S, L, R, seed)
}

// HittingTimes returns the exact generalized hitting time h^L_{uS} from
// every node u to the set S (Theorem 2.2). Members of S have hitting time
// 0; nodes that cannot reach S within L hops have hitting time L.
func HittingTimes(g *Graph, S []int, L int) ([]float64, error) {
	ev, err := hitting.NewEvaluator(g, L)
	if err != nil {
		return nil, err
	}
	return ev.HitTimesToSet(S, nil)
}

// HitProbabilities returns the exact probability p^L_{uS} that an L-length
// walk from each node u reaches the set S (Theorem 2.3).
func HitProbabilities(g *Graph, S []int, L int) ([]float64, error) {
	ev, err := hitting.NewEvaluator(g, L)
	if err != nil {
		return nil, err
	}
	return ev.HitProbsToSet(S, nil)
}

// SelectCombined maximizes the weighted combined objective
// w·F1/(nL) + (1−w)·F2/n of the paper's first future-work extension, using
// the approximate greedy machinery. w = 1 reduces to Problem 1, w = 0 to
// Problem 2.
func SelectCombined(g *Graph, opts Options, w float64) (*Selection, error) {
	opts, err := opts.resolve(g)
	if err != nil {
		return nil, err
	}
	if opts.R == 0 {
		opts.R = DefaultR
	}
	return core.Combined(g, opts.coreOptions(), w)
}

// PartialCoverResult reports a MinimumCoverSet run.
type PartialCoverResult = core.PartialCoverResult

// MinimumCoverSet solves the paper's complementary future-work problem:
// find the (approximately) minimum set whose expected domination reaches
// alpha·n nodes. Options.K is ignored.
func MinimumCoverSet(g *Graph, opts Options, alpha float64) (*PartialCoverResult, error) {
	opts, err := opts.resolve(g)
	if err != nil {
		return nil, err
	}
	if opts.R == 0 {
		opts.R = DefaultR
	}
	return core.PartialCover(g, opts.coreOptions(), alpha)
}

// EdgeDomination estimates the expected number of distinct edges traversed
// by L-length walks before hitting S (the paper's second future-work
// extension).
func EdgeDomination(g *Graph, S []int, L, R int, seed uint64) (float64, error) {
	return core.EdgeDomination(g, S, L, R, seed)
}

// SampleSize returns the Hoeffding sample size that makes the Algorithm-2
// estimate of F2 accurate to ±εn with probability 1−δ (Lemma 3.4); the
// Problem-1 bound of Lemma 3.3 is within one unit of it.
func SampleSize(n int, eps, delta float64) int {
	return walk.SampleSizeF2(n, eps, delta)
}

// BuildIndex materializes the inverted index of Algorithm 3 (R walks of
// length L per node) for reuse across budgets and problems via
// SelectWithIndex.
func BuildIndex(g *Graph, L, R int, seed uint64) (*Index, error) {
	return index.Build(g, L, R, seed)
}

// Index is the materialized random-walk sample index of Algorithm 3.
type Index = index.Index

// Problem identifies one of the paper's two optimization problems for
// SelectWithIndex.
type Problem = index.Problem

// Problems.
const (
	Problem1 = index.Problem1 // minimize total hitting time
	Problem2 = index.Problem2 // maximize expected coverage
)

// SelectWithIndex runs the approximate greedy algorithm on an already-built
// index, sharing one materialization across problems and budgets. Gain
// evaluations are sharded over all available cores; use
// SelectWithIndexWorkers to pin the worker count.
//
// Deprecated: use Open, Engine.AdoptIndex and Engine.Select — the Engine
// keeps the index resident across calls and adds the memoized gain read
// path on top. This shim routes through a throwaway default Engine that
// adopts ix; selections are bit-for-bit unchanged.
func SelectWithIndex(ix *Index, p Problem, k int, lazy bool) (*Selection, error) {
	return defaultEngineSelectWithIndex(ix, p, k, lazy, 0)
}

// SelectWithIndexWorkers is SelectWithIndex with an explicit worker count
// for the selection loop (0 means all available cores). Selections are
// bit-for-bit identical for every worker count.
//
// Deprecated: use Open, Engine.AdoptIndex and Engine.Select with
// SelectRequest.Workers; see SelectWithIndex.
func SelectWithIndexWorkers(ix *Index, p Problem, k int, lazy bool, workers int) (*Selection, error) {
	return defaultEngineSelectWithIndex(ix, p, k, lazy, workers)
}

// BuildIndexParallel is BuildIndex sharded over the given number of
// goroutines. The materialized walks are identical for every worker count
// (per-walk seeding), so selections are reproducible regardless of
// parallelism.
func BuildIndexParallel(g *Graph, L, R int, seed uint64, workers int) (*Index, error) {
	return index.BuildWorkers(g, L, R, seed, workers)
}

// LoadIndexFile reads an index previously saved with Index.SaveFile (a
// compressed v8 store file; spill files load too) onto the heap and binds
// it to g, rejecting indexes built on a structurally different graph and
// files in any other format, the retired v7 stream included. Persisting the
// index amortizes the dominant cost of the approximate algorithm across
// runs.
func LoadIndexFile(path string, g *Graph) (*Index, error) {
	return index.LoadAny(path, g, index.StoreOptions{})
}

// Simulator runs agent-based browsing/search sessions over a graph and
// target set — the independent validation layer for selections, reporting
// realized discovery rates, latency histograms and per-target load rather
// than expectations.
type Simulator = simulate.Simulator

// Outcome aggregates simulated sessions; see Simulator.
type Outcome = simulate.Outcome

// NewSimulator returns a Simulator for sessions of at most L hops targeting
// S.
func NewSimulator(g *Graph, S []int, L int, seed uint64) (*Simulator, error) {
	return simulate.New(g, S, L, seed)
}

// CompareSelections simulates the same session workload under several
// alternative selections and returns outcomes keyed by name — an offline
// A/B test for placements.
func CompareSelections(g *Graph, L int, seed uint64, sessionsPerNode int, selections map[string][]int) (map[string]*Outcome, error) {
	return simulate.CompareSelections(g, L, seed, sessionsPerNode, selections)
}

// AdaptiveResult reports a SelectAdaptive run; see
// internal/core.AdaptiveResult.
type AdaptiveResult = core.AdaptiveResult

// SelectAdaptive runs the approximate greedy algorithm with geometrically
// increasing sample sizes until the selection stabilizes (Jaccard similarity
// of consecutive selections ≥ stability). It answers "what R do I need on
// this graph?" automatically; the paper fixes R = 100 empirically.
func SelectAdaptive(g *Graph, opts Options, p Problem, stability float64) (*AdaptiveResult, error) {
	return core.ApproxAdaptive(g, opts.coreOptions(), p, stability)
}

// SelectStochastic runs the approximate greedy algorithm with the
// stochastic-greedy driver ("lazier than lazy greedy"): each round evaluates
// only a random ⌈(n/K)·ln(1/eps)⌉-subset of candidates, giving O(n·ln(1/eps))
// total gain evaluations independent of K, at the cost of an extra eps in
// the expectation guarantee. Prefer it when both n and K are large.
func SelectStochastic(g *Graph, opts Options, p Problem, eps float64) (*Selection, error) {
	o, err := opts.resolve(g)
	if err != nil {
		return nil, err
	}
	if o.R == 0 {
		o.R = DefaultR
	}
	return core.ApproxStochastic(g, o.coreOptions(), p, eps)
}

// AnalyzeGraph summarizes the structural statistics relevant to selecting an
// algorithm and interpreting results: basic Stats plus clustering,
// assortativity and rich-club connectivity.
type GraphAnalysis struct {
	Stats            graph.Stats
	GlobalClustering float64
	LocalClustering  float64
	Assortativity    float64
	RichClubTop1pct  float64
	Top1pctDegreeCut int
}

// AnalyzeGraph computes a GraphAnalysis. O(Σ d², i.e. triangle counting)
// time; fine up to millions of edges.
func AnalyzeGraph(g *Graph) (GraphAnalysis, error) {
	a := GraphAnalysis{
		Stats:            g.ComputeStats(),
		GlobalClustering: g.GlobalClustering(),
		LocalClustering:  g.MeanLocalClustering(),
		Assortativity:    g.DegreeAssortativity(),
	}
	cut, err := g.DegreePercentile(99)
	if err != nil {
		return a, err
	}
	a.Top1pctDegreeCut = cut
	a.RichClubTop1pct = g.RichClubCoefficient(cut)
	return a, nil
}
