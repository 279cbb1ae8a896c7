package engine

import (
	"time"

	"repro/internal/index"
)

// Problem re-exports the index problem identifiers so transports can speak
// engine types without importing internal/index.
type Problem = index.Problem

// Problems. The zero value in a request means Problem2 (coverage), the
// serving default.
const (
	Problem1 = index.Problem1 // minimize total hitting time
	Problem2 = index.Problem2 // maximize expected coverage
)

// Strategy selects the greedy driver for Select/SelectStream. The zero
// value is Lazy (CELF), the recommended default; both strategies produce
// identical selections, Plain exists for ablation and paper fidelity.
type Strategy int

const (
	// Lazy is the CELF lazy-evaluation driver.
	Lazy Strategy = iota
	// Plain is the per-round full-scan driver of Algorithm 1.
	Plain
)

func (s Strategy) String() string {
	if s == Plain {
		return "plain"
	}
	return "lazy"
}

// lazy reports whether the strategy is the CELF driver.
func (s Strategy) lazy() bool { return s != Plain }

// SelectRequest asks for a top-K selection. Graph may be empty when the
// engine serves exactly one graph. Zero-valued knobs get the documented
// defaults (R = 100, Strategy = Lazy, Workers = engine default, Timeout =
// engine default).
type SelectRequest struct {
	Graph   string
	Problem Problem
	// K is the selection budget.
	K int
	// L is the walk-length bound; R the per-node sample size (default 100).
	L int
	R int
	// Seed fixes the walk sampling; part of the index identity.
	Seed uint64
	// Strategy picks the greedy loop (default Lazy). Both shard gain
	// evaluations over Workers goroutines.
	Strategy Strategy
	// Workers shards index construction and gain evaluation (0 = engine
	// default; capped at the engine max). Selections are identical for
	// every value.
	Workers int
	// Timeout bounds the computation (0 = engine default; capped at the
	// engine max). A request whose budget expires during an index build
	// gets its timeout error immediately while the build detaches and still
	// warms the cache; an expired selection loop is canceled outright.
	Timeout time.Duration
	// Epsilon > 0 enables the adaptive replicate budget: R becomes a cap and
	// each greedy round stops sampling once the leader/runner-up separation
	// interval half-width is at most Epsilon at confidence Delta (split over
	// the K rounds). Zero inherits the engine default (off unless configured
	// via Config.DefaultEpsilon / rwdom.WithAccuracy). Delta must be in
	// (0, 1) when accuracy is on; zero inherits the engine default (0.05).
	// Adaptive runs always use the plain driver (CELF bounds are invalid
	// across replicate-width growth) and skip the shared index cache.
	Epsilon float64
	Delta   float64
}

// SelectResult is one completed selection. Nodes, Gains and Evaluations are
// bit-for-bit identical for every Workers value and for the streaming and
// blocking paths.
type SelectResult struct {
	// Nodes lists the selected nodes in selection order; Gains the marginal
	// gain recorded at each selection, parallel to Nodes.
	Nodes []int
	Gains []float64
	// Evaluations counts marginal-gain computations.
	Evaluations int
	// L, R, Workers and Lazy echo the resolved knobs that drove the
	// computation (defaults applied, caps enforced).
	L, R    int
	Workers int
	Lazy    bool
	// IndexBuild is the walk-index materialization time paid by this
	// request (zero when the index was cached); TableBuild the D-table
	// setup; Select the greedy loop.
	IndexBuild time.Duration
	TableBuild time.Duration
	Select     time.Duration
	// IndexCached reports that the walk index was already materialized (or
	// loaded from spill) rather than built for this request; Coalesced that
	// the whole selection was shared with an identical concurrent request.
	IndexCached bool
	Coalesced   bool
	// Accuracy evidence of an adaptive run (zero values on fixed-R runs).
	// Epsilon and Delta echo the resolved accuracy knobs; ReplicatesUsed is
	// the final materialized replicate width (≤ R); ChunksBuilt counts index
	// chunks materialized; EarlyStopped reports finishing below the R cap;
	// CIWidth is the largest per-round separation half-width among committed
	// rounds, so CIWidth ≤ Epsilon certifies every round met the target.
	Epsilon        float64
	Delta          float64
	CIWidth        float64
	ReplicatesUsed int
	ChunksBuilt    int
	EarlyStopped   bool
}

// Objective returns the telescoped objective value Σ Gains.
func (r *SelectResult) Objective() float64 {
	t := 0.0
	for _, g := range r.Gains {
		t += g
	}
	return t
}

// Round is one streamed greedy round: the node committed in round Round
// (1-based), its marginal gain, and the objective after the round (the
// running telescoped sum, accumulated in selection order — the final
// round's Objective is bit-for-bit SelectResult.Objective()).
type Round struct {
	Round     int
	Node      int
	Gain      float64
	Objective float64
	// CIWidth and Replicates carry the round's accuracy evidence on adaptive
	// runs: the separation-interval half-width and the replicates
	// materialized when the round's node was committed. Zero on fixed-R runs.
	CIWidth    float64
	Replicates int
}

// GainRequest asks for the marginal gains of Nodes against the seed Set.
type GainRequest struct {
	Graph   string
	Problem Problem
	L, R    int
	Seed    uint64
	// Set is the committed seed set (order and duplicates don't matter);
	// Nodes the candidates to evaluate against it.
	Set   []int
	Nodes []int
}

// GainResult carries the marginal gains, parallel to the request's Nodes.
type GainResult struct {
	Gains []float64
	// IndexCached reports whether the walk index was already resident; Memo
	// which memo path served the request (the Memo* constants).
	IndexCached bool
	Memo        string
	// Degraded marks an answer served from an already-memoized frozen table
	// while the index itself was unavailable (its build was shed by admission
	// control, failed, or out-deadlined). The values are exact — the table was
	// built from the real index before it went away — but a request for an
	// unmemoized set would have received the underlying error instead.
	Degraded bool
}

// ObjectiveRequest asks for the estimated objective value of Set.
type ObjectiveRequest struct {
	Graph   string
	Problem Problem
	L, R    int
	Seed    uint64
	Set     []int
}

// ObjectiveResult carries the estimate.
type ObjectiveResult struct {
	Objective   float64
	IndexCached bool
	Memo        string
	// Degraded: see GainResult.Degraded.
	Degraded bool
}

// TopGainsRequest asks for the B best candidates by marginal gain against
// Set (set members excluded), gain descending with ties broken by ascending
// node id.
type TopGainsRequest struct {
	Graph   string
	Problem Problem
	L, R    int
	Seed    uint64
	Set     []int
	// B is the number of winners (default 10, capped at the engine MaxK).
	B int
	// Workers shards the candidate evaluations (0 = engine default).
	Workers int
}

// TopGainsResult carries the winners, gain descending.
type TopGainsResult struct {
	// B echoes the resolved budget.
	B           int
	Nodes       []int
	Gains       []float64
	IndexCached bool
	Memo        string
	// Degraded: see GainResult.Degraded.
	Degraded bool
}
