package client

// The types in this file are the rwdomd v1 HTTP contract: the daemon
// (internal/server) encodes and decodes these structs directly, so there is
// one definition of every request and reply body. The package itself
// depends only on the standard library, and the golden-file suite in
// internal/server pins the serialized form.

// Problem names accepted by the daemon; numeric forms "1"/"2" also work.
const (
	ProblemHitting  = "hitting"  // Problem 1: minimize total hitting time
	ProblemCoverage = "coverage" // Problem 2: maximize expected coverage
)

// Greedy driver names for SelectRequest.Algorithm.
const (
	AlgorithmLazy  = "lazy"  // CELF lazy greedy (the default)
	AlgorithmPlain = "plain" // per-round full scan
)

// SelectRequest is the POST /v1/select body.
type SelectRequest struct {
	// Graph names one of the graphs the daemon serves.
	Graph string `json:"graph"`
	// Problem is ProblemHitting or ProblemCoverage (default coverage).
	Problem string `json:"problem,omitempty"`
	// K is the selection budget.
	K int `json:"k"`
	// L is the walk-length bound; R the per-node sample size (default 100).
	L int `json:"L"`
	R int `json:"R,omitempty"`
	// Seed fixes the walk sampling (daemon default 1); part of the index
	// identity. Nil means "server default".
	Seed *uint64 `json:"seed,omitempty"`
	// Algorithm is AlgorithmLazy (default) or AlgorithmPlain.
	Algorithm string `json:"algorithm,omitempty"`
	// Workers shards index construction and gain evaluation (0 = server
	// default). Selections are identical for every value.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds the request (0 = server default). A request whose
	// budget expires during an index build gets its 504 at once while the
	// build carries on and still warms the daemon's cache.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Epsilon > 0 enables the adaptive replicate budget: R becomes a cap and
	// each greedy round stops sampling once the leader's separation
	// confidence interval beats Epsilon at confidence Delta (server default
	// 0.05). Zero inherits the daemon default (off unless it runs with
	// -epsilon). Sharded daemons reject accuracy knobs with CodeUnsupported.
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
}

// Accuracy is the adaptive-budget evidence block of a select reply, present
// only when the run had an epsilon target. CIWidth is the largest per-round
// separation half-width among the committed rounds (CIWidth <= Epsilon
// certifies every round met the target); ReplicatesUsed the final
// materialized replicate width (<= R); EarlyStopped whether the run finished
// below the R cap.
type Accuracy struct {
	Epsilon        float64 `json:"epsilon"`
	Delta          float64 `json:"delta"`
	CIWidth        float64 `json:"ci_width"`
	ReplicatesUsed int     `json:"replicates_used"`
	ChunksBuilt    int     `json:"chunks_built"`
	EarlyStopped   bool    `json:"early_stopped"`
}

// SelectResponse is the /v1/select reply.
type SelectResponse struct {
	Graph       string    `json:"graph"`
	Problem     string    `json:"problem"`
	K           int       `json:"k"`
	L           int       `json:"L"`
	R           int       `json:"R"`
	Seed        uint64    `json:"seed"`
	Algorithm   string    `json:"algorithm"`
	Workers     int       `json:"workers"`
	Nodes       []int     `json:"nodes"`
	Gains       []float64 `json:"gains"`
	Objective   float64   `json:"objective"`
	Evaluations int       `json:"evaluations"`
	BuildMS     float64   `json:"build_ms"`
	SelectMS    float64   `json:"select_ms"`
	// IndexCached reports that the walk index was already resident (or
	// loaded from spill) rather than built for this request; Coalesced that
	// the whole selection was shared with an identical concurrent request.
	IndexCached bool `json:"index_cached"`
	Coalesced   bool `json:"coalesced"`
	// Accuracy carries the adaptive-budget evidence; nil on fixed-R runs.
	Accuracy *Accuracy `json:"accuracy,omitempty"`
}

// Round is one NDJSON round event of POST /v1/select?stream=1: the node
// picked in this greedy round, its marginal gain, and the objective so far.
// CIWidth and Replicates carry the round's accuracy evidence on adaptive
// (epsilon-targeted) runs and are zero otherwise.
type Round struct {
	Round      int     `json:"round"`
	Node       int     `json:"node"`
	Gain       float64 `json:"gain"`
	Objective  float64 `json:"objective"`
	CIWidth    float64 `json:"ci_width,omitempty"`
	Replicates int     `json:"replicates,omitempty"`
}

// StreamDone is the final line of a successful POST /v1/select?stream=1:
// Result is the blocking-mode reply.
type StreamDone struct {
	Done   bool            `json:"done"`
	Result *SelectResponse `json:"result"`
}

// ErrorResponse is the error envelope every endpoint shares,
// {"error":{"code":"...","message":"..."}}; a failing select stream ends
// with one as its last line.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the envelope's payload: a stable Code* constant plus a
// human-readable message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// GainRequest identifies a GET /v1/gain query.
type GainRequest struct {
	Graph   string
	Problem string
	L, R    int
	Seed    *uint64
	// Set is the committed seed set; Nodes the candidates to evaluate.
	Set   []int
	Nodes []int
}

// GainResponse is the /v1/gain reply: Gains[i] is the marginal gain of
// adding Nodes[i] to Set. Memo reports which memoized path served it
// ("hit", "miss", "extended", "empty", or "off"). Degraded is true when the
// walk index was unavailable (its build was shed under overload or failed)
// and the answer came from an already-memoized gain table — exact values,
// but a frozen snapshot that cannot extend to new sets.
type GainResponse struct {
	Graph       string    `json:"graph"`
	Problem     string    `json:"problem"`
	Set         []int     `json:"set"`
	Nodes       []int     `json:"nodes"`
	Gains       []float64 `json:"gains"`
	IndexCached bool      `json:"index_cached"`
	Memo        string    `json:"memo"`
	Degraded    bool      `json:"degraded,omitempty"`
}

// ObjectiveRequest identifies a GET /v1/objective query.
type ObjectiveRequest struct {
	Graph   string
	Problem string
	L, R    int
	Seed    *uint64
	Set     []int
}

// ObjectiveResponse is the /v1/objective reply. Degraded: see
// GainResponse.Degraded.
type ObjectiveResponse struct {
	Graph       string  `json:"graph"`
	Problem     string  `json:"problem"`
	Set         []int   `json:"set"`
	Objective   float64 `json:"objective"`
	IndexCached bool    `json:"index_cached"`
	Memo        string  `json:"memo"`
	Degraded    bool    `json:"degraded,omitempty"`
}

// TopGainsRequest identifies a GET /v1/topgains query.
type TopGainsRequest struct {
	Graph   string
	Problem string
	L, R    int
	Seed    *uint64
	Set     []int
	// B is the number of winners (0 = server default of 10).
	B int
	// Workers shards the candidate sweep (0 = server default).
	Workers int
}

// TopGainsResponse is the /v1/topgains reply, gain descending with ties
// broken by ascending node id; set members are excluded. Degraded: see
// GainResponse.Degraded.
type TopGainsResponse struct {
	Graph       string    `json:"graph"`
	Problem     string    `json:"problem"`
	Set         []int     `json:"set"`
	B           int       `json:"b"`
	Nodes       []int     `json:"nodes"`
	Gains       []float64 `json:"gains"`
	IndexCached bool      `json:"index_cached"`
	Memo        string    `json:"memo"`
	Degraded    bool      `json:"degraded,omitempty"`
}

// Edge is one undirected weighted edge of a mutation delta. W is optional
// (daemon default 1).
type Edge struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w,omitempty"`
}

// ApplyDeltaRequest is the POST /v1/graph/{name}/edges body: one
// all-or-nothing mutation of a served graph. The daemon bumps the graph's
// mutation epoch on success and repairs its resident walk indexes
// incrementally, so warm caches stay warm across small deltas.
type ApplyDeltaRequest struct {
	// Graph names the graph to mutate; it rides in the URL path, not the
	// body.
	Graph string `json:"-"`
	// AddNodes appends this many fresh isolated nodes (ids n .. n+AddNodes-1)
	// before edges are applied, so added edges may reference them. The
	// daemon accepts at most 2^20 per delta (CodeBadRequest above that).
	AddNodes int `json:"add_nodes,omitempty"`
	// Add lists edges to insert; adding an existing edge is a conflict.
	Add []Edge `json:"add,omitempty"`
	// Remove lists edges to delete (weights ignored); removing a missing
	// edge is a conflict.
	Remove []Edge `json:"remove,omitempty"`
	// BaseEpoch, when non-nil, makes the mutation conditional: it applies
	// only if the graph is still at that epoch, else CodeConflict.
	BaseEpoch *uint64 `json:"base_epoch,omitempty"`
}

// ApplyDeltaResponse is the /v1/graph/{name}/edges reply.
type ApplyDeltaResponse struct {
	Graph string `json:"graph"`
	// Epoch is the graph's new mutation epoch. Reads pinned to it (see
	// PartialGainRequest.Epoch) are guaranteed post-mutation answers.
	Epoch uint64 `json:"epoch"`
	// Nodes and Edges are the post-mutation graph dimensions; Touched the
	// number of nodes whose adjacency changed.
	Nodes   int `json:"nodes"`
	Edges   int `json:"edges"`
	Touched int `json:"touched"`
	// IndexesRepaired counts resident walk indexes carried across the
	// mutation by incremental repair (a copy is repaired when a read pins
	// one); IndexesDropped those that rebuild on next use; MemosDropped the
	// memoized gain tables discarded (pinned by a read, or over a dropped
	// index) — tables patched and carried to the new epoch are not counted.
	IndexesRepaired int `json:"indexes_repaired"`
	IndexesDropped  int `json:"indexes_dropped"`
	MemosDropped    int `json:"memos_dropped"`
}

// PartialGainRequest identifies a GET /v1/partial/gain query: the integer
// gain sums of Nodes against Set over the replicate range [R0, R1) of the
// build identified by (Graph, Problem, L, Seed). Partial answers are the
// worker half of replicate-sharded serving — exact int64 sums a coordinator
// merges by addition and divides once, reproducing the unsharded float64
// values bit-for-bit.
type PartialGainRequest struct {
	Graph   string
	Problem string
	L       int
	Seed    *uint64
	// R0 and R1 delimit the replicate range [R0, R1) this worker owns.
	R0, R1 int
	// Epoch, when non-nil, pins the request to a graph mutation epoch: a
	// daemon whose graph is at any other epoch answers CodeStaleEpoch
	// instead of silently contributing sums from a different graph state.
	// Coordinators set it on every scatter.
	Epoch *uint64
	Set   []int
	Nodes []int
	// WantObjective additionally requests the integer objective accumulator
	// of Set over this range.
	WantObjective bool
}

// PartialGainResponse is the /v1/partial/gain reply: Sums[i] is the integer
// gain sum of Nodes[i] over the requested replicate range. ObjectiveSum is
// present only when the request asked for it. Degraded: see
// GainResponse.Degraded.
type PartialGainResponse struct {
	Graph        string  `json:"graph"`
	Problem      string  `json:"problem"`
	R0           int     `json:"r0"`
	R1           int     `json:"r1"`
	Set          []int   `json:"set"`
	Nodes        []int   `json:"nodes"`
	Sums         []int64 `json:"sums"`
	ObjectiveSum *int64  `json:"objective_sum,omitempty"`
	Replicates   int     `json:"replicates"`
	IndexCached  bool    `json:"index_cached"`
	Memo         string  `json:"memo"`
	Degraded     bool    `json:"degraded,omitempty"`
}

// PartialTopGainsRequest identifies a GET /v1/partial/topgains query: the B
// candidates with the largest integer gain sums over the replicate range
// [R0, R1), Set members excluded.
type PartialTopGainsRequest struct {
	Graph   string
	Problem string
	L       int
	Seed    *uint64
	R0, R1  int
	// Epoch: see PartialGainRequest.Epoch.
	Epoch *uint64
	Set   []int
	// B is the number of winners (0 = server default of 10). Unlike
	// /v1/topgains the cap is the graph's node count, not max-k: a
	// coordinator's threshold algorithm legitimately deepens past the public
	// top-B cap.
	B int
	// Workers shards the candidate sweep (0 = server default).
	Workers int
}

// PartialTopGainsResponse is the /v1/partial/topgains reply, sum descending
// with ties broken by ascending node id. Exhausted reports that every
// candidate outside Set was returned — a coordinator must not keep
// deepening. Degraded: see GainResponse.Degraded.
type PartialTopGainsResponse struct {
	Graph       string  `json:"graph"`
	Problem     string  `json:"problem"`
	R0          int     `json:"r0"`
	R1          int     `json:"r1"`
	Set         []int   `json:"set"`
	B           int     `json:"b"`
	Nodes       []int   `json:"nodes"`
	Sums        []int64 `json:"sums"`
	Exhausted   bool    `json:"exhausted"`
	IndexCached bool    `json:"index_cached"`
	Memo        string  `json:"memo"`
	Degraded    bool    `json:"degraded,omitempty"`
}

// Health is the /healthz reply.
type Health struct {
	Status  string  `json:"status"` // "ok" or "draining"
	UptimeS float64 `json:"uptime_s"`
	Graphs  int     `json:"graphs"`
}

// CacheStats is the /stats "cache" block. SpillLoadErrors counts spill
// files that existed but failed to load (truncated or corrupt on disk) and
// were rebuilt from scratch instead; SpillSaveErrors counts spill saves that
// failed.
type CacheStats struct {
	Hits            int64    `json:"hits"`
	Coalesced       int64    `json:"coalesced_builds"`
	Misses          int64    `json:"misses"`
	SpillLoads      int64    `json:"spill_loads"`
	SpillSaves      int64    `json:"spill_saves"`
	SpillLoadErrors int64    `json:"spill_load_errors"`
	SpillSaveErrors int64    `json:"spill_save_errors"`
	SpillSkipped    int64    `json:"spill_skipped"`
	MmapLoads       int64    `json:"mmap_loads"`
	Evictions       int64    `json:"evictions"`
	BuildErrors     int64    `json:"build_errors"`
	Resident        int      `json:"resident"`
	ResidentBytes   int64    `json:"resident_bytes"`
	Keys            []string `json:"keys"`
}

// StorageStats is the /stats "storage" block: the daemon's spill
// storage subsystem — the configured on-disk format, whether v8 spill loads
// serve store-backed off mmap'd pages, and the aggregate mapping/decode
// counters of resident store-backed indexes.
type StorageStats struct {
	SpillFormat    string `json:"spill_format"`
	Mmap           bool   `json:"mmap"`
	MappedIndexes  int    `json:"mapped_indexes"`
	MappedBytes    int64  `json:"mapped_bytes"`
	DecodeHits     int64  `json:"decode_hits"`
	DecodeMisses   int64  `json:"decode_misses"`
	DecodeErrors   int64  `json:"decode_errors"`
	PageInRestarts int64  `json:"page_in_restarts"`
}

// MemoStats is the /stats "memo" block.
type MemoStats struct {
	Enabled        bool  `json:"enabled"`
	Hits           int64 `json:"hits"`
	Coalesced      int64 `json:"coalesced_populates"`
	Misses         int64 `json:"misses"`
	PrefixExtended int64 `json:"prefix_extended"`
	EmptyHits      int64 `json:"empty_hits"`
	TopGainsHits   int64 `json:"topgains_hits"`
	Evictions      int64 `json:"evictions"`
	Invalidated    int64 `json:"invalidated"`
	PopulateErrors int64 `json:"populate_errors"`
	Resident       int   `json:"resident"`
	ResidentBytes  int64 `json:"resident_bytes"`
}

// AdmissionStats is the /stats "admission" block: the daemon's
// admission gate (slots, queue bound, traffic counters). Every 503
// "overloaded" reply corresponds to exactly one Shed tick.
type AdmissionStats struct {
	Enabled       bool  `json:"enabled"`
	MaxConcurrent int   `json:"max_concurrent"`
	MaxQueue      int   `json:"max_queue"`
	Admitted      int64 `json:"admitted"`
	Shed          int64 `json:"shed"`
	InFlight      int   `json:"in_flight"`
	QueueDepth    int   `json:"queue_depth"`
	QueueWaits    int64 `json:"queue_waits"`
	QueueWaitNS   int64 `json:"queue_wait_ns"`
}

// ShardConnStats is one worker's entry in the /stats "shards" block.
type ShardConnStats struct {
	Addr     string `json:"addr"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	Retries  int64  `json:"retries"`
}

// ShardsStats is the /stats "shards" block of a coordinator-mode
// daemon: per-shard scatter traffic, coordinator retries, and the
// scatter-gather merge latency histogram (the quantiles are bucket upper
// bounds in milliseconds).
type ShardsStats struct {
	Shards         int              `json:"shards"`
	Merges         int64            `json:"merges"`
	DegradedMerges int64            `json:"degraded_merges"`
	Retries        int64            `json:"retries"`
	MergeLatency   LatencySnapshot  `json:"merge_latency"`
	PerShard       []ShardConnStats `json:"per_shard"`
}

// LatencySnapshot is a /stats latency histogram summary. Quantiles are
// bucket upper bounds in milliseconds; -1 means the quantile fell in the
// +Inf overflow bucket. Buckets is present only when asked for
// (/stats?buckets=1, the daemon's default).
type LatencySnapshot struct {
	Count   int64           `json:"count"`
	MeanMS  float64         `json:"mean_ms"`
	P50MS   float64         `json:"p50_ms"`
	P95MS   float64         `json:"p95_ms"`
	P99MS   float64         `json:"p99_ms"`
	Buckets []LatencyBucket `json:"buckets,omitempty"`
}

// LatencyBucket is one cumulative ("le") histogram bucket.
type LatencyBucket struct {
	LeMS  float64 `json:"le_ms"` // upper bound in milliseconds; -1 means +Inf
	Count int64   `json:"count"` // cumulative count of observations <= LeMS
}

// EndpointStats is one route's entry in the /stats "endpoints" block.
type EndpointStats struct {
	Requests int64           `json:"requests"`
	Errors   int64           `json:"errors"`
	Latency  LatencySnapshot `json:"latency"`
}

// AccuracyStats is the /stats "accuracy" block: adaptive
// (epsilon-targeted) selection traffic. CIWidthHist buckets each completed
// run's achieved CIWidth/epsilon ratio into [0,0.25), [0.25,0.5), [0.5,0.75),
// [0.75,1], and >1 (the run hit the R cap before reaching epsilon).
type AccuracyStats struct {
	AdaptiveSelects int64   `json:"adaptive_selects"`
	EarlyStops      int64   `json:"early_stops"`
	ChunksBuilt     int64   `json:"chunks_built"`
	CIWidthHist     []int64 `json:"ci_width_hist"`
}

// Stats is the /stats reply. Endpoints maps each route name to its traffic
// and latency histogram. Degraded counts read answers served from frozen
// memo tables while the walk index was unavailable. Shards is present only
// on coordinator-mode daemons; Accuracy only once an adaptive selection has
// run; Storage only when the daemon has a spill directory.
type Stats struct {
	UptimeS          float64                  `json:"uptime_s"`
	Draining         bool                     `json:"draining"`
	InFlight         int64                    `json:"in_flight"`
	SelectsCoalesced int64                    `json:"selects_coalesced"`
	Degraded         int64                    `json:"degraded"`
	Admission        AdmissionStats           `json:"admission"`
	Cache            CacheStats               `json:"cache"`
	Memo             MemoStats                `json:"memo"`
	Endpoints        map[string]EndpointStats `json:"endpoints"`
	Accuracy         *AccuracyStats           `json:"accuracy,omitempty"`
	Shards           *ShardsStats             `json:"shards,omitempty"`
	Storage          *StorageStats            `json:"storage,omitempty"`
}
