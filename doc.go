// Package rwdom implements random-walk domination in large graphs, a
// from-scratch Go reproduction of
//
//	Rong-Hua Li, Jeffrey Xu Yu, Xin Huang, Hong Cheng.
//	"Random-walk domination in large graphs: problem definitions and fast
//	solutions." ICDE 2014 (arXiv:1302.4546).
//
// Given a graph and a budget k, the package selects k target nodes under the
// L-length random-walk model, solving either of the paper's two problems:
//
//   - Problem1 (hitting time): minimize the total expected hitting time of
//     L-length random walks from the remaining nodes to the targets;
//   - Problem2 (coverage): maximize the expected number of nodes whose
//     L-length random walk reaches a target.
//
// Both objectives are nondecreasing submodular set functions, so greedy
// selection carries a 1 − 1/e approximation guarantee; the sampled
// algorithms carry 1 − 1/e − ε. Three algorithm families are provided, in
// increasing scalability: exact dynamic-programming greedy (AlgorithmDP,
// O(k·n·m·L)), per-round sampling greedy (AlgorithmSampling, O(k·n²·R·L)
// walk steps), and the paper's approximate greedy over a materialized
// inverted index of random-walk samples (AlgorithmApprox, O(k·R·L·n) time
// and O(n·R·L + m) space). Two baselines (AlgorithmDegree,
// AlgorithmDominate) and the paper's future-work extensions (combined
// objective, partial cover, edge domination) are included.
//
// # Parallelism and layout
//
// The approximate-greedy hot path is engineered for modern hardware without
// changing the algorithmics (the O(k·R·L·n) / O(n·R·L + m) bounds above are
// untouched): the inverted index and D-table are laid out candidate-major
// (all R replicate rows of a node contiguous) so one marginal-gain
// evaluation reads a single contiguous span; weighted neighbor sampling
// uses precomputed Walker alias tables (O(1) per hop instead of an
// O(log deg) binary search); and Options.Workers shards index construction,
// the CELF initial sweep and stale-entry re-evaluations over goroutines
// (defaulting to all cores). Walks are seeded per (node, replicate) and
// gains accumulate in integers, so Selected and Gains are bit-for-bit
// identical for every worker count — parallelism changes wall-clock time
// only. bench.sh records the perf trajectory (BENCH_PR1.json,
// BENCH_PR2.json, ...) and the ablation benchmarks isolate each of these
// decisions; cmd/benchcheck gates CI against the recorded baseline.
//
// # The query Engine
//
// Open binds a graph to a query Engine — the transport-agnostic serving
// core (internal/engine) that owns the whole cache stack — and is the
// recommended API for everything the approximate algorithm serves:
//
//	en, err := rwdom.Open(g)           // options: WithWorkers, WithSpillDir, ...
//	defer en.Close()
//	res, err := en.Select(ctx, rwdom.SelectRequest{Problem: rwdom.Problem2, K: 50, L: 6})
//	gains, err := en.Gain(ctx, rwdom.GainRequest{L: 6, Set: res.Nodes[:3], Nodes: []int{7, 9}})
//
// Every method takes a context and a typed request. Walk indexes build at
// most once per (L, R, seed) and are shared across calls and problems;
// identical concurrent Selects coalesce into one computation; repeated
// Gain/Objective/TopGains calls for a seed set are pure reads of a frozen
// memoized D-table. SelectStream emits each greedy round (node, gain,
// objective-so-far) as it is decided, and the emitted rounds reassemble
// bit-identically into the blocking Select result. Errors carry stable
// machine-readable codes (ErrorCodeOf: bad_request, not_found, conflict,
// stale_epoch, draining, timeout, internal) shared with the HTTP daemon
// and the client SDK.
//
// For one-shot selection — and for the DP, sampling and baseline
// algorithms, which have no serving equivalent — Solve(g, problem, opts)
// is the free function. The original per-problem functions
// (MinimizeHittingTime, MaximizeCoverage, SelectWithIndex,
// SelectWithIndexWorkers) have been removed; the README's migration table
// maps each onto Solve or the Engine, which select bit-identically.
//
// # Mutable graphs
//
// A served graph is not frozen: Engine.ApplyDelta applies one atomic batch
// of changes — nodes appended, edges added, edges removed — and bumps the
// graph's mutation epoch:
//
//	res, err := en.ApplyDelta(ctx, rwdom.ApplyDeltaRequest{Delta: rwdom.Delta{
//	    AddEdges:    []rwdom.Edge{{U: 11, V: 17}},
//	    RemoveEdges: []rwdom.Edge{{U: 3, V: 9}},
//	}})
//
// The mutation is copy-on-write: queries that already resolved their graph
// snapshot finish against pre-mutation state bit-identically, and the epoch
// rides in every derived identity (index cache keys, spill files, memoized
// D-table keys, selection coalescing), so no post-mutation request can ever
// be answered from a pre-mutation artifact. Resident walk indexes survive
// the mutation by incremental repair — only the walk rows the delta touched
// are regenerated, a cost proportional to the change rather than the graph
// — and a repaired index answers bit-identically to a from-scratch rebuild
// of the mutated graph (a parity suite enforces this across problems,
// strategies, worker and shard counts). Structural conflicts (adding an
// edge that exists, removing one that doesn't) and stale ApplyDeltaRequest
// .BaseEpoch pins — the optimistic-concurrency handle for
// read-modify-write callers — fail typed with ErrConflict and apply
// nothing. On a sharded Engine the coordinator broadcasts every delta to
// all workers before returning; a worker that misses a broadcast answers
// its epoch-pinned scatters with typed ErrStaleEpoch errors, never a
// silently mixed-epoch merge. The daemon exposes the same operation as
// POST /v1/graph/{name}/edges, mirrored by client.ApplyDelta.
//
// # Replicate-sharded serving
//
// The walk index is the dominant cost at scale — O(n·R·L) space built
// once per (graph, L, R, seed). Sharded serving splits the replicate
// range [0, R) across N workers, each materializing only its subrange of
// every index, and a coordinator (internal/shard) scatter-gathers the
// workers' integer partial sums and merges them exactly: per-replicate
// walk seeding makes a range build a deterministic slice of the full
// build, so summing disjoint int64 partial sums reproduces the unsharded
// sums bit-for-bit, and the coordinator performs the one float64 division
// with exactly the unsharded arithmetic. Selection is the engine's own
// greedy driver (CELF, or plain) run coordinator-side over those merged
// sums, one scatter per gain batch the driver asks for; TopGains merges
// per-shard top-B lists with the threshold algorithm. Selections (and their
// evaluation counts), gains, objectives and top-B rankings are
// bit-identical to the unsharded engine for every worker count — sharding
// divides per-process memory and build wall time, never results.
//
//	en, err := rwdom.Open(g, rwdom.WithShards(4))     // in-process workers
//	en, err := rwdom.Open(g, rwdom.WithPeers(urls...)) // remote worker daemons
//
// Both forms serve the same Engine surface (AdoptIndex and Stats are
// engine-specific; ShardStats reports scatter-gather counters instead).
// The daemon grows the same topology: rwdomd -shards N forks in-process
// workers, rwdomd -peer URL... coordinates remote worker daemons over
// their GET /v1/partial/gain and /v1/partial/topgains endpoints, and
// /stats gains a "shards" block (per-shard request/error/retry counts,
// merge latency histogram). Worker faults are retried with Retry-After
// backoff; a worker that stays down yields a typed error, never a merge
// over a subset of the replicates.
//
// # Serving
//
// cmd/rwdomd wraps the same engine in a long-running HTTP daemon
// (internal/server, a thin codec: decode → engine call → encode): graphs
// load once at startup, walk indexes are materialized on demand into a
// refcounted LRU cache keyed by (graph, L, R, seed) — shared across
// concurrent queries, coalesced so simultaneous misses build once, and
// spilled to disk on eviction and shutdown so restarts start warm.
// POST /v1/select answers top-k selections for both problems (plain or
// CELF-lazy greedy, gain evaluations sharded over a per-request workers
// knob; with ?stream=1 the reply is NDJSON round events and a final
// blocking-shape result); GET /v1/gain, GET /v1/objective and
// GET /v1/topgains answer point queries against the same indexes; and
// GET /healthz plus GET /stats expose liveness, index/memo cache traffic
// and per-endpoint latency histograms. Every error path shares one JSON
// envelope {"error":{"code","message"}} with the stable codes above, and
// the repro/client package is the typed Go SDK over the whole contract —
// mirrored requests/responses, typed errors, retry while the daemon
// drains, and a streaming iterator for selects.
//
// The gain read path is memoized (this is where the paper's index pays off
// at serving time — a marginal gain should be a read, not a rebuild):
// empty-set answers come straight off a per-problem gain vector memoized on
// the index itself (Index.EmptySetGains, zero D-table work), and non-empty
// seed sets hit a refcounted LRU cache of frozen D-tables keyed by
// (graph, L, R, seed, problem, canonical set). A set's table is
// materialized at most once — extending the longest cached prefix of the
// set via DTable.Snapshot/ExtendFrom, so only the delta is replayed — and
// every later gain/objective/topgains request for it is a pure read. A
// topgains read does not sweep all n candidates: by submodularity each
// candidate's empty-set gain bounds its gain against any set, so
// candidates are evaluated in descending bound order and the read stops
// once no remaining bound can reach the top B (core.TopGains), with the
// same answer as the exhaustive ranking. A memoized table is keyed by the
// index instance it reads through, so a graph mutation repairing an index
// can never race a read of a table built over it.
// Memoized and fresh answers are bit-for-bit identical; the server parity
// test suite locks the two paths together across both problems, set shapes
// (empty/singleton/large/unsorted/duplicated) and greedy selection
// prefixes.
//
// Both caches run on one shared refcounted-LRU core (internal/cache):
// singleflight population, refcounts so nothing is freed under an in-flight
// request, and entry-count plus bytes budgets (rwdomd -cache/-index-bytes
// and -memo/-memo-bytes) that evict least-recently-used entries once
// exceeded. The caches are linked: evicting an index drops the memoized
// D-tables built from it (tables still mid-read are orphaned and released
// with their last reader), so an eviction actually returns the index's heap
// instead of leaving it pinned by dependents — daemon memory tracks the
// working set, not traffic history. Request timeouts and graceful SIGTERM
// drain propagate as
// context cancellation through the one greedy driver (greedy.Run, reached
// through core.ApproxWithIndex), so a dying request stops consuming cores within
// one evaluation stride. The serving experiments (internal/experiments,
// "serving" and "gainserving") measure end-to-end HTTP throughput over the
// warm caches, memoized versus fresh.
//
// # Storage formats
//
// Spilled indexes are written in format v8, a page-aligned container
// (internal/store) with a per-chunk directory, CRC32-C on every section,
// and optionally delta/varint-compressed walk spans (the default; roughly
// 2-3x smaller files). v8 is the only format written or read: a spill
// file in the retired v7 stream format fails to load like a corrupt one
// and costs one counted rebuild. WithMmapSpills serves
// warm loads straight off a read-only memory mapping: a restart maps and
// CRC-verifies the file instead of reading and decoding it (O(1)-ish
// page-in restart, see BenchmarkWarmRestart), rows page in as queries
// touch them, and mapped indexes cost nothing against the index-bytes
// budget — the working set may exceed RAM. A heap load (the default)
// decodes compressed spans once, at load, into the arrays a fresh build
// has, so the index then serves at heap speed and costs a fresh build's
// heap (43.0 MB for a 15.7 MB file in the repository benchmark's serve-hot
// workload); only a mapped compressed file decodes on read, through a
// small hot-row cache. Store-backed answers are
// bit-identical to heap answers (a parity suite enforces it across
// formats, problems, layouts, growth and repair — Repair first promotes
// a mapped index onto the heap, since the mapping is read-only).
// WithSpillFormat selects the writer ("v8" or "v8raw"); corruption
// anywhere in a spill file fails the open and triggers a counted rebuild,
// never a wrong answer. Engine.Stats.Storage (and the daemon's /stats
// "storage" block) reports the effective format plus mapped-index,
// page-in-restart and decode-cache counters.
//
// # Quick start
//
//	g, err := rwdom.GeneratePowerLaw(10000, 50000, 1)
//	if err != nil { ... }
//	en, err := rwdom.Open(g)
//	if err != nil { ... }
//	defer en.Close()
//	sel, err := en.Select(ctx, rwdom.SelectRequest{K: 50, L: 6, R: 100})
//	if err != nil { ... }
//	fmt.Println(sel.Nodes) // the 50 selected targets
//	m, _ := rwdom.EvaluateExact(g, sel.Nodes, 6)
//	fmt.Printf("average hitting time %.2f, expected coverage %.0f\n", m.AHT, m.EHN)
//
// The examples directory contains runnable programs for the paper's three
// motivating applications (item placement in social networks, Ads
// placement, and P2P resource placement) plus the daemon+client pair
// (examples/serving), live graph mutation (examples/mutation) and
// mmap-backed warm restarts (examples/mmapserve), and
// internal/experiments regenerates every table and figure of the paper's
// evaluation section.
package rwdom
