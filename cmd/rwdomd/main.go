// Command rwdomd is the random-walk-domination query-serving daemon: a
// thin HTTP codec over the transport-agnostic query engine
// (internal/engine). It loads graphs once at startup; the engine
// materializes walk indexes on demand into a refcounted LRU cache,
// memoizes per-set D-tables so repeated gain queries are pure reads, and
// coalesces identical concurrent selections. SIGTERM/SIGINT drain in-flight
// queries and spill resident indexes to the cache directory so a restart
// starts warm. Errors share one machine-readable JSON envelope
// ({"error":{"code","message"}}) on every path; the repro/client package
// is the typed Go SDK for this daemon.
//
// Examples:
//
//	rwdomd -dataset Epinions:0.2 -listen :7474
//	rwdomd -graph web=web.txt -graph social=social.txt -spill /var/cache/rwdomd
//	rwdomd -dataset CAGrQc -cache 4 -evict-every 10m -drain 30s -memo 256
//	rwdomd -dataset Epinions -index-bytes 2GiB -memo-bytes 256MiB
//	rwdomd -dataset Epinions -spill /var/cache/rwdomd -mmap   # O(1) page-in warm restarts
//	rwdomd -dataset Epinions -spill /var/cache/rwdomd -spill-format v7   # legacy spill format
//
// Replicate-sharded serving splits the R walk replicates across shards and
// merges their integer partial sums exactly, so sharded answers are
// bit-identical to unsharded ones. -shards runs coordinator and workers in
// one process (each worker holds 1/N of every index); -peer points a
// coordinator at separate worker daemons, which serve the /v1/partial range
// endpoints:
//
//	rwdomd -dataset Epinions -shards 4
//	rwdomd -dataset Epinions -peer http://worker0:7474 -peer http://worker1:7474
//
// Adaptive accuracy budgets (-epsilon, optional -delta) turn the per-request
// R into a cap: the walk index is materialized in replicate chunks and each
// greedy round stops sampling once a confidence interval on the leader's
// separation beats epsilon, so easy graphs finish with a fraction of R while
// hard graphs spend the cap and report the interval they achieved (the
// reply's "accuracy" block). Requests may also opt in per call with
// "epsilon"/"delta" body fields. Not available on sharded deployments (501
// "unsupported"):
//
//	rwdomd -dataset Epinions -epsilon 0.5 -delta 0.05
//	curl -s localhost:7474/v1/select -d '{"graph":"Epinions","k":10,"L":6,"epsilon":0.5}'
//
// Query it with curl:
//
//	curl -s localhost:7474/v1/select -d '{"graph":"Epinions","problem":"coverage","k":10,"L":6}'
//	curl -sN 'localhost:7474/v1/select?stream=1' -d '{"graph":"Epinions","k":10,"L":6}'   # NDJSON round events
//	curl -s 'localhost:7474/v1/gain?graph=Epinions&L=6&set=1,2&nodes=7,9'
//	curl -s 'localhost:7474/v1/topgains?graph=Epinions&L=6&set=1,2&b=10'
//	curl -s -X POST localhost:7474/v1/graph/Epinions/edges -d '{"add":[{"u":11,"v":17}]}'   # mutate: bumps the epoch, repairs warm indexes
//	curl -s localhost:7474/stats
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/server"
)

// stringList is a repeatable flag.
type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

// byteSize is a memory-budget flag: a non-negative integer with an optional
// binary suffix (KiB/MiB/GiB/TiB, or the lazy forms K/M/G/T), e.g. "2GiB",
// "512MiB", "1048576". 0 means unbounded.
type byteSize int64

func (b *byteSize) String() string { return strconv.FormatInt(int64(*b), 10) }

func (b *byteSize) Set(v string) error {
	n, err := parseByteSize(v)
	if err != nil {
		return err
	}
	*b = byteSize(n)
	return nil
}

// parseByteSize parses "512MiB"-style sizes into bytes.
func parseByteSize(v string) (int64, error) {
	s := strings.TrimSpace(v)
	shift := 0
	for _, u := range []struct {
		suffix string
		shift  int
	}{
		{"KiB", 10}, {"MiB", 20}, {"GiB", 30}, {"TiB", 40},
		{"K", 10}, {"M", 20}, {"G", 30}, {"T", 40},
	} {
		if strings.HasSuffix(s, u.suffix) {
			s, shift = strings.TrimSuffix(s, u.suffix), u.shift
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q: want a non-negative integer with optional KiB/MiB/GiB/TiB suffix", v)
	}
	if n > (1<<63-1)>>shift {
		return 0, fmt.Errorf("size %q overflows", v)
	}
	return n << shift, nil
}

func main() {
	var (
		graphFlags   stringList
		datasetFlags stringList
		peerFlags    stringList
	)
	flag.Var(&graphFlags, "graph", "serve an edge-list file as name=path (repeatable)")
	flag.Var(&datasetFlags, "dataset", "serve a paper dataset stand-in as name[:scale] (repeatable; CAGrQc, CAHepPh, Brightkite, Epinions)")
	flag.Var(&peerFlags, "peer", "serve as a coordinator over this worker daemon's base URL (repeatable; replicate ranges are split across peers)")
	var (
		listen     = flag.String("listen", ":7474", "HTTP listen address")
		cacheSize  = flag.Int("cache", 8, "max resident walk indexes (<0 = unbounded)")
		spillDir   = flag.String("spill", "", "directory for evicted/shutdown index spills (empty = disabled)")
		spillFmt   = flag.String("spill-format", "v8", "on-disk format spills are written in: v8 (compressed store container; a heap load decodes it once, a -mmap load decodes on read), v8raw (raw page-aligned sections), or v7 (legacy); loads accept every format")
		mmapSpills = flag.Bool("mmap", false, "serve v8 spill loads off a read-only memory mapping (page-in warm restarts, mapped indexes cost ~nothing against -index-bytes)")
		workers    = flag.Int("workers", 0, "default per-request workers (0 = all cores)")
		maxWorkers = flag.Int("max-workers", 0, "cap on the per-request workers knob (0 = all cores)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-request timeout")
		maxTimeout = flag.Duration("max-timeout", 5*time.Minute, "cap on the per-request timeout knob")
		drain      = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain budget for in-flight queries")
		evictEvery = flag.Duration("evict-every", 0, "evict indexes idle for one full interval (0 = disabled)")
		maxR       = flag.Int("max-R", 1000, "cap on the per-request sample size R")
		maxK       = flag.Int("max-k", 10000, "cap on the per-request budget k")
		memoSize   = flag.Int("memo", 128, "max memoized per-set D-tables for the gain read path (<0 = unbounded)")
		noMemo     = flag.Bool("no-memo", false, "disable the memoized gain read path (every gain/objective/topgains request replays its set)")
		maxConc    = flag.Int("max-concurrent", 0, "concurrent heavy computations admitted (0 = 2x cores, <0 = unbounded); excess requests queue then shed with 503 overloaded")
		maxQueue   = flag.Int("max-queue", 0, "requests allowed to wait for a computation slot (0 = 8x slots)")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint attached to shed (503 overloaded) responses")
		shards     = flag.Int("shards", 0, "run an in-process replicate-sharded coordinator with this many worker shards (0 or 1 = unsharded)")
		epsilon    = flag.Float64("epsilon", 0, "default accuracy target: adaptive replicate budgets stop each greedy round once the leader's separation CI half-width is <= epsilon (0 = off; R becomes a cap; incompatible with -shards/-peer)")
		delta      = flag.Float64("delta", 0, "confidence for -epsilon (and per-request epsilons): each round's CI holds with probability >= 1-delta/k (0 = 0.05)")
		accChunk   = flag.Int("accuracy-chunk", 0, "replicate-chunk width adaptive runs build per step (0 = R/8, rounded up); in sharded mode, aligns per-worker replicate spans to this multiple")
	)
	var indexBytes, memoBytes byteSize
	flag.Var(&indexBytes, "index-bytes", "heap budget for resident walk indexes, e.g. 2GiB or 512MiB (0 = unbounded)")
	flag.Var(&memoBytes, "memo-bytes", "heap budget for memoized D-tables, e.g. 256MiB (0 = unbounded)")
	flag.Parse()

	graphs, err := loadGraphs(graphFlags, datasetFlags)
	if err != nil {
		fatal(err)
	}
	if len(graphs) == 0 {
		fatal(fmt.Errorf("no graphs to serve: pass at least one -graph or -dataset"))
	}
	for name, g := range graphs {
		log.Printf("graph %q: %v", name, g)
	}

	s, err := server.New(server.Config{
		Graphs:         graphs,
		CacheSize:      *cacheSize,
		IndexBytes:     int64(indexBytes),
		SpillDir:       *spillDir,
		SpillFormat:    *spillFmt,
		MmapSpills:     *mmapSpills,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		DrainTimeout:   *drain,
		EvictInterval:  *evictEvery,
		DefaultWorkers: *workers,
		MaxWorkers:     *maxWorkers,
		MaxR:           *maxR,
		MaxK:           *maxK,
		MemoSize:       *memoSize,
		MemoBytes:      int64(memoBytes),
		DisableMemo:    *noMemo,
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQueue,
		RetryAfterHint: *retryAfter,
		Shards:         *shards,
		Peers:          peerFlags,
		DefaultEpsilon: *epsilon,
		DefaultDelta:   *delta,
		AccuracyChunk:  *accChunk,
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	log.Printf("rwdomd listening on %s (%d graphs, cache %d, spill %q)", *listen, len(graphs), *cacheSize, *spillDir)
	if err := s.ListenAndServe(ctx, *listen); err != nil {
		fatal(err)
	}
	log.Printf("rwdomd: drained and stopped")
}

// loadGraphs resolves the -graph and -dataset flags into named graphs.
func loadGraphs(graphFlags, datasetFlags stringList) (map[string]*graph.Graph, error) {
	graphs := make(map[string]*graph.Graph)
	add := func(name string, g *graph.Graph, err error) error {
		if err != nil {
			return fmt.Errorf("graph %q: %w", name, err)
		}
		if _, dup := graphs[name]; dup {
			return fmt.Errorf("duplicate graph name %q", name)
		}
		graphs[name] = g
		return nil
	}
	for _, spec := range graphFlags {
		name, path, err := parseGraphSpec(spec)
		if err != nil {
			return nil, err
		}
		g, err := graph.LoadEdgeListFile(path, graph.Undirected)
		if err := add(name, g, err); err != nil {
			return nil, err
		}
	}
	for _, spec := range datasetFlags {
		name, scale, err := parseDatasetSpec(spec)
		if err != nil {
			return nil, err
		}
		g, err := dataset.Load(name, scale)
		if err := add(name, g, err); err != nil {
			return nil, err
		}
	}
	return graphs, nil
}

// parseGraphSpec splits "name=path".
func parseGraphSpec(spec string) (name, path string, err error) {
	name, path, ok := strings.Cut(spec, "=")
	if !ok || name == "" || path == "" {
		return "", "", fmt.Errorf("bad -graph %q: want name=path", spec)
	}
	return name, path, nil
}

// parseDatasetSpec splits "name[:scale]"; scale defaults to 1.
func parseDatasetSpec(spec string) (name string, scale float64, err error) {
	name, scaleStr, has := strings.Cut(spec, ":")
	if name == "" {
		return "", 0, fmt.Errorf("bad -dataset %q: want name[:scale]", spec)
	}
	scale = 1
	if has {
		scale, err = strconv.ParseFloat(scaleStr, 64)
		if err != nil || scale <= 0 || scale > 1 {
			return "", 0, fmt.Errorf("bad -dataset %q: scale must be in (0,1]", spec)
		}
	}
	return name, scale, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rwdomd:", err)
	os.Exit(1)
}
