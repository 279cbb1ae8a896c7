package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	rwdom "repro"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/index"
	"repro/internal/shard"
)

// selectSpec shapes one closed-loop selection workload. One job is a
// Problem-1 Select then a Problem-2 Select, each on a fresh walk seed, so
// every Select misses the index cache and pays a full index build.
type selectSpec struct {
	name    string
	n, m    int
	k, l, r int
	// tailPct is the fixed tail percentile: tailPercentile of the fewest jobs
	// a 22-second window measured on a 2-core box in a slow stretch of its
	// host (select-cold 75, select-sharded 50; see README.md).
	tailPct float64
	// sharded runs the jobs through a 2-shard in-process coordinator.
	sharded bool
	// redriveJobs is how many leading jobs a traced run re-drives layer by
	// layer after its window (select-cold).
	redriveJobs int
}

var (
	// Index build dominates (~90% of a job); the greedy loop and D-table are
	// the rest. HTTP, memo, spill and shard layers are bypassed.
	coldSpec = selectSpec{name: "select-cold", n: 5000, m: 30000, k: 50, l: 6, r: 50, tailPct: 80, redriveJobs: 4}
	// The coordinator's round-by-round PartialTopGains scatter dominates;
	// CELF in internal/greedy is bypassed.
	shardedSpec = selectSpec{name: "select-sharded", n: 2500, m: 15000, k: 20, l: 6, r: 50, tailPct: 80, sharded: true}
)

var problems = [2]index.Problem{index.Problem1, index.Problem2}

// selector is the Select surface shared by the embedded engine and the
// shard coordinator.
type selector interface {
	Select(context.Context, engine.SelectRequest) (*engine.SelectResult, error)
}

// job is one measured job: its walk seeds and both answers.
type job struct {
	seeds [2]uint64
	res   [2]*engine.SelectResult
}

// selectSystem is one set-up instance of a select workload.
type selectSystem struct {
	g     *graph.Graph
	sel   selector
	stats []func() engine.Stats // one per engine
	close func()
}

func setupSelect(spec selectSpec, rc runConfig) (*selectSystem, error) {
	g, err := rwdom.GeneratePowerLaw(spec.n, spec.m, rc.seed)
	if err != nil {
		return nil, err
	}
	if !spec.sharded {
		e, err := rwdom.Open(g, rwdom.WithWorkers(rc.workers))
		if err != nil {
			return nil, err
		}
		return &selectSystem{g: g, sel: e, stats: []func() engine.Stats{e.Stats}, close: func() { e.Close() }}, nil
	}
	// The topology rwdom.WithShards(2) builds — two engines configured as
	// rwdom.Open configures one, over disjoint replicate halves behind
	// shard.New — with a timing wrapper on each worker connection. The
	// wrapper records nothing on an untraced run.
	graphs := map[string]*graph.Graph{"default": g}
	ecfg := engine.Config{Graphs: graphs, DefaultWorkers: rc.workers,
		MaxR: math.MaxInt32, MaxK: math.MaxInt32, MaxWorkers: math.MaxInt32}
	var engines []*engine.Engine
	closeEngines := func() {
		for _, e := range engines {
			e.Close()
		}
	}
	sys := &selectSystem{g: g}
	var conns []shard.Conn
	for i := 0; i < 2; i++ {
		e, err := engine.New(ecfg)
		if err != nil {
			closeEngines()
			return nil, err
		}
		engines = append(engines, e)
		sys.stats = append(sys.stats, e.Stats)
		conns = append(conns, &tracedConn{Conn: shard.NewLocalConn(e, fmt.Sprintf("local/%d", i)), tr: rc.trace, n: g.N()})
	}
	co, err := shard.New(shard.Config{Graphs: graphs, MaxR: math.MaxInt32, MaxK: math.MaxInt32}, conns)
	if err != nil {
		closeEngines()
		return nil, err
	}
	sys.sel = co
	sys.close = func() {
		co.Close()
		closeEngines()
	}
	return sys, nil
}

func runSelect(ctx context.Context, rc runConfig, spec selectSpec) (*outcome, error) {
	sys, setupS, err := timeSetups(rc.minSetupReps(), func() (*selectSystem, func(), error) {
		s, err := setupSelect(spec, rc)
		if err != nil {
			return nil, nil, err
		}
		return s, s.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer sys.close()

	out := &outcome{metrics: map[string]float64{"setup_s": setupS}}
	r := rand.New(rand.NewPCG(rc.seed, 0x5e1ec7))
	var jobs []job
	var lat, latTraced, latUntraced []float64
	gw := startGCWindow()
	start := time.Now()
	for j := 0; time.Since(start) < rc.window; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Traced runs trace every other job; the untraced ones between them
		// give the tracing overhead.
		var tr *Tracer
		if j%2 == 0 {
			tr = rc.trace
		}
		jb := job{seeds: [2]uint64{r.Uint64(), r.Uint64()}}
		t0 := time.Now()
		root := tr.Begin("job", 0, int64(j))
		for p, prob := range problems {
			sp := tr.Begin(spanName(spec), root.id, int64(j))
			res, err := sys.sel.Select(withSpan(ctx, sp), engine.SelectRequest{
				Problem: prob, K: spec.k, L: spec.l, R: spec.r, Seed: jb.seeds[p], Workers: rc.workers,
			})
			sp.End(0)
			out.attempted++
			if err != nil {
				out.failed++
				out.problem("job %d problem %d: %v", j, prob, err)
				continue
			}
			jb.res[p] = res
		}
		root.End(0)
		d := ms(time.Since(t0))
		lat = append(lat, d)
		if tr != nil {
			latTraced = append(latTraced, d)
		} else {
			latUntraced = append(latUntraced, d)
		}
		jobs = append(jobs, jb)
	}
	elapsed := time.Since(start)
	out.metrics["max_rss_mb"] = maxRSSMB()
	alloc, pause := gw.finish(len(jobs))
	closedLoopMetrics(out, lat, elapsed, spec.tailPct)
	if rc.trace != nil {
		out.metrics["go.alloc_kb_per_op"] = alloc
		out.metrics["go.gc_pause_ms"] = pause
		out.metrics["trace.overhead_pct"] = overheadPct(latTraced, latUntraced)
		sys.statsMetrics(out)
	}

	if spec.sharded {
		if err := checkShardedAgainstUnsharded(ctx, sys.g, spec, jobs, out); err != nil {
			return nil, err
		}
	} else if err := redriveJobs(ctx, rc, spec, sys.g, jobs, out); err != nil {
		return nil, err
	}
	if rc.trace != nil {
		layerMetrics(rc.trace.Spans(), spec, out)
	}
	return out, nil
}

func spanName(spec selectSpec) string {
	if spec.sharded {
		return "shard.select"
	}
	return "engine.select"
}

// statsMetrics fills the engine and cache counters of a traced run.
func (s *selectSystem) statsMetrics(out *outcome) {
	var hits, misses, memoHits, memoMisses, shed, coalesced, evictions int64
	bytes := 0.0
	for _, stats := range s.stats {
		x := stats()
		hits += x.Cache.Hits
		misses += x.Cache.Misses
		memoHits += x.Memo.Hits
		memoMisses += x.Memo.Misses
		evictions += x.Memo.Evictions
		shed += x.Admission.Shed
		coalesced += x.SelectsCoalesced
		if x.Cache.Resident > 0 {
			bytes += float64(x.Cache.ResidentBytes) / float64(x.Cache.Resident)
		}
	}
	out.metrics["cache.index_hit_ratio"] = ratio(hits, hits+misses)
	out.metrics["engine.memo_hit_ratio"] = ratio(memoHits, memoHits+memoMisses)
	out.metrics["engine.memo_evictions"] = float64(evictions)
	out.metrics["engine.admission_shed"] = float64(shed)
	out.metrics["engine.selects_coalesced"] = float64(coalesced)
	out.metrics["index.bytes"] = bytes
}

// layerMetrics derives the per-layer metrics from a select run's spans.
func layerMetrics(spans []Span, spec selectSpec, out *outcome) {
	self := selfTimes(spans)
	if spec.sharded {
		sel := named(spans, "shard.select")
		top := named(spans, "shard.partial_topgains")
		gain := named(spans, "shard.partial_gain")
		if len(sel) == 0 {
			return
		}
		perSel := float64(len(sel))
		var selfMS []float64
		for _, s := range sel {
			selfMS = append(selfMS, ms(self[s.ID]))
		}
		var evals int64
		for _, s := range append(top, gain...) {
			evals += s.N
		}
		out.metrics["shard.partial_topgains_calls"] = float64(len(top)) / perSel
		out.metrics["shard.partial_topgains_ms"] = medianMS(top)
		out.metrics["shard.partial_gain_calls"] = float64(len(gain)) / perSel
		out.metrics["shard.evaluations"] = float64(evals) / perSel
		out.metrics["shard.coord_self_ms"] = median(selfMS)
		return
	}
	out.metrics["index.build_ms"] = medianMS(named(spans, "index.build"))
	out.metrics["index.build_ms_w1"] = medianMS(named(spans, "index.build_w1"))
	out.metrics["index.dtable_ms"] = medianMS(named(spans, "index.dtable"))
	var gainNS, gainN float64
	for _, s := range named(spans, "index.gain") {
		gainNS += float64(s.End - s.Start)
		gainN += float64(s.N)
	}
	if gainN > 0 {
		out.metrics["index.gain_ns"] = gainNS / gainN
	}
	if upd := named(spans, "index.update"); len(upd) > 0 {
		out.metrics["index.update_us"] = medianMS(upd) * 1000
	}
	var evals, selfMS []float64
	for _, s := range named(spans, "greedy.run") {
		evals = append(evals, float64(s.N))
		selfMS = append(selfMS, ms(self[s.ID]))
	}
	if len(evals) > 0 {
		out.metrics["greedy.evaluations"] = median(evals)
		out.metrics["greedy.self_ms"] = median(selfMS)
	}
}

// redriveJobs checks the engine's answers for the leading jobs against the
// harness driving the same layers directly: BuildRangeWorkers → NewDTable →
// greedy.RunLazyWorkersStream, which must agree bit for bit. Traced runs
// re-drive more jobs, with a span around every layer call, and also time a
// single-worker build of the same index.
func redriveJobs(ctx context.Context, rc runConfig, spec selectSpec, g *graph.Graph, jobs []job, out *outcome) error {
	workers := rc.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := 1
	if rc.trace != nil {
		n = spec.redriveJobs
	}
	for j := 0; j < n && j < len(jobs); j++ {
		for p, prob := range problems {
			want := jobs[j].res[p]
			if want == nil {
				continue
			}
			req := int64(-1 - (2*j + p))
			got, err := redrive(ctx, rc.trace, g, spec, prob, jobs[j].seeds[p], workers, req)
			if err != nil {
				return err
			}
			if !sameSelection(want.Nodes, want.Gains, got.Selected, got.Gains) || want.Evaluations != got.Evaluations {
				out.problem("job %d problem %d: engine selection differs from the direct re-drive", j, prob)
			}
		}
	}
	return nil
}

func redrive(ctx context.Context, tr *Tracer, g *graph.Graph, spec selectSpec, prob index.Problem, seed uint64, workers int, req int64) (*greedy.Result, error) {
	root := tr.Begin("redrive.select", 0, req)
	defer root.End(0)
	b := tr.Begin("index.build", root.id, req)
	ix, err := index.BuildRangeWorkers(g, spec.l, seed, 0, spec.r, workers)
	b.End(0)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		b1 := tr.Begin("index.build_w1", root.id, req)
		_, err := index.BuildRangeWorkers(g, spec.l, seed, 0, spec.r, 1)
		b1.End(0)
		if err != nil {
			return nil, err
		}
	}
	dt := tr.Begin("index.dtable", root.id, req)
	d, err := ix.NewDTable(prob)
	dt.End(0)
	if err != nil {
		return nil, err
	}
	gr := tr.Begin("greedy.run", root.id, req)
	res, err := greedy.RunLazyWorkersStream(ctx, g.N(), spec.k, &tracedOracle{d: d, tr: tr, parent: gr.id, req: req}, workers, nil)
	if err != nil {
		gr.End(0)
		return nil, err
	}
	gr.End(int64(res.Evaluations))
	return res, nil
}

// tracedOracle is a greedy.BatchOracle over a D-table that records a span
// around every gain evaluation and update.
type tracedOracle struct {
	d           *index.DTable
	tr          *Tracer
	parent, req int64
}

func (o *tracedOracle) Gain(u int) float64 {
	s := o.tr.Begin("index.gain", o.parent, o.req)
	g := o.d.Gain(u)
	s.End(1)
	return g
}

func (o *tracedOracle) GainBatch(us []int, out []float64) []float64 {
	s := o.tr.Begin("index.gain", o.parent, o.req)
	out = o.d.GainBatch(us, out)
	s.End(int64(len(us)))
	return out
}

func (o *tracedOracle) Update(u int) {
	s := o.tr.Begin("index.update", o.parent, o.req)
	o.d.Update(u)
	s.End(1)
}

// checkShardedAgainstUnsharded requires the first two sharded jobs to equal
// an unsharded engine's answers for the same seeds.
func checkShardedAgainstUnsharded(ctx context.Context, g *graph.Graph, spec selectSpec, jobs []job, out *outcome) error {
	e, err := rwdom.Open(g)
	if err != nil {
		return err
	}
	defer e.Close()
	for j := 0; j < 2 && j < len(jobs); j++ {
		for p, prob := range problems {
			want := jobs[j].res[p]
			if want == nil {
				continue
			}
			got, err := e.Select(ctx, rwdom.SelectRequest{Problem: prob, K: spec.k, L: spec.l, R: spec.r, Seed: jobs[j].seeds[p]})
			if err != nil {
				return err
			}
			if !sameSelection(got.Nodes, got.Gains, want.Nodes, want.Gains) {
				out.problem("job %d problem %d: sharded selection differs from the unsharded engine", j, prob)
			}
		}
	}
	return nil
}

// sameSelection reports whether two selections agree node for node and gain
// for gain, bit for bit.
func sameSelection(nodesA []int, gainsA []float64, nodesB []int, gainsB []float64) bool {
	if len(nodesA) != len(nodesB) || len(gainsA) != len(gainsB) {
		return false
	}
	for i := range nodesA {
		if nodesA[i] != nodesB[i] {
			return false
		}
	}
	for i := range gainsA {
		if math.Float64bits(gainsA[i]) != math.Float64bits(gainsB[i]) {
			return false
		}
	}
	return true
}

// tracedConn is a shard.Conn that records a span around each partial read
// made on behalf of a traced Select (found through the call's context). N
// on a span is the gain evaluations the call asked the shard for: the whole
// candidate pool for a top-gains sweep, the listed nodes for a point lookup.
type tracedConn struct {
	shard.Conn
	tr *Tracer
	n  int
}

func (c *tracedConn) PartialTopGains(ctx context.Context, req engine.PartialTopGainsRequest) (*engine.PartialTopGainsResult, error) {
	ref, ok := spanFrom(ctx)
	if !ok {
		return c.Conn.PartialTopGains(ctx, req)
	}
	s := c.tr.Begin("shard.partial_topgains", ref.id, ref.req)
	res, err := c.Conn.PartialTopGains(ctx, req)
	s.End(int64(c.n - len(req.Set)))
	return res, err
}

func (c *tracedConn) PartialGain(ctx context.Context, req engine.PartialGainRequest) (*engine.PartialGainResult, error) {
	ref, ok := spanFrom(ctx)
	if !ok {
		return c.Conn.PartialGain(ctx, req)
	}
	s := c.tr.Begin("shard.partial_gain", ref.id, ref.req)
	res, err := c.Conn.PartialGain(ctx, req)
	s.End(int64(len(req.Nodes)))
	return res, err
}
