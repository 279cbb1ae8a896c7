package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	rwdom "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/server"
)

// mutate-mixed: writes beside reads on the same memo and index layers.
// Every delta bumps the epoch and drops every memo table, and the index is
// repaired in place or, when a read holds it, dropped for a rebuild; the
// reads that follow rebuild D-tables and rerun TopGains sweeps.
const (
	mutN, mutM  = 5000, 30000
	mutGraph    = "g"
	mutL, mutR  = 6, 50
	mutWalkSeed = 1
	// mutReadsPerDelta: a delta falls due after every 60 reads, 2-3 deltas/s
	// at the 120-200 reads/s this workload runs at on a 2-core box. Pacing
	// deltas by reads rather than by the clock keeps the memo hit/miss mix,
	// and so the latency distribution, fixed by the seed: with deltas on a
	// clock, a slower machine read less per epoch, hit the memo less, and
	// the median jumped between the Gain and TopGains clusters.
	mutReadsPerDelta = 60
	mutToggleEdges   = 8
	mutSets          = 16
	mutSetSize       = 5
	mutSelectK       = 10
	mutReadTailPct   = 90
	// mutWriteTailPct: 40-70 writes in a 22-second window on a 2-core box;
	// p75 leaves at least 10 beyond from 40 writes up.
	mutWriteTailPct = 75
	// mutShadowDeltas bounds how many deltas a traced run replays through
	// the graph and index layers directly.
	mutShadowDeltas = 24
)

// toggleDeltas returns count deltas that alternate between adding edges
// absent from g and removing those same edges: the graph is back to g's edge
// set after every second delta, so the size stays flat and no delta
// conflicts.
func toggleDeltas(g *graph.Graph, r *rand.Rand, count, edges int) []graph.Delta {
	out := make([]graph.Delta, 0, count)
	for len(out) < count {
		add := make([]graph.Edge, 0, edges)
		seen := make(map[[2]int]bool, edges)
		for len(add) < edges {
			u, v := r.IntN(g.N()), r.IntN(g.N())
			k := [2]int{min(u, v), max(u, v)}
			if u == v || seen[k] || g.HasEdge(u, v) {
				continue
			}
			seen[k] = true
			add = append(add, graph.Edge{U: u, V: v})
		}
		out = append(out, graph.Delta{AddEdges: add})
		if len(out) < count {
			out = append(out, graph.Delta{RemoveEdges: add})
		}
	}
	return out
}

// mutateMix draws mutate-mixed's reads: 50% Gain on 2 candidates, 40%
// TopGains b=10, 10% Select k=10; both problems; seed sets uniform over the
// pool.
func mutateMix(r *rand.Rand, sets [][]int, n int) func() readReq {
	return func() readReq {
		q := readReq{problem: problems[r.IntN(2)], set: sets[r.IntN(len(sets))]}
		switch x := r.IntN(100); {
		case x < 50:
			q.op = opGain
			q.nodes = []int{r.IntN(n), r.IntN(n)}
		case x < 90:
			q.op = opTopGains
		default:
			q.op = opSelect
		}
		return q
	}
}

func clientDelta(name string, d graph.Delta) client.ApplyDeltaRequest {
	req := client.ApplyDeltaRequest{Graph: name}
	for _, e := range d.AddEdges {
		req.Add = append(req.Add, client.Edge{U: e.U, V: e.V})
	}
	for _, e := range d.RemoveEdges {
		req.Remove = append(req.Remove, client.Edge{U: e.U, V: e.V})
	}
	return req
}

// mutSystem is one set-up instance of mutate-mixed.
type mutSystem struct {
	g    *graph.Graph
	sets [][]int
	d    *daemon
}

func runMutateMixed(ctx context.Context, rc runConfig) (*outcome, error) {
	workers := rc.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Set-up: generate the graph, start the daemon, and build the index with
	// one read per problem.
	sys, setupS, err := timeSetups(rc.minSetupReps(), func() (*mutSystem, func(), error) {
		g, err := rwdom.GeneratePowerLaw(mutN, mutM, rc.seed)
		if err != nil {
			return nil, nil, err
		}
		sets := seedSets(rand.New(rand.NewPCG(rc.seed, 0x5e75)), mutSets, mutSetSize, g.N())
		d, err := startDaemon(server.Config{Graphs: map[string]*graph.Graph{mutGraph: g}}, 2)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range problems {
			if _, err := clientRead(ctx, d.clients[0], mutGraph, mutL, mutR, mutWalkSeed, readReq{op: opTopGains, problem: p, set: sets[0]}); err != nil {
				d.close()
				return nil, nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return &mutSystem{g: g, sets: sets, d: d}, d.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer sys.d.close()

	r := rand.New(rand.NewPCG(rc.seed, 0x3d17a))
	// Enough deltas for one every mutReadsPerDelta reads at well over any
	// read rate this workload reaches.
	deltas := toggleDeltas(sys.g, r, int(rc.window.Seconds())*20, mutToggleEdges)
	next := mutateMix(r, sys.sets, sys.g.N())
	reader, writer := sys.d.clients[0], sys.d.clients[1]
	before, err := reader.Stats(ctx)
	if err != nil {
		return nil, err
	}

	// The writer goroutine sends each delta on its own connection as soon as
	// it falls due, without waiting for the reader, which runs closed loop on
	// the other connection and goes straight on to its next read. A delta
	// therefore lands while a read is in flight, and its latency runs from
	// when it fell due, so a delta queued behind a slow one counts the wait.
	start := time.Now()
	due := make(chan sent, len(deltas))
	resps := make([]*client.ApplyDeltaResponse, len(deltas))
	var writes []sent
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := range due {
			w.sent = time.Since(start)
			sp := rc.trace.Begin("client.apply_delta", 0, int64(-1-w.i))
			resps[w.i], w.err = writer.ApplyDelta(ctx, clientDelta(mutGraph, deltas[w.i]))
			sp.End(0)
			w.done = time.Since(start)
			writes = append(writes, w)
		}
	}()

	out := &outcome{metrics: map[string]float64{"setup_s": setupS}}
	var lat, latTraced, latUntraced []float64
	gw := startGCWindow()
	reads, queued := 0, 0
	for time.Since(start) < rc.window && ctx.Err() == nil {
		// Traced runs trace every other read.
		var tr *Tracer
		if reads%2 == 0 {
			tr = rc.trace
		}
		q := next()
		t0 := time.Now()
		sp := tr.Begin("client."+opNames[q.op], 0, int64(reads))
		_, err := clientRead(ctx, reader, mutGraph, mutL, mutR, mutWalkSeed, q)
		sp.End(0)
		l := ms(time.Since(t0))
		reads++
		out.attempted++
		if reads%mutReadsPerDelta == 0 && queued < len(deltas) {
			due <- sent{i: queued, due: time.Since(start)}
			queued++
		}
		if err != nil {
			out.failed++
			out.problem("read %d (%s): %v", reads, opNames[q.op], err)
			continue
		}
		lat = append(lat, l)
		if tr != nil {
			latTraced = append(latTraced, l)
		} else {
			latUntraced = append(latUntraced, l)
		}
	}
	elapsed := time.Since(start)
	close(due)
	wg.Wait()
	out.metrics["max_rss_mb"] = maxRSSMB()

	var writeLat []float64
	var applied []graph.Delta
	var memosDropped, repaired, dropped int
	var lastEpoch uint64
	for _, w := range writes {
		out.attempted++
		if w.err != nil {
			out.failed++
			out.problem("delta %d: %v", w.i, w.err)
			continue
		}
		resp := resps[w.i]
		writeLat = append(writeLat, ms(w.latency()))
		applied = append(applied, deltas[w.i])
		memosDropped += resp.MemosDropped
		repaired += resp.IndexesRepaired
		dropped += resp.IndexesDropped
		lastEpoch = max(lastEpoch, resp.Epoch)
	}
	alloc, pause := gw.finish(len(lat) + len(writeLat))
	after, err := reader.Stats(ctx)
	if err != nil {
		return nil, err
	}
	closedLoopMetrics(out, lat, elapsed, mutReadTailPct)
	out.metrics["write_p50_ms"] = median(writeLat)
	out.metrics["write_tail_ms"] = percentile(writeLat, mutWriteTailPct)
	out.note("write_tail_ms is p%d of %d writes (%d beyond)", mutWriteTailPct, len(writeLat), beyond(len(writeLat), mutWriteTailPct))
	out.note("%d deltas applied: %d index repairs, %d index drops, %d memo tables dropped", len(applied), repaired, dropped, memosDropped)
	if lastEpoch != uint64(len(applied)) {
		out.problem("graph epoch %d after %d applied deltas", lastEpoch, len(applied))
	}

	final, err := replayDeltas(ctx, rc.trace, sys.g, applied, sys.sets, workers)
	if err != nil {
		return nil, err
	}
	if err := checkRepairedSelect(ctx, reader, final, workers, out); err != nil {
		return nil, err
	}

	if rc.trace != nil {
		out.metrics["go.alloc_kb_per_op"] = alloc
		out.metrics["go.gc_pause_ms"] = pause
		out.metrics["trace.overhead_pct"] = overheadPct(latTraced, latUntraced)
		if len(applied) > 0 {
			out.metrics["engine.memos_dropped"] = float64(memosDropped) / float64(len(applied))
		}
		out.metrics["index.repair_ratio"] = ratio(int64(repaired), int64(repaired+dropped))
		wireStatsMetrics(out, before, after)
		spans := rc.trace.Spans()
		out.metrics["graph.apply_delta_ms"] = medianMS(named(spans, "graph.apply_delta"))
		out.metrics["index.repair_ms"] = medianMS(named(spans, "index.repair"))
		out.metrics["index.dtable_ms"] = medianMS(named(spans, "index.dtable"))
		out.metrics["core.topgains_ms"] = medianMS(named(spans, "core.topgains"))
	}
	return out, nil
}

// replayDeltas applies the deltas the daemon accepted to g, returning the
// daemon's final graph. A traced run also keeps a shadow index through the
// first mutShadowDeltas of them, timing each layer of the write path —
// graph.ApplyDelta, Index.Repair — and of the fresh-epoch read it forces:
// a D-table for one seed set, then core.TopGains on it.
func replayDeltas(ctx context.Context, tr *Tracer, g *graph.Graph, applied []graph.Delta, sets [][]int, workers int) (*graph.Graph, error) {
	var ix *index.Index
	if tr != nil {
		var err error
		if ix, err = index.BuildRangeWorkers(g, mutL, mutWalkSeed, 0, mutR, workers); err != nil {
			return nil, err
		}
	}
	cur := g
	for i, delta := range applied {
		if tr == nil || i >= mutShadowDeltas {
			ng, _, err := cur.ApplyDelta(delta)
			if err != nil {
				return nil, err
			}
			cur = ng
			continue
		}
		req := int64(i)
		sp := tr.Begin("graph.apply_delta", 0, req)
		ng, touched, err := cur.ApplyDelta(delta)
		sp.End(int64(len(touched)))
		if err != nil {
			return nil, err
		}
		sp = tr.Begin("index.repair", 0, req)
		err = ix.Repair(ng, touched)
		sp.End(int64(len(touched)))
		if err != nil {
			return nil, err
		}
		cur = ng
		set, prob := sets[i%len(sets)], problems[i%2]
		sp = tr.Begin("index.dtable", 0, req)
		dt, err := ix.NewDTable(prob)
		if err == nil {
			for _, u := range set {
				dt.Update(u)
			}
		}
		sp.End(int64(len(set)))
		if err != nil {
			return nil, err
		}
		exclude := make([]bool, cur.N())
		for _, u := range set {
			exclude[u] = true
		}
		sp = tr.Begin("core.topgains", 0, req)
		_, _, err = core.TopGains(ctx, dt, 10, exclude, workers)
		sp.End(int64(cur.N() - len(set)))
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// checkRepairedSelect requires a Select on the daemon's repaired index to
// equal one on a from-scratch build of the final graph, for both problems.
func checkRepairedSelect(ctx context.Context, c *client.Client, final *graph.Graph, workers int, out *outcome) error {
	ix, err := index.BuildRangeWorkers(final, mutL, mutWalkSeed, 0, mutR, workers)
	if err != nil {
		return err
	}
	for _, p := range problems {
		want, err := core.ApproxWithIndexCtx(ctx, ix, p, mutSelectK, true, workers)
		if err != nil {
			return err
		}
		got, err := clientRead(ctx, c, mutGraph, mutL, mutR, mutWalkSeed, readReq{op: opSelect, problem: p})
		if err != nil {
			return err
		}
		if !sameSelection(got.nodes, got.values, want.Nodes, want.Gains) {
			out.problem("problem %d: select on the repaired index differs from a from-scratch build of the final graph", p)
		}
	}
	return nil
}
