package rwdom

// This file contains one testing.B benchmark per table and figure of the
// paper's evaluation section (regenerating each at benchmark scale; run
// cmd/experiments for readable output and larger scales), followed by
// ablation benches for the design decisions called out in DESIGN.md §6.
//
// Set RWDOM_BENCH_PRINT=1 to print each experiment's report to stdout on the
// first benchmark iteration.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/walk"
)

// benchConfig is deliberately tiny: benchmarks measure the harness, not the
// paper-scale workloads.
func benchConfig() experiments.Config {
	return experiments.Config{Scale: 0.02, ScaleG: 0.002, Seed: 1}
}

func runExperiment(b *testing.B, fn func(experiments.Config) (*experiments.Report, error)) {
	b.Helper()
	out := io.Discard
	if os.Getenv("RWDOM_BENCH_PRINT") == "1" {
		out = io.Writer(os.Stdout)
	}
	for i := 0; i < b.N; i++ {
		rep, err := fn(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if err := rep.Render(out); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2Datasets regenerates Table 2 (dataset summary).
func BenchmarkTable2Datasets(b *testing.B) { runExperiment(b, experiments.Table2) }

// BenchmarkFig2DPF1VsApproxF1 regenerates Fig. 2 (DPF1 vs ApproxF1
// effectiveness as a function of R).
func BenchmarkFig2DPF1VsApproxF1(b *testing.B) { runExperiment(b, experiments.Fig2) }

// BenchmarkFig3DPF2VsApproxF2 regenerates Fig. 3.
func BenchmarkFig3DPF2VsApproxF2(b *testing.B) { runExperiment(b, experiments.Fig3) }

// BenchmarkFig4RunningTimeDPVsApprox regenerates Fig. 4 (running time of the
// DP-based vs the approximate greedy algorithms).
func BenchmarkFig4RunningTimeDPVsApprox(b *testing.B) { runExperiment(b, experiments.Fig4) }

// BenchmarkFig5RunningTimeVsR regenerates Fig. 5 (approximate greedy running
// time as a function of R).
func BenchmarkFig5RunningTimeVsR(b *testing.B) { runExperiment(b, experiments.Fig5) }

// BenchmarkFig6AHTAcrossDatasets regenerates Fig. 6 (AHT of the four
// algorithms over the four datasets).
func BenchmarkFig6AHTAcrossDatasets(b *testing.B) { runExperiment(b, experiments.Fig6) }

// BenchmarkFig7EHNAcrossDatasets regenerates Fig. 7 (EHN comparison).
func BenchmarkFig7EHNAcrossDatasets(b *testing.B) { runExperiment(b, experiments.Fig7) }

// BenchmarkFig8RunningTimeKL regenerates Fig. 8 (running time vs k and vs L
// on the Epinions stand-in).
func BenchmarkFig8RunningTimeKL(b *testing.B) { runExperiment(b, experiments.Fig8) }

// BenchmarkFig9Scalability regenerates Fig. 9 (linear scalability over
// G1..G10).
func BenchmarkFig9Scalability(b *testing.B) { runExperiment(b, experiments.Fig9) }

// BenchmarkFig10EffectOfL regenerates Fig. 10 (effect of the walk-length
// bound L).
func BenchmarkFig10EffectOfL(b *testing.B) { runExperiment(b, experiments.Fig10) }

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §6)
// ---------------------------------------------------------------------------

// adjListGraph is the naive slice-of-slices adjacency representation used
// only by the CSR ablation.
type adjListGraph struct{ rows [][]int32 }

func toAdjList(g *Graph) *adjListGraph {
	rows := make([][]int32, g.N())
	for u := 0; u < g.N(); u++ {
		rows[u] = append([]int32(nil), g.Neighbors(u)...)
	}
	return &adjListGraph{rows: rows}
}

// BenchmarkAblationCSRVsAdjList compares random-walk stepping over the CSR
// layout against a slice-of-slices adjacency list. CSR's flat arrays are the
// reason walk sampling stays memory-bound rather than pointer-chasing-bound.
func BenchmarkAblationCSRVsAdjList(b *testing.B) {
	g, err := GeneratePowerLaw(20000, 100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	const L = 10
	// Both arms are bare stepping loops over the same RNG so only the
	// memory layout differs.
	b.Run("CSR", func(b *testing.B) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			u := i % g.N()
			for step := 0; step < L; step++ {
				row := g.Neighbors(u)
				if len(row) == 0 {
					break
				}
				u = int(row[r.Intn(len(row))])
			}
		}
	})
	b.Run("AdjList", func(b *testing.B) {
		al := toAdjList(g)
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			u := i % len(al.rows)
			for step := 0; step < L; step++ {
				row := al.rows[u]
				if len(row) == 0 {
					break
				}
				u = int(row[r.Intn(len(row))])
			}
		}
	})
	// Full walk engine (buffer recording, weighted-capable PickNeighbor)
	// for context against the bare CSR loop.
	b.Run("WalkerEngine", func(b *testing.B) {
		w, _ := walk.NewWalker(g, L, 1)
		for i := 0; i < b.N; i++ {
			w.Walk(i % g.N())
		}
	})
}

// BenchmarkAblationLazyVsPlainGreedy compares the CELF lazy driver against
// the plain per-round scan for the DP-based greedy algorithm — the paper
// cites lazy evaluation as worth "several orders of magnitude".
func BenchmarkAblationLazyVsPlainGreedy(b *testing.B) {
	g, err := GeneratePowerLaw(400, 2400, 2)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{K: 10, L: 5, Seed: 1}
	b.Run("Plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DPF1(g, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Lazy", func(b *testing.B) {
		lazyOpts := opts
		lazyOpts.Lazy = true
		for i := 0; i < b.N; i++ {
			if _, err := core.DPF1(g, lazyOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationIndexVsResample compares the paper's central design
// decision: the materialized inverted index (Algorithm 6, O(nR) walks total)
// against per-round re-sampling (the sampling-based greedy, O(kn²R) walks).
func BenchmarkAblationIndexVsResample(b *testing.B) {
	// Small parameters: the re-sampling arm is O(k·n²·R·L) and would take
	// minutes per iteration at realistic sizes — which is the point being
	// measured. The experiments "ablations" runner reports a larger-scale
	// one-shot comparison.
	g, err := GeneratePowerLaw(200, 1200, 3)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{K: 4, L: 5, R: 15, Seed: 1}
	b.Run("InvertedIndex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ApproxF1(g, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Resample", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SampleF1(g, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationVisitedStamp compares the generation-stamp visited-set
// reset used by index construction against zeroing a boolean array per walk
// (the paper's "Initialize visited[1:n] ← 0", Algorithm 3 line 4).
func BenchmarkAblationVisitedStamp(b *testing.B) {
	g, err := GeneratePowerLaw(20000, 100000, 4)
	if err != nil {
		b.Fatal(err)
	}
	const L = 10
	b.Run("GenerationStamp", func(b *testing.B) {
		visited := make([]uint32, g.N())
		var generation uint32
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			generation++
			u := i % g.N()
			visited[u] = generation
			for step := 0; step < L; step++ {
				v := g.PickNeighbor(u, r.Float64())
				if v < 0 {
					break
				}
				if visited[v] != generation {
					visited[v] = generation
				}
				u = v
			}
		}
	})
	b.Run("ClearPerWalk", func(b *testing.B) {
		visited := make([]bool, g.N())
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			for j := range visited {
				visited[j] = false
			}
			u := i % g.N()
			visited[u] = true
			for step := 0; step < L; step++ {
				v := g.PickNeighbor(u, r.Float64())
				if v < 0 {
					break
				}
				visited[v] = true
				u = v
			}
		}
	})
}

// BenchmarkAblationAliasVsBinarySearch compares weighted neighbor sampling
// through the precomputed alias tables (O(1) per step) against the prior
// per-step binary search over cumulative weights (O(log deg)). Both realize
// the same neighbor distribution (asserted by the chi-squared parity test
// in internal/graph).
//
// Two regimes: PowerLaw steps L-length walks over a weighted power-law
// graph whose average degree is ~10, where the binary search is only 2–3
// iterations and the two are within noise of each other; Hub draws from a
// single 5000-neighbor weighted row, where the search walks ~12 scattered
// cache lines per draw and the alias table wins by several fold. Real walk
// workloads sit between the two but concentrate on hubs (the stationary
// distribution is proportional to weighted degree), which is why the alias
// layout is the default.
func BenchmarkAblationAliasVsBinarySearch(b *testing.B) {
	base, err := GeneratePowerLaw(20000, 100000, 7)
	if err != nil {
		b.Fatal(err)
	}
	// Re-weight the power-law topology deterministically so the weighted
	// sampling paths are exercised (uniform graphs bypass both samplers).
	wb := NewBuilder(base.N(), Undirected)
	base.Edges(func(u, v int, _ float64) bool {
		wb.AddWeightedEdge(u, v, 1+float64((u*7+v*13)%10))
		return true
	})
	g, err := wb.Build()
	if err != nil {
		b.Fatal(err)
	}
	const L = 10
	step := func(b *testing.B, pick func(int, float64) int) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			u := i % g.N()
			for s := 0; s < L; s++ {
				v := pick(u, r.Float64())
				if v < 0 {
					break
				}
				u = v
			}
		}
	}
	b.Run("PowerLaw/Alias", func(b *testing.B) { step(b, g.PickNeighbor) })
	b.Run("PowerLaw/BinarySearch", func(b *testing.B) { step(b, g.PickNeighborBinarySearch) })

	const hubDeg = 5000
	hb := NewBuilder(hubDeg+1, Undirected)
	for i := 1; i <= hubDeg; i++ {
		hb.AddWeightedEdge(0, i, 1+float64(i%97))
	}
	hub, err := hb.Build()
	if err != nil {
		b.Fatal(err)
	}
	draw := func(b *testing.B, pick func(int, float64) int) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			if pick(0, r.Float64()) < 0 {
				b.Fatal("no neighbor")
			}
		}
	}
	b.Run("Hub/Alias", func(b *testing.B) { draw(b, hub.PickNeighbor) })
	b.Run("Hub/BinarySearch", func(b *testing.B) { draw(b, hub.PickNeighborBinarySearch) })
}

// BenchmarkIndexBuild measures Algorithm 3 (index materialization) alone,
// the dominant cost of the approximate greedy algorithm, single-threaded
// and sharded over all cores. Allocations are reported because the build's
// transient buffers (walk buffer, per-worker counters) are part of its cost.
func BenchmarkIndexBuild(b *testing.B) {
	g, err := GeneratePowerLaw(5000, 30000, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := index.BuildWorkers(g, 6, 20, uint64(i), bc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChunkedBuild measures chunked index materialization — the same
// walks as BenchmarkIndexBuild (CI's bench gate maps the two onto each
// other), assembled as ordered replicate chunks with per-chunk CSR columns.
// The chunked layout is what the adaptive accuracy budgets build
// incrementally; this benchmark pins its full-R build cost against the flat
// build so the chunk seams stay free when accuracy is off.
func BenchmarkChunkedBuild(b *testing.B) {
	g, err := GeneratePowerLaw(5000, 30000, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := index.BuildChunkedWorkers(g, 6, 20, uint64(i), 5, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdaptiveBudget measures an epsilon-targeted selection against the
// fixed-R plain greedy on the same hub-dominated graph. The adaptive arm
// reports its schedule as custom metrics — replicates (used, out of the R
// cap) and ci_width (largest committed half-width) — so the record shows the
// sampling saved, not just the wall time.
func BenchmarkAdaptiveBudget(b *testing.B) {
	g, err := GenerateBarabasiAlbert(2000, 2, 42)
	if err != nil {
		b.Fatal(err)
	}
	const (
		K = 5
		L = 6
		R = 200
	)
	b.Run("fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sel, err := Solve(g, Problem2, Options{K: K, L: L, R: R, Seed: 7, Algorithm: AlgorithmApprox})
			if err != nil {
				b.Fatal(err)
			}
			if len(sel.Nodes) != K {
				b.Fatal("short selection")
			}
		}
		b.ReportMetric(R, "replicates")
	})
	b.Run("adaptive", func(b *testing.B) {
		acc := core.Accuracy{Epsilon: 75, Delta: 0.05, Chunk: 25}
		opts := core.Options{K: K, L: L, R: R, Seed: 7}
		var used, ci float64
		for i := 0; i < b.N; i++ {
			sel, err := core.ApproxAdaptiveStream(context.Background(), g, index.Problem2, opts, acc, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(sel.Nodes) != K || !sel.EarlyStopped {
				b.Fatalf("expected an early-stopped %d-node selection, got %d nodes (early=%t)",
					K, len(sel.Nodes), sel.EarlyStopped)
			}
			used, ci = float64(sel.ReplicatesUsed), sel.MaxCIWidth
		}
		b.ReportMetric(used, "replicates")
		b.ReportMetric(ci, "ci_width")
	})
}

// BenchmarkSelectionEndToEnd measures a full public-API selection (index
// build + greedy loop) at a realistic medium scale, for both problems, at
// one worker and at all cores. The workers=1 arms correspond to the seed's
// single-threaded path; the ≥2.5× acceptance target of PR 1 compares
// workers=GOMAXPROCS here against the seed's benchmark on the same machine.
func BenchmarkSelectionEndToEnd(b *testing.B) {
	g, err := GeneratePowerLaw(10000, 60000, 6)
	if err != nil {
		b.Fatal(err)
	}
	solvers := []struct {
		name    string
		problem Problem
	}{
		{"F1", Problem1},
		{"F2", Problem2},
	}
	// workers=1 and workers=2 run on every machine so the CI bench gate
	// always finds them in the baseline regardless of runner core count; a
	// GOMAXPROCS arm is added on bigger boxes (skipped by the gate when the
	// baseline box didn't have it).
	workerCounts := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		workerCounts = append(workerCounts, n)
	}
	for _, solver := range solvers {
		for _, workers := range workerCounts {
			b.Run(fmt.Sprintf("%s/workers=%d", solver.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sel, err := Solve(g, solver.problem, Options{
						K: 50, L: 6, R: 50, Seed: uint64(i),
						Lazy: true, Algorithm: AlgorithmApprox, Workers: workers,
					})
					if err != nil {
						b.Fatal(err)
					}
					if len(sel.Nodes) != 50 {
						b.Fatal("short selection")
					}
				}
			})
		}
	}
}

// BenchmarkServingThroughput measures the query-serving layer end to end:
// one iteration runs the full serving experiment (HTTP select/gain sweeps
// over a warm index cache at several client concurrencies). It tracks the
// daemon's request-handling overhead on top of the selection engine.
func BenchmarkServingThroughput(b *testing.B) { runExperiment(b, experiments.Serving) }

// BenchmarkGainServing runs the memoized-vs-fresh gain-serving experiment
// end to end (two daemons over one graph, warm-set /v1/gain and
// /v1/topgains sweeps). The per-request comparison the PR-3 acceptance
// criterion rests on is BenchmarkWarmGainRequest below.
func BenchmarkGainServing(b *testing.B) { runExperiment(b, experiments.GainServing) }

// BenchmarkEngineWarmGain measures one warm-set gain request at the engine
// layer — the exact computation BenchmarkWarmGainRequest measures through
// the HTTP handler stack, minus the codec. It exists to prove the
// handler→engine extraction added no per-request overhead: CI's same-job
// bench gate compares it against the base commit's handler-level
// BenchmarkWarmGainRequest numbers (benchcheck
// -map BenchmarkEngineWarmGain=BenchmarkWarmGainRequest), so the engine
// path must be at least as fast as the old in-handler path.
func BenchmarkEngineWarmGain(b *testing.B) {
	g, err := dataset.Load("CAGrQc", 1)
	if err != nil {
		b.Fatal(err)
	}
	set := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	for _, memo := range []bool{true, false} {
		name := "memo=on"
		if !memo {
			name = "memo=off"
		}
		b.Run(name, func(b *testing.B) {
			eng, err := engine.New(engine.Config{
				Graphs:      map[string]*graph.Graph{"CAGrQc": g},
				DisableMemo: !memo,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()
			req := engine.GainRequest{Graph: "CAGrQc", L: 6, R: 200, Seed: 1, Set: set, Nodes: []int{42}}
			get := func() {
				if _, err := eng.Gain(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			get() // warm: index build + (memo side) table population
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get()
			}
		})
	}
}

// BenchmarkTopGainsRepeat measures repeated same-set /v1/topgains requests
// against a warm daemon — the traffic shape the ROADMAP's per-entry top-B
// memo question is about. Without that memo every request re-sweeps all n
// candidates (a pure read, but O(n·R) of them); with it a repeat is an O(B)
// copy of the stored winners. memo=off is the fresh-table baseline for
// scale.
func BenchmarkTopGainsRepeat(b *testing.B) {
	g, err := dataset.Load("CAGrQc", 1)
	if err != nil {
		b.Fatal(err)
	}
	const path = "/v1/topgains?graph=CAGrQc&L=6&R=200&set=1,2,3,4,5,6,7,8&b=10"
	for _, memo := range []bool{true, false} {
		name := "memo=on"
		if !memo {
			name = "memo=off"
		}
		b.Run(name, func(b *testing.B) {
			srv, err := server.New(server.Config{
				Graphs:      map[string]*graph.Graph{"CAGrQc": g},
				DisableMemo: !memo,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			handler := srv.Handler()
			get := func() {
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
			get() // warm: index build + (memo side) table population
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get()
			}
		})
	}
}

// BenchmarkWarmGainRequest measures one warm-set /v1/gain request through
// the daemon's handler stack (request parsing, index acquire, gain
// computation, JSON encoding — driven via ServeHTTP so loopback-TCP
// syscall noise doesn't drown the signal), memoized versus fresh. After the
// first request for a seed set, the memoized path is a pure read of the
// frozen cached D-table, while the fresh path re-materializes an n·R table
// and replays the 16-node set every time — the memo=on/memo=off ratio is
// the headline number for the PR-3 memoized read path. The graph is
// paper-sized and R = 200 so the per-request table work is visible at all;
// the gap only widens with scale.
func BenchmarkWarmGainRequest(b *testing.B) {
	g, err := dataset.Load("CAGrQc", 1)
	if err != nil {
		b.Fatal(err)
	}
	const path = "/v1/gain?graph=CAGrQc&L=6&R=200&set=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16&nodes=42"
	for _, memo := range []bool{true, false} {
		name := "memo=on"
		if !memo {
			name = "memo=off"
		}
		b.Run(name, func(b *testing.B) {
			srv, err := server.New(server.Config{
				Graphs:      map[string]*graph.Graph{"CAGrQc": g},
				DisableMemo: !memo,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			handler := srv.Handler()
			get := func() {
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
			get() // warm: index build + (memo side) table population
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get()
			}
		})
	}
}
