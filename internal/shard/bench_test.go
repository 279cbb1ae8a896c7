package shard

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/index"
)

// BenchmarkShardIndexBuild measures what sharding buys: the wall time and
// resident bytes of the partial index ONE worker process materializes,
// versus shard count. A shard owns [s·R/N, (s+1)·R/N), so both should
// scale down ~linearly in N — that is the whole case for the topology,
// since the merged answers are bit-identical regardless.
func BenchmarkShardIndexBuild(b *testing.B) {
	const (
		n    = 20000
		L    = 5
		R    = 48
		seed = 7
	)
	g, err := graph.BarabasiAlbert(n, 3, seed)
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			// Shard 0's slice of the balanced split [s·R/N, (s+1)·R/N).
			r0, r1 := 0, R/shards
			var bytes int64
			for i := 0; i < b.N; i++ {
				ix, err := index.BuildRangeWorkers(g, L, seed, r0, r1, 0)
				if err != nil {
					b.Fatal(err)
				}
				bytes = ix.MemoryBytes()
			}
			b.ReportMetric(float64(bytes), "index_bytes/proc")
		})
	}
}

// BenchmarkShardedSelect measures a coordinated selection end to end: two
// in-process shards, both problems per iteration, each on a fresh walk seed,
// so every op builds both shards' partial indexes and then runs the greedy
// driver over merged shard sums — the shape of a cold sharded select.
func BenchmarkShardedSelect(b *testing.B) {
	g, err := dataset.PowerLawExact(2500, 15000, 1)
	if err != nil {
		b.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"bench": g}
	co, err := NewLocal(Config{Graphs: graphs}, 2, engine.Config{Graphs: graphs})
	if err != nil {
		b.Fatal(err)
	}
	defer co.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, problem := range []engine.Problem{engine.Problem1, engine.Problem2} {
			_, err := co.Select(ctx, engine.SelectRequest{
				Graph: "bench", Problem: problem, K: 20, L: 6, R: 50, Seed: uint64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
