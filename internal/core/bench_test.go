package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/greedy"
	"repro/internal/index"
)

// BenchmarkTopGainsCold measures a top-10 read on a table nothing has read
// yet — the memo-miss shape of a /v1/topgains request: per op and problem a
// fresh D-table, five Updates and one TopGains. The index is built outside
// the timer, so its memoized empty-set sums are paid by the first op only,
// as a served index pays them once per build or repair.
func BenchmarkTopGainsCold(b *testing.B) {
	g, err := dataset.PowerLawExact(5000, 30000, 1)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := index.BuildWorkers(g, 6, 50, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(1))
	exclude := make([]bool, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range []index.Problem{index.Problem1, index.Problem2} {
			d, err := ix.NewDTable(p)
			if err != nil {
				b.Fatal(err)
			}
			set := rnd.Perm(g.N())[:5]
			for _, u := range set {
				d.Update(u)
				exclude[u] = true
			}
			if _, _, err := TopGains(ctx, d, 10, exclude, 1); err != nil {
				b.Fatal(err)
			}
			for _, u := range set {
				exclude[u] = false
			}
		}
	}
}

// BenchmarkWarmSelect measures a select on a cached index — the shape of an
// engine Select whose index and empty-set sums are already resident: per op
// one ApproxWithIndex run (fresh D-table, lazy greedy, one worker) on the
// mutate-mixed workload's graph. The index build and one warm-up select per
// problem, which memoizes the sums, run outside the timer.
func BenchmarkWarmSelect(b *testing.B) {
	g, err := dataset.PowerLawExact(5000, 30000, 1)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := index.BuildWorkers(g, 6, 50, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	cfg := greedy.Config{Lazy: true, Workers: 1}
	for _, p := range []index.Problem{index.Problem1, index.Problem2} {
		if _, err := ApproxWithIndex(ctx, ix, p, 1, cfg); err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{10, 50} {
			b.Run(fmt.Sprintf("%v/k=%d", p, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := ApproxWithIndex(ctx, ix, p, k, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
