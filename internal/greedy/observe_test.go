package greedy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// weightedCover is coverOracle with a non-integer weight per element, so a
// running sum of gains depends on the order it is accumulated in. Gain is a
// pure read, safe for the concurrent drivers.
type weightedCover struct{ coverOracle }

func (o *weightedCover) Gain(u int) float64 {
	g := 0.0
	for _, v := range o.sets[u] {
		if !o.covered[v] {
			g += 1 / float64(v+3)
		}
	}
	return g
}

// Config.Observe reports every committed pick in order, with the Result's
// gains and a running total bit-identical to Result.Objective, on every
// driver path; an observer error aborts the run; and attaching an observer
// changes nothing that is selected or counted.
func TestConfigObserve(t *testing.T) {
	const n, k = 240, 17
	mk := randomCover(n, 400, 21)
	newOracle := func() *weightedCover { return &weightedCover{*mk()} }
	errStop := errors.New("observer stop")
	for _, lazy := range []bool{false, true} {
		for _, workers := range []int{1, 2, 3, n + 1} {
			t.Run(fmt.Sprintf("lazy=%v/workers=%d", lazy, workers), func(t *testing.T) {
				cfg := Config{Lazy: lazy, Workers: workers}
				want, err := Run(context.Background(), n, k, newOracle(), cfg)
				if err != nil {
					t.Fatal(err)
				}

				var picks []Pick
				cfg.Observe = func(p Pick) error {
					picks = append(picks, p)
					return nil
				}
				got, err := Run(context.Background(), n, k, newOracle(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Selected, want.Selected) || !reflect.DeepEqual(got.Gains, want.Gains) ||
					got.Evaluations != want.Evaluations {
					t.Fatalf("observed run %v/%v/%d, unobserved %v/%v/%d",
						got.Selected, got.Gains, got.Evaluations, want.Selected, want.Gains, want.Evaluations)
				}
				if len(picks) != k {
					t.Fatalf("observed %d picks, want %d", len(picks), k)
				}
				for i, p := range picks {
					if p.Round != i+1 || p.Node != got.Selected[i] || p.Gain != got.Gains[i] {
						t.Fatalf("pick %d = %+v, want round %d node %d gain %v", i, p, i+1, got.Selected[i], got.Gains[i])
					}
				}
				if last := picks[k-1].Total; math.Float64bits(last) != math.Float64bits(got.Objective()) {
					t.Fatalf("last Total %v, Objective %v", last, got.Objective())
				}

				const stopAt = 5
				seen := 0
				cfg.Observe = func(p Pick) error {
					seen++
					if p.Round == stopAt {
						return errStop
					}
					return nil
				}
				res, err := Run(context.Background(), n, k, newOracle(), cfg)
				if !errors.Is(err, errStop) || res != nil {
					t.Fatalf("observer error: got %v, %v; want %v and no result", res, err, errStop)
				}
				if seen != stopAt {
					t.Fatalf("observer called %d times after aborting at round %d", seen, stopAt)
				}
			})
		}
	}
}
