package greedy

import (
	"context"
	"errors"
	"testing"
)

// pureOracle is stateless (safe for the concurrent drivers); gains favor
// larger ids so selections are nontrivial.
type pureOracle struct{}

func (pureOracle) Gain(u int) float64 { return float64(u) }
func (pureOracle) Update(int)         {}

func TestDriversReturnContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, k := 5000, 10
	drivers := map[string]func() (*Result, error){
		"plain":           func() (*Result, error) { return Run(ctx, n, k, pureOracle{}, Config{}) },
		"lazy":            func() (*Result, error) { return Run(ctx, n, k, pureOracle{}, Config{Lazy: true}) },
		"plain/workers=4": func() (*Result, error) { return Run(ctx, n, k, pureOracle{}, Config{Workers: 4}) },
		"lazy/workers=4":  func() (*Result, error) { return Run(ctx, n, k, pureOracle{}, Config{Lazy: true, Workers: 4}) },
	}
	for name, run := range drivers {
		res, err := run()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if res != nil {
			t.Errorf("%s: returned a result despite cancellation", name)
		}
	}
}

func TestBackgroundContextMatchesPlainDrivers(t *testing.T) {
	n, k := 300, 7
	want, err := Run(context.Background(), n, k, pureOracle{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, err := Run(context.Background(), n, k, pureOracle{}, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Selected) != len(want.Selected) {
			t.Fatalf("workers=%d: selected %d nodes, want %d", workers, len(got.Selected), len(want.Selected))
		}
		for i := range want.Selected {
			if got.Selected[i] != want.Selected[i] {
				t.Fatalf("workers=%d: selection[%d] = %d, want %d", workers, i, got.Selected[i], want.Selected[i])
			}
		}
	}
}
