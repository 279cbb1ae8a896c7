package greedy

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// coverOracle is a max-coverage instance whose Gain is a pure read of the
// covered bitmap — the same concurrency contract index.DTable offers — so it
// can exercise the parallel drivers.
type coverOracle struct {
	sets    [][]int
	covered []bool
}

func (o *coverOracle) Gain(u int) float64 {
	gain := 0
	for _, v := range o.sets[u] {
		if !o.covered[v] {
			gain++
		}
	}
	return float64(gain)
}

func (o *coverOracle) Update(u int) {
	for _, v := range o.sets[u] {
		o.covered[v] = true
	}
}

// batchCoverOracle adds the GainBatch fast path.
type batchCoverOracle struct{ coverOracle }

func (o *batchCoverOracle) GainBatch(us []int, out []float64) []float64 {
	for _, u := range us {
		out = append(out, o.Gain(u))
	}
	return out
}

// randomCover builds a deterministic random coverage instance with plenty of
// gain ties, the case where tie-breaking rules could drift between drivers.
func randomCover(n, universe int, seed uint64) func() *coverOracle {
	r := rng.New(seed)
	sets := make([][]int, n)
	for u := range sets {
		size := 1 + r.Intn(12)
		for j := 0; j < size; j++ {
			sets[u] = append(sets[u], r.Intn(universe))
		}
	}
	return func() *coverOracle {
		return &coverOracle{sets: sets, covered: make([]bool, universe)}
	}
}

func TestRunWorkersMatchesSerial(t *testing.T) {
	mk := randomCover(300, 500, 5)
	const k = 25
	want, err := Run(context.Background(), 300, k, mk(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 400} {
		got, err := Run(context.Background(), 300, k, mk(), Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Selected, want.Selected) {
			t.Fatalf("workers=%d: Selected %v != serial %v", workers, got.Selected, want.Selected)
		}
		if !reflect.DeepEqual(got.Gains, want.Gains) {
			t.Fatalf("workers=%d: Gains differ from serial", workers)
		}
	}
}

func TestRunLazyWorkersMatchesSerial(t *testing.T) {
	mk := randomCover(400, 600, 9)
	const k = 30
	want, err := Run(context.Background(), 400, k, mk(), Config{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		got, err := Run(context.Background(), 400, k, mk(), Config{Lazy: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Selected, want.Selected) {
			t.Fatalf("workers=%d: Selected %v != serial %v", workers, got.Selected, want.Selected)
		}
		if !reflect.DeepEqual(got.Gains, want.Gains) {
			t.Fatalf("workers=%d: Gains differ from serial", workers)
		}
	}
	// The plain and lazy drivers must still agree with each other.
	plain, _ := Run(context.Background(), 400, k, mk(), Config{})
	if !reflect.DeepEqual(plain.Selected, want.Selected) {
		t.Fatal("lazy and plain drivers disagree on the test instance")
	}
}

func TestParallelDriversUseGainBatch(t *testing.T) {
	mk := randomCover(200, 300, 13)
	const k = 12
	want, err := Run(context.Background(), 200, k, mk(), Config{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := Run(context.Background(), 200, k, &batchCoverOracle{*mk()}, Config{Lazy: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Selected, want.Selected) {
			t.Fatalf("batch oracle workers=%d: Selected %v != %v", workers, got.Selected, want.Selected)
		}
		gotPlain, err := Run(context.Background(), 200, k, &batchCoverOracle{*mk()}, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		plain, _ := Run(context.Background(), 200, k, mk(), Config{})
		if !reflect.DeepEqual(gotPlain.Selected, plain.Selected) {
			t.Fatalf("batch oracle plain workers=%d: Selected %v != %v", workers, gotPlain.Selected, plain.Selected)
		}
	}
}

// countingBatchOracle is a batchCoverOracle that counts how its gains were
// asked for: GainBatch calls, the candidates they carried, and single Gain
// calls.
type countingBatchOracle struct {
	batchCoverOracle
	batches, batched, singles int
}

func (o *countingBatchOracle) Gain(u int) float64 {
	o.singles++
	return o.coverOracle.Gain(u)
}

func (o *countingBatchOracle) GainBatch(us []int, out []float64) []float64 {
	o.batches++
	o.batched += len(us)
	return o.batchCoverOracle.GainBatch(us, out)
}

// The serial drivers sweep through GainBatch in cancelCheckStride-wide
// ranges, so an oracle whose every call is a network round trip pays
// ⌈n/stride⌉ calls per sweep instead of n, and the selection is the one a
// Gain-only oracle gets.
func TestSerialDriversBatchSweeps(t *testing.T) {
	const n, k = 2500, 6
	strides := (n + cancelCheckStride - 1) / cancelCheckStride
	mk := randomCover(n, 3000, 17)
	sameResult := func(name string, got, want *Result) {
		t.Helper()
		if !reflect.DeepEqual(got.Selected, want.Selected) || !reflect.DeepEqual(got.Gains, want.Gains) ||
			got.Evaluations != want.Evaluations {
			t.Fatalf("%s: batched run %v/%v/%d, Gain-only run %v/%v/%d", name,
				got.Selected, got.Gains, got.Evaluations, want.Selected, want.Gains, want.Evaluations)
		}
	}

	want, err := Run(context.Background(), n, k, mk(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	o := &countingBatchOracle{batchCoverOracle: batchCoverOracle{*mk()}}
	got, err := Run(context.Background(), n, k, o, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult("plain", got, want)
	// Round r sweeps every candidate but the r already selected.
	if o.batches != k*strides || o.singles != 0 || o.batched != k*n-k*(k-1)/2 {
		t.Fatalf("plain: %d batches of %d candidates and %d single calls, want %d batches of %d and none",
			o.batches, o.batched, o.singles, k*strides, k*n-k*(k-1)/2)
	}

	want, err = Run(context.Background(), n, k, mk(), Config{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	o = &countingBatchOracle{batchCoverOracle: batchCoverOracle{*mk()}}
	got, err = Run(context.Background(), n, k, o, Config{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	sameResult("lazy", got, want)
	// One batched initial sweep; CELF re-evaluations stay single calls.
	if o.batches != strides || o.batched != n || o.singles != got.Evaluations-n {
		t.Fatalf("lazy: %d batches of %d candidates and %d single calls, want %d batches of %d and %d",
			o.batches, o.batched, o.singles, strides, n, got.Evaluations-n)
	}
}

func TestRunLazyWorkersValidation(t *testing.T) {
	o := &coverOracle{sets: [][]int{{0}}, covered: make([]bool, 1)}
	if _, err := Run(context.Background(), 0, 1, o, Config{Lazy: true, Workers: 4}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Run(context.Background(), 1, -1, o, Config{Workers: 4}); err == nil {
		t.Error("negative k accepted")
	}
	// k > n clamps, workers > n clamps.
	res, err := Run(context.Background(), 1, 5, o, Config{Lazy: true, Workers: 16})
	if err != nil || len(res.Selected) != 1 {
		t.Fatalf("clamped run: %v %v", res, err)
	}
}
