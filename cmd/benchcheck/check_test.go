package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: some CPU @ 2.00GHz
BenchmarkSelectionEndToEnd/F1/workers=1-8         	       3	330000000 ns/op
BenchmarkSelectionEndToEnd/F1/workers=2-8         	       3	260000000 ns/op
BenchmarkSelectionEndToEnd/F2/workers=1-8         	       3	500000000 ns/op
BenchmarkSelectionEndToEnd/F2/workers=8-8         	       3	100000000 ns/op
BenchmarkIndexBuild/workers=1-8                   	       3	44000000 ns/op	1234 B/op	5 allocs/op
--- BENCH: some noise line
PASS
ok  	repro	10.000s
`

const sampleBaseline = `{
  "record": "PR1 parallel batched gain engine",
  "go": "go1.24.0",
  "benchtime": "3x",
  "benchmarks": [
    {"name": "BenchmarkSelectionEndToEnd/F1/workers=1-2", "iterations": 3, "ns_per_op": 327175122},
    {"name": "BenchmarkSelectionEndToEnd/F1/workers=2-2", "iterations": 3, "ns_per_op": 256983079},
    {"name": "BenchmarkSelectionEndToEnd/F2/workers=1-2", "iterations": 3, "ns_per_op": 329812997},
    {"name": "BenchmarkIndexBuild/workers=1-2", "iterations": 3, "ns_per_op": 43768968}
  ]
}`

func TestParseBenchOutput(t *testing.T) {
	results, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("parsed %d results, want 5: %+v", len(results), results)
	}
	if results[0].Name != "BenchmarkSelectionEndToEnd/F1/workers=1-8" ||
		results[0].Iterations != 3 || results[0].NsPerOp != 330000000 {
		t.Fatalf("first result = %+v", results[0])
	}
	// Lines with extra -benchmem columns still parse.
	if results[4].Name != "BenchmarkIndexBuild/workers=1-8" || results[4].NsPerOp != 44000000 {
		t.Fatalf("benchmem-style result = %+v", results[4])
	}
}

func TestParseBaseline(t *testing.T) {
	b, err := ParseBaseline([]byte(sampleBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if b.Record != "PR1 parallel batched gain engine" || len(b.Benchmarks) != 4 {
		t.Fatalf("baseline = %+v", b)
	}
	if _, err := ParseBaseline([]byte(`{"record":"empty","benchmarks":[]}`)); err == nil {
		t.Fatal("empty baseline accepted")
	}
	if _, err := ParseBaseline([]byte(`not json`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestParseBaselineFormat(t *testing.T) {
	// json: delegates to ParseBaseline.
	b, err := ParseBaselineFormat([]byte(sampleBaseline), "json", "BENCH_PR1.json")
	if err != nil {
		t.Fatal(err)
	}
	if b.Record != "PR1 parallel batched gain engine" {
		t.Fatalf("json baseline = %+v", b)
	}
	// bench: a raw `go test -bench` run becomes the baseline — the same-job
	// old-vs-new CI gate feeds the base commit's output in directly.
	b, err = ParseBaselineFormat([]byte(sampleBenchOutput), "bench", "bench-base.out")
	if err != nil {
		t.Fatal(err)
	}
	if b.Record != "bench-base.out" || len(b.Benchmarks) != 5 {
		t.Fatalf("bench baseline = %+v", b)
	}
	if b.Benchmarks[0].Name != "BenchmarkSelectionEndToEnd/F1/workers=1-8" || b.Benchmarks[0].NsPerOp != 330000000 {
		t.Fatalf("bench baseline first entry = %+v", b.Benchmarks[0])
	}
	if _, err := ParseBaselineFormat([]byte("PASS\nok\n"), "bench", "empty.out"); err == nil {
		t.Fatal("bench baseline with no results accepted")
	}
	if _, err := ParseBaselineFormat([]byte(sampleBaseline), "yaml", "x"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// A bench-format baseline compares against the current run exactly like a
// JSON one, including GOMAXPROCS normalization across the two runs.
func TestCompareAgainstBenchFormatBaseline(t *testing.T) {
	base, err := ParseBaselineFormat([]byte(sampleBenchOutput), "bench", "base")
	if err != nil {
		t.Fatal(err)
	}
	// A head run 10% slower on one benchmark, measured on a different core
	// count (suffix -4 vs the baseline's -8).
	head := `BenchmarkSelectionEndToEnd/F1/workers=1-4 3 363000000 ns/op
BenchmarkSelectionEndToEnd/F2/workers=1-4 3 500000000 ns/op
`
	cur, err := ParseBenchOutput(strings.NewReader(head))
	if err != nil {
		t.Fatal(err)
	}
	comparisons, skipped, err := Compare(base.Benchmarks, cur, regexp.MustCompile("BenchmarkSelectionEndToEnd"), 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(comparisons) != 2 || len(skipped) != 0 {
		t.Fatalf("comparisons = %+v, skipped = %v", comparisons, skipped)
	}
	if regs := Regressions(comparisons); len(regs) != 0 {
		t.Fatalf("10%% drift flagged at 25%% tolerance: %+v", regs)
	}
	comparisons, _, err = Compare(base.Benchmarks, cur, regexp.MustCompile("BenchmarkSelectionEndToEnd"), 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	if regs := Regressions(comparisons); len(regs) != 1 || regs[0].Name != "BenchmarkSelectionEndToEnd/F1/workers=1" {
		t.Fatalf("regressions at 5%% tolerance = %+v", regs)
	}
}

func TestNormalizeName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkSelectionEndToEnd/F1/workers=1-2": "BenchmarkSelectionEndToEnd/F1/workers=1",
		"BenchmarkSelectionEndToEnd/F1/workers=1-8": "BenchmarkSelectionEndToEnd/F1/workers=1",
		"BenchmarkIndexBuild-16":                    "BenchmarkIndexBuild",
		"BenchmarkNoSuffix":                         "BenchmarkNoSuffix",
	} {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func mustCompare(t *testing.T, pattern string, tolerance float64) ([]Comparison, []string) {
	t.Helper()
	b, err := ParseBaseline([]byte(sampleBaseline))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	comparisons, skipped, err := Compare(b.Benchmarks, cur, regexp.MustCompile(pattern), tolerance, nil)
	if err != nil {
		t.Fatal(err)
	}
	return comparisons, skipped
}

func TestCompareFlagsRegressions(t *testing.T) {
	// F2/workers=1: 500000000 vs 329812997 = 1.52x — beyond +25%.
	comparisons, skipped := mustCompare(t, "BenchmarkSelectionEndToEnd", 0.25)
	if len(comparisons) != 3 {
		t.Fatalf("comparisons = %d, want 3 (workers=8 has no baseline)", len(comparisons))
	}
	regs := Regressions(comparisons)
	if len(regs) != 1 || regs[0].Name != "BenchmarkSelectionEndToEnd/F2/workers=1" {
		t.Fatalf("regressions = %+v, want exactly F2/workers=1", regs)
	}
	if regs[0].Ratio < 1.5 || regs[0].Ratio > 1.53 {
		t.Fatalf("F2 ratio = %v, want ~1.52", regs[0].Ratio)
	}
	// The CI box enumerated workers=8, which the 2-core baseline box never
	// measured: skipped, not failed.
	if len(skipped) != 1 || skipped[0] != "BenchmarkSelectionEndToEnd/F2/workers=8" {
		t.Fatalf("skipped = %v", skipped)
	}
}

func TestCompareWithinTolerance(t *testing.T) {
	// At +60% tolerance even the F2 slowdown passes.
	comparisons, _ := mustCompare(t, "BenchmarkSelectionEndToEnd", 0.60)
	if regs := Regressions(comparisons); len(regs) != 0 {
		t.Fatalf("unexpected regressions at 60%% tolerance: %+v", regs)
	}
	// Cross-core-count matching: a faster current run is of course fine.
	comparisons, _ = mustCompare(t, "BenchmarkIndexBuild", 0.25)
	if len(comparisons) != 1 || comparisons[0].Regression {
		t.Fatalf("index build comparison = %+v", comparisons)
	}
}

func TestCompareErrorsWhenNothingMatches(t *testing.T) {
	b, _ := ParseBaseline([]byte(sampleBaseline))
	cur, _ := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if _, _, err := Compare(b.Benchmarks, cur, regexp.MustCompile("BenchmarkTypo"), 0.25, nil); err == nil {
		t.Fatal("pattern matching nothing must error (typo guard)")
	}
	if _, _, err := Compare(b.Benchmarks, cur, regexp.MustCompile("."), -1, nil); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

func TestRenderMentionsRegressionsAndSkips(t *testing.T) {
	comparisons, skipped := mustCompare(t, "BenchmarkSelectionEndToEnd", 0.25)
	var buf bytes.Buffer
	Render(&buf, "PR1", comparisons, skipped, 0.25)
	out := buf.String()
	for _, want := range []string{"REGRESSION", "skipped (no baseline entry)", "1.52x"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareRenameMap(t *testing.T) {
	base := []Result{
		{Name: "BenchmarkWarmGainRequest/memo=on-2", NsPerOp: 100},
		{Name: "BenchmarkWarmGainRequest/memo=off-2", NsPerOp: 1000},
	}
	cur := []Result{
		{Name: "BenchmarkEngineWarmGain/memo=on-8", NsPerOp: 110},
		{Name: "BenchmarkEngineWarmGain/memo=off-8", NsPerOp: 1400},
	}
	m, err := ParseRenameMap(" BenchmarkEngineWarmGain=BenchmarkWarmGainRequest ")
	if err != nil {
		t.Fatal(err)
	}
	comparisons, skipped, err := Compare(base, cur, regexp.MustCompile("BenchmarkEngineWarmGain"), 0.25, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(comparisons) != 2 || len(skipped) != 0 {
		t.Fatalf("comparisons %v skipped %v, want 2 paired, 0 skipped", comparisons, skipped)
	}
	regs := Regressions(comparisons)
	if len(regs) != 1 || regs[0].Name != "BenchmarkEngineWarmGain/memo=off" {
		t.Fatalf("regressions %v, want exactly the memo=off arm", regs)
	}
	// Without the map, every renamed benchmark is skipped.
	comparisons, skipped, err = Compare(base, cur, regexp.MustCompile("BenchmarkEngineWarmGain"), 0.25, nil)
	if err == nil {
		t.Fatalf("unmapped compare unexpectedly paired: %v (skipped %v)", comparisons, skipped)
	}
	// Malformed entries are rejected.
	if _, err := ParseRenameMap("NoEquals"); err == nil {
		t.Fatal("bad -map entry accepted")
	}
	if _, err := ParseRenameMap("a=,b=c"); err == nil {
		t.Fatal("empty old name accepted")
	}
}

// Repeated samples of a name (a -count N run) are reduced to their median
// on both sides: one slow outlier among five neither fails the gate nor
// hides a slowdown every sample shows, and the baseline's last sample does
// not stand in for all of them.
func TestCompareTakesMedians(t *testing.T) {
	samples := func(name string, ns ...float64) []Result {
		var out []Result
		for _, v := range ns {
			out = append(out, Result{Name: name, Iterations: 200, NsPerOp: v})
		}
		return out
	}
	base := append(samples("BenchmarkLazyGreedy-2", 100, 104, 98, 102, 60),
		samples("BenchmarkPlainGreedy-2", 200, 210)...)
	cur := append(samples("BenchmarkLazyGreedy-8", 101, 99, 180, 103, 100),
		samples("BenchmarkPlainGreedy-8", 250, 270)...)
	comparisons, skipped, err := Compare(base, cur, regexp.MustCompile("Greedy"), 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(comparisons) != 2 || len(skipped) != 0 {
		t.Fatalf("comparisons %+v skipped %v, want one per name", comparisons, skipped)
	}
	lazy, plain := comparisons[0], comparisons[1]
	if lazy.Name != "BenchmarkLazyGreedy" || lazy.BaselineNs != 100 || lazy.CurrentNs != 101 || lazy.Regression {
		t.Fatalf("lazy comparison %+v, want medians 100 vs 101 and no regression", lazy)
	}
	// Even counts take the mean of the middle two: 205 vs 260, +27%.
	if plain.Name != "BenchmarkPlainGreedy" || plain.BaselineNs != 205 || plain.CurrentNs != 260 || !plain.Regression {
		t.Fatalf("plain comparison %+v, want medians 205 vs 260 flagged", plain)
	}
}
