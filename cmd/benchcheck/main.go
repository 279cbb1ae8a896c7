// Command benchcheck is the CI benchmark-regression gate: it compares a
// `go test -bench` run against a baseline and exits non-zero if any
// benchmark regressed beyond the tolerance. The baseline is either a JSON
// record written by bench.sh (BENCH_PR*.json, -baseline-format json) or the
// raw output of a `go test -bench` run (-baseline-format bench) — the
// latter is what CI uses for same-job old-vs-new gating: check out the base
// commit, benchmark it on the very runner that benchmarks the head, and
// compare the two runs, so runner-hardware variance cancels instead of
// eating into the tolerance.
//
// Names are compared with the trailing GOMAXPROCS suffix stripped, so a
// baseline recorded on a 2-core developer box gates runs on CI machines with
// any core count. A benchmark run with -count N contributes N samples per
// name; each side is reduced to its median before the ratio is taken. Current benchmarks without a baseline entry are reported
// and skipped, not failed — new benchmarks should not break the gate.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkSelectionEndToEnd -benchtime 3x . |
//	    go run ./cmd/benchcheck -baseline BENCH_PR1.json -pattern BenchmarkSelectionEndToEnd
//
//	go run ./cmd/benchcheck -baseline bench-base.out -baseline-format bench \
//	    -input bench-head.out -tolerance 0.25
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
)

func main() {
	var (
		baselinePath   = flag.String("baseline", "", "baseline file (required): bench.sh JSON or raw bench output, per -baseline-format")
		baselineFormat = flag.String("baseline-format", "json", "baseline file format: json (bench.sh record) or bench (raw `go test -bench` output)")
		inputPath      = flag.String("input", "-", "go test -bench output to check ('-' = stdin)")
		patternStr     = flag.String("pattern", "BenchmarkSelectionEndToEnd", "regexp selecting which benchmarks to gate")
		tolerance      = flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression (0.25 = +25%)")
		mapStr         = flag.String("map", "", "comma-separated new=old benchmark renames: gate a renamed/extracted benchmark against its predecessor's baseline entry (sub-benchmark suffixes carry over)")
	)
	flag.Parse()
	if *baselinePath == "" {
		fatal(fmt.Errorf("-baseline is required"))
	}
	pattern, err := regexp.Compile(*patternStr)
	if err != nil {
		fatal(fmt.Errorf("bad -pattern: %w", err))
	}
	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	baseline, err := ParseBaselineFormat(data, *baselineFormat, *baselinePath)
	if err != nil {
		fatal(err)
	}
	var in io.Reader = os.Stdin
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	current, err := ParseBenchOutput(in)
	if err != nil {
		fatal(err)
	}
	renames, err := ParseRenameMap(*mapStr)
	if err != nil {
		fatal(err)
	}
	comparisons, skipped, err := Compare(baseline.Benchmarks, current, pattern, *tolerance, renames)
	if err != nil {
		fatal(err)
	}
	Render(os.Stdout, baseline.Record, comparisons, skipped, *tolerance)
	if regs := Regressions(comparisons); len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %d benchmark(s) regressed beyond +%.0f%%\n", len(regs), *tolerance*100)
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %d benchmark(s) within tolerance\n", len(comparisons))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
