package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement, either parsed from `go test -bench`
// output or read from a baseline JSON file.
type Result struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
}

// Baseline mirrors the JSON bench.sh writes (BENCH_PR*.json).
type Baseline struct {
	Record     string   `json:"record"`
	Go         string   `json:"go"`
	Benchtime  string   `json:"benchtime"`
	Benchmarks []Result `json:"benchmarks"`
}

// ParseBaseline decodes a bench.sh JSON file.
func ParseBaseline(data []byte) (*Baseline, error) {
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchcheck: bad baseline JSON: %w", err)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchcheck: baseline %q has no benchmarks", b.Record)
	}
	return &b, nil
}

// ParseBaselineFormat decodes a baseline in the given format: "json" is a
// bench.sh record, "bench" is the raw output of a `go test -bench` run (the
// same-job old-vs-new gate benchmarks the base commit in CI and feeds the
// output straight in; name labels the synthesized record, conventionally
// the baseline file path).
func ParseBaselineFormat(data []byte, format, name string) (*Baseline, error) {
	switch format {
	case "json":
		return ParseBaseline(data)
	case "bench":
		results, err := ParseBenchOutput(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if len(results) == 0 {
			return nil, fmt.Errorf("benchcheck: baseline %q contains no benchmark results", name)
		}
		return &Baseline{Record: name, Benchmarks: results}, nil
	default:
		return nil, fmt.Errorf("benchcheck: unknown baseline format %q (want json or bench)", format)
	}
}

// ParseBenchOutput extracts ns/op measurements from `go test -bench` text
// output. Lines that are not benchmark results are ignored.
func ParseBenchOutput(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[3] != "ns/op" {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		out = append(out, Result{Name: fields[0], Iterations: iters, NsPerOp: ns})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchcheck: reading bench output: %w", err)
	}
	return out, nil
}

// procsSuffix matches the trailing "-N" GOMAXPROCS suffix Go appends to
// benchmark names.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// normalizeName strips the GOMAXPROCS suffix so a baseline recorded on a
// 2-core box compares against a run on an 8-core CI runner
// ("BenchmarkX/F1/workers=1-2" and "...-8" are the same benchmark; the
// explicit "workers=N" sub-name is untouched, so per-worker-count series
// stay distinct).
func normalizeName(name string) string {
	return procsSuffix.ReplaceAllString(name, "")
}

// Comparison is one baseline-vs-current pairing of median ns/op.
type Comparison struct {
	Name       string // normalized
	BaselineNs float64
	CurrentNs  float64
	Ratio      float64 // CurrentNs / BaselineNs
	Regression bool    // Ratio exceeds 1 + tolerance
}

// RenameMap maps current benchmark name prefixes onto the baseline names
// they should be gated against — how a renamed (or extracted) benchmark
// proves itself against its predecessor's numbers in the same-job gate.
// Keys and values are name prefixes up to a "/" sub-benchmark boundary:
// "BenchmarkEngineWarmGain=BenchmarkWarmGainRequest" pairs
// BenchmarkEngineWarmGain/memo=on with BenchmarkWarmGainRequest/memo=on.
type RenameMap map[string]string

// ParseRenameMap parses a comma-separated list of new=old pairs.
func ParseRenameMap(s string) (RenameMap, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	m := make(RenameMap)
	for _, pair := range strings.Split(s, ",") {
		newName, oldName, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || newName == "" || oldName == "" {
			return nil, fmt.Errorf("benchcheck: bad -map entry %q (want new=old)", pair)
		}
		m[newName] = oldName
	}
	return m, nil
}

// apply rewrites a normalized current name onto its baseline name, if a
// prefix mapping matches.
func (m RenameMap) apply(name string) string {
	if m == nil {
		return name
	}
	prefix, rest, hasSub := strings.Cut(name, "/")
	old, ok := m[prefix]
	if !ok {
		return name
	}
	if hasSub {
		return old + "/" + rest
	}
	return old
}

// Compare pairs current results with the baseline by normalized name
// (after applying renames), restricted to names matching pattern, and flags
// every current benchmark more than tolerance (a fraction, e.g. 0.25 for
// +25% ns/op) slower than its baseline. Repeated samples of one name (a
// `-count N` run) are reduced to their median ns/op on each side first, so
// more samples narrow the comparison instead of adding chances for one
// noisy sample to fail it. Current benchmarks without a baseline entry are
// skipped and returned in `skipped` (the benchmark may be new, or the CI
// core count may enumerate worker counts the baseline box didn't have). It
// is an error if nothing at all can be compared — that usually means a
// pattern typo.
func Compare(baseline, current []Result, pattern *regexp.Regexp, tolerance float64, renames RenameMap) (comparisons []Comparison, skipped []string, err error) {
	if tolerance < 0 {
		return nil, nil, fmt.Errorf("benchcheck: negative tolerance %v", tolerance)
	}
	_, base := medians(baseline)
	names, cur := medians(current)
	for _, name := range names {
		if !pattern.MatchString(name) {
			continue
		}
		b, ok := base[renames.apply(name)]
		if !ok || b <= 0 {
			skipped = append(skipped, name)
			continue
		}
		ratio := cur[name] / b
		comparisons = append(comparisons, Comparison{
			Name:       name,
			BaselineNs: b,
			CurrentNs:  cur[name],
			Ratio:      ratio,
			Regression: ratio > 1+tolerance,
		})
	}
	if len(comparisons) == 0 {
		return nil, skipped, fmt.Errorf("benchcheck: no current benchmark matching %q has a baseline entry (skipped: %v)", pattern, skipped)
	}
	return comparisons, skipped, nil
}

// medians groups results by normalized name and returns the names in
// first-seen order with the median ns/op of each name's samples (the mean
// of the middle two for an even count).
func medians(results []Result) (names []string, median map[string]float64) {
	samples := make(map[string][]float64)
	for _, r := range results {
		name := normalizeName(r.Name)
		if _, seen := samples[name]; !seen {
			names = append(names, name)
		}
		samples[name] = append(samples[name], r.NsPerOp)
	}
	median = make(map[string]float64, len(samples))
	for name, xs := range samples {
		sort.Float64s(xs)
		m := len(xs) / 2
		if len(xs)%2 == 1 {
			median[name] = xs[m]
		} else {
			median[name] = (xs[m-1] + xs[m]) / 2
		}
	}
	return names, median
}

// Regressions filters the flagged comparisons.
func Regressions(comparisons []Comparison) []Comparison {
	var out []Comparison
	for _, c := range comparisons {
		if c.Regression {
			out = append(out, c)
		}
	}
	return out
}

// Render writes a human-readable comparison table.
func Render(w io.Writer, record string, comparisons []Comparison, skipped []string, tolerance float64) {
	fmt.Fprintf(w, "baseline: %s (tolerance +%.0f%% ns/op)\n", record, tolerance*100)
	width := len("benchmark")
	for _, c := range comparisons {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	fmt.Fprintf(w, "%-*s  %14s  %14s  %7s\n", width, "benchmark", "baseline ns/op", "current ns/op", "ratio")
	for _, c := range comparisons {
		flag := ""
		if c.Regression {
			flag = "  REGRESSION"
		}
		fmt.Fprintf(w, "%-*s  %14.0f  %14.0f  %6.2fx%s\n", width, c.Name, c.BaselineNs, c.CurrentNs, c.Ratio, flag)
	}
	for _, s := range skipped {
		fmt.Fprintf(w, "skipped (no baseline entry): %s\n", s)
	}
}
