// Command bench is the repository benchmark: four workloads over the
// selection, sharding, serving and mutation paths of the random-walk
// domination system, each run in its own process, with a traced mode that
// breaks every end-to-end number down by layer. See README.md.
//
// Run from the repository root through bench/run.sh, which builds this
// package from source:
//
//	bash bench/run.sh                      # all four workloads
//	bash bench/run.sh --workload select-cold --seed 7 --seconds 20 --trace 0
//	bash bench/run.sh --workload serve-hot --trace 1   # per-layer metrics + spans
//
// With --workload, the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the metrics are the
// end-to-end set untraced and the per-layer set traced (see BENCHMARK.json).
// A failed correctness or validity check prints correct=false and exits 1;
// a run that cannot be carried out exits 2 without a result line.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them untraced. BENCHMARK.json lists the same names and
// units with their regression bounds (TestMetricTablesMatchBenchmarkJSON).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput_ops", "1/s"},
}

// perLayer are the traced metrics. A layer a workload does not exercise
// reports 0; README.md maps each metric to the end-to-end metric and
// workload it should move. The last five are end-to-end metrics that only
// some workloads have, that are 0 on a healthy run, or (max_rss_mb) that
// do not repeat on every workload, so they cannot be gated and ride in the
// traced set.
var perLayer = []metricDef{
	{"index.build_ms", "ms"},
	{"index.build_ms_w1", "ms"},
	{"index.gain_ns", "ns"},
	{"index.update_us", "us"},
	{"index.dtable_ms", "ms"},
	{"index.repair_ms", "ms"},
	{"index.repair_ratio", "ratio"},
	{"graph.apply_delta_ms", "ms"},
	{"index.bytes", "bytes"},
	{"greedy.evaluations", "count"},
	{"greedy.self_ms", "ms"},
	{"core.topgains_ms", "ms"},
	{"shard.partial_topgains_calls", "count"},
	{"shard.partial_topgains_ms", "ms"},
	{"shard.partial_gain_calls", "count"},
	{"shard.evaluations", "count"},
	{"shard.coord_self_ms", "ms"},
	{"store.load_ms", "ms"},
	{"cache.spill_loads", "count"},
	{"cache.index_hit_ratio", "ratio"},
	{"engine.read_us", "us"},
	{"server.codec_us", "us"},
	{"engine.memo_hit_ratio", "ratio"},
	{"engine.memos_dropped", "count"},
	{"engine.memo_evictions", "count"},
	{"engine.admission_shed", "count"},
	{"engine.selects_coalesced", "count"},
	{"go.alloc_kb_per_op", "KiB"},
	{"go.gc_pause_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"max_rss_mb", "MiB"},
	{"write_p50_ms", "ms"},
	{"write_tail_ms", "ms"},
	{"error_rate", "ratio"},
	{"slo_miss_rate", "ratio"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	window  time.Duration
	trace   *Tracer // nil on untraced runs
	workers int     // selection workers; 0 = GOMAXPROCS
	dir     string  // temporary directory, removed at exit
	exe     string  // this binary, for helper processes
}

// minSetupReps is how many times an untraced run sets its workload up at
// least; setup_s is the median. Traced runs set up once.
func (rc runConfig) minSetupReps() int {
	if rc.trace != nil {
		return 1
	}
	return 3
}

// timeSetups sets the workload up at least minReps times, and more while
// the reps so far took under a second (up to maxSetupReps, so a 10 ms
// set-up's median does not hang on a few page-fault or GC hiccups), tearing
// down all but the last, which it returns with the median set-up time in
// seconds. A garbage collection after each teardown keeps one rep's
// leftovers out of the next rep's time and out of the process's peak RSS;
// setup must not keep references to what it builds anywhere but its return
// values.
func timeSetups[T any](minReps int, setup func() (T, func(), error)) (T, float64, error) {
	var secs []float64
	spent := 0.0
	for i := 0; ; i++ {
		t0 := time.Now()
		v, teardown, err := setup()
		if err != nil {
			return v, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		spent += secs[i]
		if i+1 >= minReps && (spent >= 1 || i+1 >= maxSetupReps || minReps == 1) {
			return v, median(secs), nil
		}
		teardown()
		runtime.GC()
	}
}

const maxSetupReps = 100

// outcome is one workload run's measurements.
type outcome struct {
	attempted, failed int64
	// problems lists every failed correctness or validity check.
	problems []string
	metrics  map[string]float64
	// notes are printed beside the metrics (sample counts, percentiles).
	notes []string
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type workloadFunc func(ctx context.Context, rc runConfig) (*outcome, error)

// workloads in the order the all-workloads mode runs them.
var workloadOrder = []string{"select-cold", "select-sharded", "serve-hot", "mutate-mixed"}

var workloads = map[string]workloadFunc{
	"select-cold":    func(ctx context.Context, rc runConfig) (*outcome, error) { return runSelect(ctx, rc, coldSpec) },
	"select-sharded": func(ctx context.Context, rc runConfig) (*outcome, error) { return runSelect(ctx, rc, shardedSpec) },
	"serve-hot":      runServeHot,
	"mutate-mixed":   runMutateMixed,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run in this process; empty runs every workload, each in its own process")
	seed := flag.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Int("seconds", 22, "length of the measured window")
	trace := flag.String("trace", "0", `0 = untraced (end-to-end metrics); 1 = traced (per-layer metrics, spans written under the build directory); any other value = traced, spans written to that file`)
	workers := flag.Int("workers", 0, "selection workers for the select workloads (0 = GOMAXPROCS)")
	prepareSpill := flag.String("prepare-spill", "", "internal: build and spill the serve-hot index into this directory, then exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *prepareSpill != "" {
		if err := prepareServeSpill(ctx, *prepareSpill); err != nil {
			fmt.Fprintln(os.Stderr, "bench: prepare:", err)
			os.Exit(2)
		}
		return
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be >= 1")
		os.Exit(2)
	}
	if *workload == "" {
		os.Exit(runAll(ctx, *seed, *seconds, *trace, *workers))
	}
	os.Exit(runOne(ctx, *workload, *seed, *seconds, *trace, *workers))
}

// runOne runs one workload in this process and prints its result.
func runOne(ctx context.Context, name string, seed uint64, seconds int, traceArg string, workers int) int {
	fn, ok := workloads[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", name, strings.Join(workloadOrder, ", "))
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	buildDir := os.Getenv("RWBENCH_DIR")
	if buildDir == "" {
		buildDir = ".bench_build"
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	rc := runConfig{seed: seed, window: time.Duration(seconds) * time.Second, workers: workers, dir: dir, exe: exe}
	spanFile := ""
	switch traceArg {
	case "0", "":
	case "1":
		spanFile = spanPath(buildDir, name, seed)
	default:
		spanFile = traceArg
	}
	if spanFile != "" {
		rc.trace = newTracer()
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d seconds=%d traced=%t\n", name, seed, seconds, rc.trace != nil)
	out, err := fn(ctx, rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 2
	}
	defs := endToEnd
	if rc.trace != nil {
		defs = perLayer
		if err := rc.trace.WriteFile(spanFile); err != nil {
			fmt.Fprintf(os.Stderr, "bench: write spans: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "bench: spans written to %s\n", spanFile)
	}
	out.metrics["error_rate"] = ratio(out.failed, out.attempted)
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && rc.trace == nil {
			fmt.Fprintf(os.Stderr, "bench: %s did not measure %s\n", name, d.name)
			return 2
		}
		// A layer the workload does not exercise reports 0.
		out.metrics[d.name] = v
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	printReport(name, rc.trace != nil, out)
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", name, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printReport prints every measured metric by name with its unit.
func printReport(name string, traced bool, out *outcome) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Printf("%s (%s): attempted=%d failed=%d\n", name, mode, out.attempted, out.failed)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := out.metrics[d.name]; ok {
				fmt.Printf("  %-30s %14.4f %s\n", d.name, v, d.unit)
			}
		}
	}
	for _, n := range out.notes {
		fmt.Printf("  # %s\n", n)
	}
}

// runAll runs every workload in its own process and summarizes them.
func runAll(ctx context.Context, seed uint64, seconds int, traceArg string, workers int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	status := 0
	for _, name := range workloadOrder {
		t := traceArg
		if t != "0" && t != "1" && t != "" {
			ext := filepath.Ext(t)
			t = strings.TrimSuffix(t, ext) + "-" + name + ext
		}
		cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", t, "-workers", fmt.Sprint(workers))
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		os.Stdout.Write(stdout.Bytes())
		var last string
		sc := bufio.NewScanner(&stdout)
		for sc.Scan() {
			last = sc.Text()
		}
		var res result
		if err != nil || json.Unmarshal([]byte(last), &res) != nil || !res.Correct {
			fmt.Printf("%s: FAILED (%v)\n\n", name, err)
			status = 1
			continue
		}
		fmt.Printf("%s: ok\n\n", name)
	}
	return status
}
