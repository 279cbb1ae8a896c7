package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailLadder lists the percentiles a tail metric may use, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 85, 80, 75, 70, 60, 50}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps percentiles like 99.9, which float64 stores slightly
// high, from rounding up a whole rank.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// beyond returns how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentile returns the highest percentile on the ladder that leaves at
// least ten of n samples beyond it — the rule each workload's fixed tail
// percentile was chosen by, from its expected sample count. It returns 0
// when n < 20, where no percentile at or above the median qualifies.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// which it does not modify. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is percentile(xs, 50).
func median(xs []float64) float64 { return percentile(xs, 50) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencyFrom is an open-loop request's latency: from when it was due or
// when it was actually sent, whichever came first, so a generator or system
// stall that delays later sends is charged to those requests.
func latencyFrom(due, sent, done time.Duration) time.Duration {
	return done - min(due, sent)
}

// maxRSSMB returns the process's peak resident set (VmHWM) in MiB. Where
// /proc is unavailable it falls back to the Go runtime's total OS memory.
func maxRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// gcWindow captures allocation and GC-pause counters around a measured
// window.
type gcWindow struct{ before runtime.MemStats }

func startGCWindow() *gcWindow {
	w := &gcWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// finish returns the allocated KiB per operation and the total GC pause in
// milliseconds since the window started.
func (w *gcWindow) finish(ops int) (allocKBPerOp, pauseMS float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ops > 0 {
		allocKBPerOp = float64(after.TotalAlloc-w.before.TotalAlloc) / 1024 / float64(ops)
	}
	return allocKBPerOp, float64(after.PauseTotalNs-w.before.PauseTotalNs) / 1e6
}

// closedLoopMetrics fills the latency and throughput metrics of a closed
// loop from per-operation latencies in milliseconds.
func closedLoopMetrics(out *outcome, lat []float64, elapsed time.Duration, tailPct float64) {
	out.metrics["p50_ms"] = median(lat)
	out.metrics["tail_ms"] = percentile(lat, tailPct)
	out.metrics["throughput_ops"] = float64(len(lat)) / elapsed.Seconds()
	noteTail(out, lat, tailPct)
}

// noteTail records the tail's percentile and sample support, warning when
// the run measured too few samples for the fixed percentile, and the
// latency ladder around it.
func noteTail(out *outcome, lat []float64, p float64) {
	n := len(lat)
	out.note("tail_ms is p%g of %d samples (%d beyond)", p, n, beyond(n, p))
	out.note("latency ms: p75=%.4g p90=%.4g p95=%.4g p99=%.4g p99.9=%.4g max=%.4g",
		percentile(lat, 75), percentile(lat, 90), percentile(lat, 95), percentile(lat, 99), percentile(lat, 99.9), percentile(lat, 100))
	if beyond(n, p) < 10 {
		out.note("WARNING: fewer than 10 samples beyond the tail percentile; tail_ms is not supported by this run")
	}
}

// overheadPct is the traced median over the untraced median, as a percent
// increase.
func overheadPct(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return (median(traced)/median(untraced) - 1) * 100
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
