package shard

import (
	"sync/atomic"
	"time"
)

// numLatencyBounds must match len(latencyBounds); the histogram array needs
// a constant size.
const numLatencyBounds = 15

// latencyBounds are the merge-latency bucket upper bounds, matching the
// server's endpoint histograms so the two read side by side in /stats: from
// sub-millisecond warm merges to multi-second cold scatter fan-outs. The
// final implicit bucket is +Inf.
var latencyBounds = [numLatencyBounds]time.Duration{
	500 * time.Microsecond,
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	200 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2 * time.Second,
	5 * time.Second,
	10 * time.Second,
	30 * time.Second,
}

// histogram is a fixed-bucket latency histogram with lock-free observation.
type histogram struct {
	counts [numLatencyBounds + 1]atomic.Int64
	sumNS  atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	i := 0
	for ; i < len(latencyBounds); i++ {
		if d <= latencyBounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
}

// LatencySnapshot summarizes a histogram: quantiles are bucket upper bounds
// in milliseconds; -1 means the quantile fell in the +Inf overflow bucket.
type LatencySnapshot struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

func (h *histogram) snapshot() LatencySnapshot {
	cum := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
		cum[i] = total
	}
	s := LatencySnapshot{
		Count: total,
		P50MS: quantileUpperBound(cum, total, 0.50),
		P95MS: quantileUpperBound(cum, total, 0.95),
		P99MS: quantileUpperBound(cum, total, 0.99),
	}
	if total > 0 {
		s.MeanMS = float64(h.sumNS.Load()) / float64(total) / float64(time.Millisecond)
	}
	return s
}

// quantileUpperBound returns the upper bound (ms) of the bucket containing
// the q-quantile, -1 for the +Inf overflow bucket.
func quantileUpperBound(cum []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	for i, c := range cum {
		if c >= rank {
			if i < len(latencyBounds) {
				return float64(latencyBounds[i]) / float64(time.Millisecond)
			}
			break
		}
	}
	return -1
}

// connStats tracks one worker connection's scatter traffic.
type connStats struct {
	requests atomic.Int64
	errors   atomic.Int64
	retries  atomic.Int64
}

// ConnStats is the snapshot of one worker's scatter traffic. Requests
// counts coordinator-level calls (the remote client's internal retries are
// invisible here); Retries counts coordinator-level re-sends after a
// temporary (draining/overloaded) failure.
type ConnStats struct {
	Addr     string
	Requests int64
	Errors   int64
	Retries  int64
}

// Stats is a snapshot of the coordinator's counters.
type Stats struct {
	// Shards is the worker count.
	Shards int
	// Merges counts completed scatter-gather merges (one per coordinator
	// read, one per gain batch a selection's greedy driver asks for);
	// DegradedMerges the subset where
	// at least one shard answered from frozen degraded state (the merged
	// values are still exact).
	Merges         int64
	DegradedMerges int64
	// Retries counts coordinator-level re-sends across all shards.
	Retries int64
	// MergeLatency is the scatter-gather merge latency distribution.
	MergeLatency LatencySnapshot
	// PerShard is indexed like the coordinator's workers.
	PerShard []ConnStats
}

// Stats returns a snapshot of the coordinator's counters.
func (co *Coordinator) Stats() Stats {
	s := Stats{
		Shards:         len(co.conns),
		Merges:         co.merges.Load(),
		DegradedMerges: co.degradedMerges.Load(),
		Retries:        co.retries.Load(),
		MergeLatency:   co.mergeLat.snapshot(),
		PerShard:       make([]ConnStats, len(co.conns)),
	}
	for i := range co.conns {
		s.PerShard[i] = ConnStats{
			Addr:     co.conns[i].Addr(),
			Requests: co.perShard[i].requests.Load(),
			Errors:   co.perShard[i].errors.Load(),
			Retries:  co.perShard[i].retries.Load(),
		}
	}
	return s
}
