// Package latency is the fixed-bucket latency histogram /stats reports:
// the HTTP server's per-endpoint histograms and the shard coordinator's
// scatter-gather merge histogram share its bucket bounds, so the two read
// side by side.
package latency

import (
	"sync/atomic"
	"time"
)

// numBounds must match len(bounds); the histogram array needs a constant
// size.
const numBounds = 15

// bounds are the histogram bucket upper bounds. Exponential-ish coverage
// from sub-millisecond cache hits and warm merges to multi-second cold
// index builds and scatter fan-outs; the final implicit bucket is +Inf.
var bounds = [numBounds]time.Duration{
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

// Histogram is a fixed-bucket latency histogram with lock-free
// observation. The zero value is empty and ready to use.
type Histogram struct {
	counts [numBounds + 1]atomic.Int64
	sumNS  atomic.Int64
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for ; i < len(bounds); i++ {
		if d <= bounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
}

// Bucket is one cumulative ("le") histogram bucket in /stats output.
type Bucket struct {
	LeMS  float64 `json:"le_ms"` // upper bound in milliseconds; -1 means +Inf
	Count int64   `json:"count"` // cumulative count of observations <= LeMS
}

// Snapshot is the JSON form of a histogram. Quantiles are bucket upper
// bounds in milliseconds; -1 means the quantile fell in the +Inf overflow
// bucket. Buckets is present only when asked for.
type Snapshot struct {
	Count   int64    `json:"count"`
	MeanMS  float64  `json:"mean_ms"`
	P50MS   float64  `json:"p50_ms"`
	P95MS   float64  `json:"p95_ms"`
	P99MS   float64  `json:"p99_ms"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot summarizes the observations so far, with the cumulative
// buckets when withBuckets is set.
func (h *Histogram) Snapshot(withBuckets bool) Snapshot {
	cum := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
		cum[i] = total
	}
	s := Snapshot{
		Count: total,
		P50MS: quantileUpperBound(cum, total, 0.50),
		P95MS: quantileUpperBound(cum, total, 0.95),
		P99MS: quantileUpperBound(cum, total, 0.99),
	}
	if total > 0 {
		s.MeanMS = float64(h.sumNS.Load()) / float64(total) / float64(time.Millisecond)
	}
	if withBuckets {
		s.Buckets = make([]Bucket, 0, len(cum))
		for i, c := range cum {
			le := -1.0
			if i < len(bounds) {
				le = float64(bounds[i]) / float64(time.Millisecond)
			}
			s.Buckets = append(s.Buckets, Bucket{LeMS: le, Count: c})
		}
	}
	return s
}

// quantileUpperBound returns the upper bound (ms) of the bucket containing
// the q-quantile. A quantile landing in the +Inf overflow bucket reports -1
// (matching the le_ms convention) rather than pretending the largest finite
// bound was measured.
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
			if i < len(bounds) {
				return float64(bounds[i]) / float64(time.Millisecond)
			}
			break
		}
	}
	return -1
}
