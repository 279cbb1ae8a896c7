package shard

import (
	"sync/atomic"

	"repro/internal/latency"
)

// LatencySnapshot summarizes a latency histogram: quantiles are bucket
// upper bounds in milliseconds; -1 means the quantile fell in the +Inf
// overflow bucket. The coordinator never fills Buckets, so merge_latency
// in /stats carries none.
type LatencySnapshot = latency.Snapshot

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
		MergeLatency:   co.mergeLat.Snapshot(false),
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
