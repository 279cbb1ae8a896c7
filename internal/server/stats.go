package server

import (
	"sync/atomic"

	"repro/client"
	"repro/internal/latency"
)

// endpointMetrics tracks one route.
type endpointMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	lat      latency.Histogram
}

func (m *endpointMetrics) Snapshot(withBuckets bool) client.EndpointStats {
	return client.EndpointStats{
		Requests: m.requests.Load(),
		Errors:   m.errors.Load(),
		Latency:  m.lat.Snapshot(withBuckets),
	}
}
