// Package telemetry is the shared observability layer: request-scoped
// traces propagated as W3C traceparent headers, a bounded ring of
// completed request traces for /debug/requests, structured logging
// (log/slog) with the -log-level/-log-format flag set, the lock-free
// log2 latency histogram shared by the service and cluster tiers, and
// the one Prometheus text-exposition writer every /metrics endpoint uses
// (Exposition, Go runtime series included).
//
// Everything here is stdlib-only and safe for concurrent use. The hot
// alignment path never allocates on behalf of this package: traces are
// recorded per request (not per read), and histograms are fixed arrays
// of atomics.
package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of log2 buckets: bucket i counts
// observations in [2^i, 2^(i+1)) nanoseconds, so 63 buckets cover the
// full positive int64 range and no observation is ever dropped.
const histBuckets = 63

// Prometheus histogram series are emitted for le bounds 2^promMinExp ..
// 2^promMaxExp nanoseconds (~1µs .. ~69s) plus +Inf; observations
// outside the band still land in the edge buckets' cumulative counts.
const (
	promMinExp = 10
	promMaxExp = 36
)

// Hist is a lock-free log2-bucketed latency histogram over nanoseconds.
// It is written on hot paths by many goroutines and read whole by stats
// and metrics endpoints, so there are no locks — only atomics; snapshots
// are merely consistent-enough, which is all observability needs.
type Hist struct {
	count   atomic.Int64
	sum     atomic.Int64 // total observed nanoseconds
	buckets [histBuckets]atomic.Int64
}

// Observe records one latency in nanoseconds.
func (h *Hist) Observe(ns int64) {
	if ns < 1 {
		ns = 1
	}
	h.buckets[bits.Len64(uint64(ns))-1].Add(1)
	h.sum.Add(ns)
	h.count.Add(1)
}

// Count returns the number of observations so far.
func (h *Hist) Count() int64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 < q <= 1) in nanoseconds as the
// geometric midpoint of the bucket holding the target rank; 0 when
// empty.
func (h *Hist) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= target {
			return 1.5 * float64(int64(1)<<i)
		}
	}
	return 1.5 * float64(int64(1)<<62)
}

// HistSnapshot is a point-in-time copy of a Hist, used to render one
// Prometheus histogram series (Exposition.Hist).
type HistSnapshot struct {
	Count   int64
	Sum     int64 // nanoseconds
	Buckets [histBuckets]int64
}

// Snapshot copies the histogram's current state.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}
