package service

import (
	"io"

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// refMetrics is one reference's snapshot for the exposition. ref "" (the
// single-index server) emits unlabeled series, preserving the historical
// single-index format; a catalog server labels every series {ref="..."}.
type refMetrics struct {
	ref   string
	st    client.Stats
	req   telemetry.HistSnapshot // request wall time
	align telemetry.HistSnapshot // per-read engine time
}

// labels renders the reference's label pairs plus any extra ones.
func (rm *refMetrics) labels(extra ...string) []string {
	if rm.ref == "" {
		return extra
	}
	return append([]string{"ref", rm.ref}, extra...)
}

// writeMetrics renders the Prometheus text exposition: every metric name
// once, with one series per reference, then (for catalog servers) the
// catalog lifecycle metrics.
func writeMetrics(w io.Writer, refs []refMetrics, cat *client.CatalogCounters) {
	m := telemetry.NewExposition(w)
	for _, c := range []struct {
		name, help string
		v          func(*client.Stats) int64
	}{
		{"merserved_requests_total", "align requests served to completion", func(st *client.Stats) int64 { return st.Requests }},
		{"merserved_rejected_total", "requests rejected with 429 (queue full or inflight limit)", func(st *client.Stats) int64 { return st.Rejected }},
		{"merserved_canceled_total", "requests canceled by client disconnect", func(st *client.Stats) int64 { return st.Canceled }},
		{"merserved_reads_total", "reads accepted into the engine", func(st *client.Stats) int64 { return st.Reads }},
		{"merserved_too_short_reads_total", "reads rejected as shorter than K", func(st *client.Stats) int64 { return st.TooShort }},
		{"merserved_deadline_rejected_total", "requests rejected as already doomed by their propagated deadline", func(st *client.Stats) int64 { return st.DeadlineRejected }},
		{"merserved_batches_total", "coalesced engine calls", func(st *client.Stats) int64 { return st.Batches }},
		{"merserved_batched_reads_total", "reads across coalesced engine calls", func(st *client.Stats) int64 { return st.BatchedReads }},
		{"merserved_coalesced_batches_total", "engine calls serving >= 2 requests", func(st *client.Stats) int64 { return st.CoalescedBatches }},
	} {
		m.Counter(c.name, c.help)
		for i := range refs {
			m.Int(c.v(&refs[i].st), refs[i].labels()...)
		}
	}
	for _, g := range []struct {
		name, help string
		v          func(*client.Stats) float64
	}{
		{"merserved_batch_reads_max", "largest coalesced engine call", func(st *client.Stats) float64 { return float64(st.MaxBatchReads) }},
		{"merserved_batch_reads_mean", "mean reads per engine call", func(st *client.Stats) float64 { return st.MeanBatchReads }},
		{"merserved_queue_reads", "reads queued for the next batching window", func(st *client.Stats) float64 { return float64(st.QueueReads) }},
		{"merserved_draining", "1 while draining (healthz returns 503)", func(st *client.Stats) float64 {
			if st.Draining {
				return 1
			}
			return 0
		}},
		{"merserved_resident_bytes", "resident index footprint", func(st *client.Stats) float64 { return float64(st.ResidentBytes) }},
		{"merserved_uptime_seconds", "seconds since start", func(st *client.Stats) float64 { return st.UptimeSeconds }},
	} {
		m.Gauge(g.name, g.help)
		for i := range refs {
			m.Float(g.v(&refs[i].st), refs[i].labels()...)
		}
	}
	m.Summary("merserved_request_latency_seconds", "request wall time quantiles")
	for i := range refs {
		rm := &refs[i]
		m.Float(rm.st.RequestP50Ms/1e3, rm.labels("quantile", "0.5")...)
		m.Float(rm.st.RequestP99Ms/1e3, rm.labels("quantile", "0.99")...)
	}
	m.Summary("merserved_align_read_seconds", "per-read engine time quantiles")
	for i := range refs {
		rm := &refs[i]
		m.Float(rm.st.AlignReadP50Us/1e6, rm.labels("quantile", "0.5")...)
		m.Float(rm.st.AlignReadP99Us/1e6, rm.labels("quantile", "0.99")...)
	}
	// Native cumulative histograms under new *_duration_seconds names (the
	// *_latency_seconds summaries above keep their historical type).
	m.Histogram("merserved_request_duration_seconds", "request wall time histogram")
	for i := range refs {
		m.Hist(refs[i].req, refs[i].labels()...)
	}
	m.Histogram("merserved_align_read_duration_seconds", "per-read engine time histogram")
	for i := range refs {
		m.Hist(refs[i].align, refs[i].labels()...)
	}
	m.Runtime("merserved")
	if cat == nil {
		return
	}
	m.Gauge("merserved_catalog_open_refs", "references with an open (resident) index").Float(float64(cat.OpenRefs))
	m.Gauge("merserved_catalog_resident_bytes", "bytes charged to the residency budget").Float(float64(cat.ResidentBytes))
	m.Gauge("merserved_catalog_budget_bytes", "residency budget (0 = unlimited)").Float(float64(cat.BudgetBytes))
	m.Counter("merserved_catalog_opens_total", "snapshot opens (cold, reopen, and swap)").Int(cat.Opens)
	m.Counter("merserved_catalog_evictions_total", "budget evictions").Int(cat.Evictions)
	m.Counter("merserved_catalog_hot_swaps_total", "zero-downtime snapshot replacements").Int(cat.HotSwaps)
	m.Counter("merserved_catalog_uncached_serves_total", "serves of indexes larger than the whole budget").Int(cat.UncachedServes)
}
