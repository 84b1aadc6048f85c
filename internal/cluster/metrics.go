package cluster

import (
	"io"
	"strconv"
	"sync/atomic"

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// Router observability: lock-free counters and the shared telemetry.Hist
// latency histograms; the request counters and histogram are the front
// door's, the same as merserved's, so a merrouted dashboard reads like a
// merserved one.

// routerStats are the router's own counters; the request and queue ones
// are its front door's.
type routerStats struct {
	degradedServed atomic.Int64 // partial responses served (partial policy)
	failedRequests atomic.Int64 // requests failed on shard errors

	primaries atomic.Int64 // first-choice replica launches (hedge budget base)
	failovers atomic.Int64 // launches on another replica after a failure
	hedges    atomic.Int64 // speculative second-replica launches
	hedgeWins atomic.Int64 // hedges that answered before the primary
}

// snapshot renders the wire RouterStats counters from the front door's and
// its own (identity, readiness, and the shard list are filled in by the
// Router).
func (s *routerStats) snapshot(front client.Stats) client.RouterStats {
	return client.RouterStats{
		Requests:         front.Requests,
		Rejected:         front.Rejected,
		Canceled:         front.Canceled,
		Reads:            front.Reads,
		TooShort:         front.TooShort,
		DegradedServed:   s.degradedServed.Load(),
		FailedRequests:   s.failedRequests.Load(),
		Batches:          front.Batches,
		BatchedReads:     front.BatchedReads,
		CoalescedBatches: front.CoalescedBatches,
		MeanBatchReads:   front.MeanBatchReads,
		MaxBatchReads:    front.MaxBatchReads,
		QueueReads:       front.QueueReads,
		Failovers:        s.failovers.Load(),
		Hedges:           s.hedges.Load(),
		HedgeWins:        s.hedgeWins.Load(),
		DeadlineRejected: front.DeadlineRejected,
		RequestP50Ms:     front.RequestP50Ms,
		RequestP99Ms:     front.RequestP99Ms,
	}
}

// writeMetrics renders the router's Prometheus text exposition:
// merrouted_* request/coalescing series shaped like merserved_*, the
// per-shard merrouted_shard_* series labeled {shard="id",addr="..."},
// native cumulative histograms, and the Go runtime gauges. req and
// shardLat are the request and per-shard RPC latency histogram
// snapshots; shardLat is indexed like st.Shards.
func writeMetrics(w io.Writer, st client.RouterStats, req telemetry.HistSnapshot, shardLat []telemetry.HistSnapshot) {
	m := telemetry.NewExposition(w)
	m.Counter("merrouted_requests_total", "align requests served to completion").Int(st.Requests)
	m.Counter("merrouted_rejected_total", "requests rejected with 429 (queue full)").Int(st.Rejected)
	m.Counter("merrouted_canceled_total", "requests canceled by client disconnect").Int(st.Canceled)
	m.Counter("merrouted_reads_total", "reads accepted for scattering").Int(st.Reads)
	m.Counter("merrouted_too_short_reads_total", "reads rejected as shorter than K").Int(st.TooShort)
	m.Counter("merrouted_degraded_requests_total", "partial responses served under the partial policy").Int(st.DegradedServed)
	m.Counter("merrouted_failed_requests_total", "requests failed on shard errors").Int(st.FailedRequests)
	m.Counter("merrouted_failovers_total", "scatters re-launched on another replica after a failure").Int(st.Failovers)
	m.Counter("merrouted_hedges_total", "speculative second-replica launches").Int(st.Hedges)
	m.Counter("merrouted_hedge_wins_total", "hedged launches that answered before the primary").Int(st.HedgeWins)
	m.Counter("merrouted_deadline_rejected_total", "requests rejected as already doomed by their deadline").Int(st.DeadlineRejected)
	m.Counter("merrouted_batches_total", "coalesced scatters issued").Int(st.Batches)
	m.Counter("merrouted_batched_reads_total", "reads across coalesced scatters").Int(st.BatchedReads)
	m.Counter("merrouted_coalesced_batches_total", "scatters serving >= 2 requests").Int(st.CoalescedBatches)
	m.Gauge("merrouted_batch_reads_max", "largest coalesced scatter").Float(float64(st.MaxBatchReads))
	m.Gauge("merrouted_batch_reads_mean", "mean reads per scatter").Float(st.MeanBatchReads)
	m.Gauge("merrouted_queue_reads", "reads queued for the next batching window").Float(float64(st.QueueReads))
	m.Gauge("merrouted_ready", "1 once the global target catalog is assembled").Bool(st.Ready)
	m.Gauge("merrouted_draining", "1 while draining (healthz returns 503)").Bool(st.Draining)
	m.Summary("merrouted_request_latency_seconds", "request wall time quantiles").
		Float(st.RequestP50Ms/1e3, "quantile", "0.5").
		Float(st.RequestP99Ms/1e3, "quantile", "0.99")

	// Per-shard series, labeled {shard,addr}.
	shardLabels := func(sh *client.ShardStatus, extra ...string) []string {
		return append([]string{"shard", strconv.Itoa(sh.ID), "addr", sh.Addr}, extra...)
	}
	m.Gauge("merrouted_shard_up", "1 when the shard's last readiness probe succeeded")
	for i := range st.Shards {
		m.Bool(st.Shards[i].Up, shardLabels(&st.Shards[i])...)
	}
	for _, c := range []struct {
		name, help string
		v          func(*client.ShardStatus) int64
	}{
		{"merrouted_shard_calls_total", "align RPC attempts issued to the shard", func(sh *client.ShardStatus) int64 { return sh.Calls }},
		{"merrouted_shard_retries_total", "align RPC attempts beyond the first", func(sh *client.ShardStatus) int64 { return sh.Retries }},
		{"merrouted_shard_errors_total", "align RPCs that exhausted their retries", func(sh *client.ShardStatus) int64 { return sh.Errors }},
	} {
		m.Counter(c.name, c.help)
		for i := range st.Shards {
			m.Int(c.v(&st.Shards[i]), shardLabels(&st.Shards[i])...)
		}
	}
	m.Gauge("merrouted_shard_inflight", "align RPCs in flight right now")
	for i := range st.Shards {
		m.Int(st.Shards[i].Inflight, shardLabels(&st.Shards[i])...)
	}
	m.Summary("merrouted_shard_call_latency_seconds", "per-attempt RPC wall time quantiles")
	for i := range st.Shards {
		sh := &st.Shards[i]
		m.Float(sh.CallP50Ms/1e3, shardLabels(sh, "quantile", "0.5")...)
		m.Float(sh.CallP99Ms/1e3, shardLabels(sh, "quantile", "0.99")...)
	}

	// Per-replica series, labeled {shard,replica,addr}. State encodes the
	// circuit breaker: 0 closed, 1 half_open, 2 open.
	breakerCode := map[string]int64{client.BreakerHalfOpen: 1, client.BreakerOpen: 2}
	for _, g := range []struct {
		name, help string
		counter    bool
		v          func(*client.ReplicaStatus) int64
	}{
		{"merrouted_replica_state", "circuit-breaker state: 0 closed, 1 half_open, 2 open", false, func(rep *client.ReplicaStatus) int64 { return breakerCode[rep.State] }},
		{"merrouted_replica_up", "1 when the replica's last readiness probe succeeded", false, func(rep *client.ReplicaStatus) int64 {
			if rep.Up {
				return 1
			}
			return 0
		}},
		{"merrouted_replica_calls_total", "align RPC attempts issued to the replica", true, func(rep *client.ReplicaStatus) int64 { return rep.Calls }},
		{"merrouted_replica_errors_total", "replica align RPCs that exhausted their retries", true, func(rep *client.ReplicaStatus) int64 { return rep.Errors }},
		{"merrouted_replica_inflight", "replica align RPCs in flight right now", false, func(rep *client.ReplicaStatus) int64 { return rep.Inflight }},
	} {
		if g.counter {
			m.Counter(g.name, g.help)
		} else {
			m.Gauge(g.name, g.help)
		}
		for _, sh := range st.Shards {
			for j := range sh.Replicas {
				m.Int(g.v(&sh.Replicas[j]), "shard", strconv.Itoa(sh.ID), "replica", strconv.Itoa(j), "addr", sh.Replicas[j].Addr)
			}
		}
	}
	// Native cumulative histograms under new *_duration_seconds names (the
	// *_latency_seconds summaries above keep their historical type).
	m.Histogram("merrouted_request_duration_seconds", "request wall time histogram").Hist(req)
	m.Histogram("merrouted_shard_call_duration_seconds", "per-attempt shard RPC wall time histogram")
	for i := range st.Shards {
		if i < len(shardLat) {
			m.Hist(shardLat[i], shardLabels(&st.Shards[i])...)
		}
	}
	m.Runtime("merrouted")
}
