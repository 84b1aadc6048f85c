package cluster

import (
	"io"
	"strconv"
	"sync/atomic"

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/service"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// Router observability: lock-free counters and the shared telemetry.Hist
// latency histograms. The request counters, queue observations and request
// histogram are the front door's, reported and exported by service.Front as
// merserved's are, so a merrouted dashboard reads like a merserved one.

// routerStats are the router's own counters.
type routerStats struct {
	degradedServed atomic.Int64 // partial responses served (partial policy)
	failedRequests atomic.Int64 // requests failed on shard errors

	primaries atomic.Int64 // first-choice replica launches (hedge budget base)
	failovers atomic.Int64 // launches on another replica after a failure
	hedges    atomic.Int64 // speculative second-replica launches
	hedgeWins atomic.Int64 // hedges that answered before the primary
}

// writeMetrics renders the router's Prometheus text exposition: the front
// door's merrouted_* families, the router's own counters, the per-shard
// merrouted_shard_* series labeled {shard="id",addr="..."} and per-replica
// series, native cumulative histograms, and the Go runtime gauges.
// shardLat holds the per-shard RPC latency histogram snapshots, indexed
// like st.Shards.
func writeMetrics(w io.Writer, st client.RouterStats, front *service.Front[*gather], shardLat []telemetry.HistSnapshot) {
	m := telemetry.NewExposition(w)
	service.WriteFrontMetrics(m, "merrouted", []*service.Front[*gather]{front}, [][]string{nil})
	m.Counter("merrouted_degraded_requests_total", "partial responses served under the partial policy").Int(st.DegradedServed)
	m.Counter("merrouted_failed_requests_total", "requests failed on shard errors").Int(st.FailedRequests)
	m.Counter("merrouted_failovers_total", "scatters re-launched on another replica after a failure").Int(st.Failovers)
	m.Counter("merrouted_hedges_total", "speculative second-replica launches").Int(st.Hedges)
	m.Counter("merrouted_hedge_wins_total", "hedged launches that answered before the primary").Int(st.HedgeWins)
	m.Gauge("merrouted_ready", "1 once the global target catalog is assembled").Bool(st.Ready)
	m.Gauge("merrouted_draining", "1 while draining (healthz returns 503)").Bool(st.Draining)

	// Per-shard series, labeled {shard,addr}.
	shardLabels := func(sh *client.ShardStatus) []string {
		return []string{"shard", strconv.Itoa(sh.ID), "addr", sh.Addr}
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
	m.Histogram("merrouted_shard_call_duration_seconds", "per-attempt shard RPC wall time histogram")
	for i := range st.Shards {
		if i < len(shardLat) {
			m.Hist(shardLat[i], shardLabels(&st.Shards[i])...)
		}
	}
	m.Runtime("merrouted")
}
