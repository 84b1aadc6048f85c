// Command merrouted is the scatter/gather router of a sharded merAligner
// fleet: a stateless HTTP tier that fans every align request to N shard
// servers (each an ordinary merserved holding one `meraligner -shard-save`
// snapshot), merges the per-read results deterministically, and answers
// byte-identically to a single whole-reference merserved — JSON and SAM
// both (see internal/cluster). It shares its request lifecycle, coalescing
// queue and process skeleton with merserved (internal/service,
// internal/coalesce).
//
// Usage:
//
//	merrouted -shards http://h1:8490,http://h2:8490,http://h3:8490
//	          [-addr :8491] [-degraded fail|partial]
//	          [-call-timeout 15s] [-retries 3] [-health-interval 2s]
//	          [-breaker-threshold 3] [-hedge-after 0] [-min-deadline 0]
//	          [-max-batch 256] [-max-wait 2ms] [-queue 1024] [-v]
//	          [-log-level info] [-log-format text|json]
//	          [-slow-request-ms 0] [-debug-addr 127.0.0.1:0]
//
// -shards lists the fleet in shard order; the router validates each
// shard's SHRD identity against its position at warmup and stays 503
// not-ready (see GET /readyz) on any mismatch. Each list element may name
// several interchangeable replicas of its shard, separated by "|"
// ("http://h1a:8490|http://h1b:8490"): the router sends each shard RPC to
// one healthy replica (power-of-two-choices among the best circuit-breaker
// class), fails over to the next replica on error, and counts a shard as
// down only when all its replicas are. -breaker-threshold consecutive
// failures open a replica's circuit breaker (taking it out of selection
// until its readiness probes walk it back); -hedge-after, when positive,
// races a shard RPC still unanswered after that long against a second
// replica, first response winning, budget-capped at ~10% of RPCs.
//
// Shard RPCs get a per-call timeout and bounded jittered retries honoring
// Retry-After; a shard whose replicas all stay down is handled per
// -degraded: "fail" (default) fails requests with 502, "partial" serves
// the surviving shards' results annotated with degraded_shards (JSON) / an
// @CO line (SAM) and counted in metrics. -min-deadline, when positive,
// rejects align requests whose propagated X-Deadline-Ms budget is below it
// (503) instead of scattering doomed work.
//
// Endpoints: POST /v1/align, GET /v1/stats, /v1/targets, /healthz,
// /readyz, /metrics (merrouted_* and per-shard merrouted_shard_* series).
// SIGINT/SIGTERM drain gracefully.
//
// Observability: align requests carry a request ID propagated to every
// shard (traceparent / X-Request-Id) and echoed in the response header,
// error bodies, and -log-level debug request logs. -slow-request-ms logs
// a full span trace at warn for slow requests. -debug-addr starts a
// private listener with /debug/pprof/ and /debug/requests — bind it to
// localhost only; it is not for public exposure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/buildinfo"
	"github.com/lbl-repro/meraligner/internal/cluster"
	"github.com/lbl-repro/meraligner/internal/service"
)

func main() {
	var (
		shardsFlag  = flag.String("shards", "", "comma-separated shard base URLs in shard order, each optionally a |-separated replica set (required)")
		degraded    = flag.String("degraded", cluster.DegradedFail, "shard-failure policy: fail (502) or partial (serve surviving shards, annotated)")
		callTimeout = flag.Duration("call-timeout", 15*time.Second, "per-attempt timeout of one shard RPC")
		retries     = flag.Int("retries", 3, "max attempts per shard RPC")
		healthEvery = flag.Duration("health-interval", 2*time.Second, "replica readiness probe interval")
		breakerN    = flag.Int("breaker-threshold", 3, "consecutive failures opening a replica's circuit breaker (negative disables)")
		hedgeAfter  = flag.Duration("hedge-after", 0, "race a shard RPC unanswered after this long against a second replica (0 disables)")
	)
	pf := service.RegisterProcessFlags(flag.CommandLine, ":8491")
	flag.Parse()
	p := pf.Init("merrouted")

	var shards []string
	for _, part := range strings.Split(*shardsFlag, ",") {
		if part = strings.TrimSpace(part); part != "" {
			shards = append(shards, part)
		}
	}
	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "-shards with at least one base URL is required")
		flag.Usage()
		os.Exit(2)
	}

	p.Listen()
	pol := client.DefaultRetryPolicy()
	if *retries > 0 {
		pol.MaxAttempts = *retries
	}
	rt, err := cluster.New(cluster.Config{
		FrontConfig:      p.Front(),
		Shards:           shards,
		Degraded:         *degraded,
		Retry:            pol,
		CallTimeout:      *callTimeout,
		HealthInterval:   *healthEvery,
		BreakerThreshold: *breakerN,
		HedgeAfter:       *hedgeAfter,
		Version:          buildinfo.Version,
	})
	if err != nil {
		p.Fatal(err)
	}
	p.Logger.Info(fmt.Sprintf("scattering over %d shard(s), degraded policy %q", len(shards), *degraded))
	p.Serve(rt)
}
