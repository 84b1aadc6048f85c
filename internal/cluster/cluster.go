// Package cluster implements merrouted: the stateless scatter/gather tier
// that serves one reference too big (or too hot) for one machine. The
// reference is partitioned ahead of time into N self-contained shard
// snapshots (`meraligner -shard-save`, SaveShards); each shard is served by
// an ordinary merserved; a Router fans every align request to all shards
// over the existing /v1/align wire protocol, merges the per-read results
// deterministically, and answers with output byte-identical to a single
// whole-reference node — JSON and SAM both. Clients cannot tell the
// difference, which is the point: sharding is an operational decision, not
// an API change.
//
// Identity is not something the router keeps; it falls out of there being
// one output module (internal/seqio: the Hit record, CompareHits,
// AppendSAMRead). A node resolves each engine record to a hit — target by
// global name, per-target coordinates (shards never rebase), NM computed
// against the target's bases — and renders it, as SAM or, encoded as it is,
// as the wire alignment. The router decodes those same records, sorts the
// concatenation of the shards' lists with the same comparator and calls the
// same renderer: no target bases needed, no record format of its own. The
// router's own jobs are the global header (assembled from the shards'
// GET /v1/targets catalogs at warmup) and the merge (merge.go). Admission,
// the queue, request accounting, the status map, tracing and the draining
// gate are the single node's own (internal/service's Front and Lifecycle),
// so a refused request gets the status and body a single node would send.
//
// Endpoints are those of a single-index merserved:
//
//	POST /v1/align   scatter, gather, merge (JSON, or SAM via Accept)
//	GET  /v1/stats   RouterStats: the front door's report plus per-shard health
//	GET  /v1/targets the assembled global reference catalog
//	GET  /healthz    200 serving, 503 draining
//	GET  /readyz     503 until the fleet catalog is assembled and validated
//	GET  /metrics    merrouted_* and merrouted_shard_* exposition
//
// Failure policy: each shard may be served by a replica set ("a1|a2" in
// Config.Shards), and a scatter sends the shard's RPC to one healthy
// replica — power-of-two-choices on in-flight count among the best
// circuit-breaker class — failing over to the next replica on error and
// optionally hedging a slow attempt against a second replica (see
// replica.go). Every attempt gets a per-call timeout and bounded,
// jittered, Retry-After-honoring retries (client.RetryPolicy). A shard
// whose replicas all fail either fails the request (502, policy "fail" —
// the default: silently missing alignments are corruption in a pipeline)
// or is dropped from a partial response that says so in-band (policy
// "partial": degraded_shards in JSON, an @CO line in SAM, and a counted
// metric).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/coalesce"
	"github.com/lbl-repro/meraligner/internal/seqio"
	"github.com/lbl-repro/meraligner/internal/service"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// Degraded policies: what a Router serves when a shard stays down after
// retries.
const (
	// DegradedFail fails the whole request with 502 naming the lost shards.
	DegradedFail = "fail"
	// DegradedPartial serves the surviving shards' results, annotated
	// in-band (degraded_shards / @CO) and counted. All shards failing still
	// fails the request — an all-unmapped lie is never served.
	DegradedPartial = "partial"
)

// Config shapes one Router. Shards is required; everything else defaults.
type Config struct {
	// Shards lists the fleet's base URLs (e.g. "http://host:8490") in shard
	// order — the order must match the shards' SHRD identities, and the
	// warmup validation refuses a misordered or incomplete fleet. Each
	// element may name several interchangeable replicas of the shard,
	// separated by "|" ("http://h1:8490|http://h2:8490"): the router picks
	// a healthy replica per RPC and the shard is down only when all its
	// replicas are.
	Shards []string

	// Degraded selects the shard-failure policy: DegradedFail (default) or
	// DegradedPartial.
	Degraded string

	// Retry bounds the per-shard RPC retries (client.RetryPolicy semantics:
	// capped jittered exponential backoff, Retry-After honored). Each zero
	// field defaults on its own, as RetryPolicy.Do has it; AttemptTimeout,
	// the cap on one RPC attempt to one shard (-call-timeout), defaults to
	// client.DefaultAttemptTimeout.
	Retry client.RetryPolicy

	// The front door, as in service.Config: one queue of scatters (MaxBatch
	// reads each), admission, logging. As many scatters run at once as the
	// narrowest shard has replicas.
	service.FrontConfig

	// HealthInterval paces the per-replica /readyz probes. Default 2s.
	// Probes gate traffic: they feed the merrouted_replica_up gauge, bias
	// replica selection toward probed-up replicas, and walk an open
	// circuit breaker back into rotation (open → half-open → closed).
	HealthInterval time.Duration

	// BreakerThreshold is the consecutive-failure count that opens one
	// replica's circuit breaker, taking it out of selection until its
	// readiness probes recover. Default 3; negative disables breakers.
	BreakerThreshold int

	// HedgeAfter, when positive, arms hedged requests: a shard RPC that
	// has not answered after this long is raced against a second replica,
	// the first response wins, and the loser is canceled. Hedges are
	// capped by an adaptive budget (~10% of shard RPCs) so a slow fleet
	// is not doubled over. Zero disables hedging.
	HedgeAfter time.Duration

	// Version is reported in /v1/stats (ldflags-injected by cmd/merrouted).
	Version string

	// HTTPClient overrides the shard clients' *http.Client (transport
	// limits, test doubles).
	HTTPClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.Degraded == "" {
		c.Degraded = DegradedFail
	}
	if c.Retry.AttemptTimeout <= 0 {
		c.Retry.AttemptTimeout = client.DefaultAttemptTimeout
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	return c
}

// fleetCatalog is the assembled global reference view: the shards'
// catalogs concatenated in shard order.
type fleetCatalog struct {
	k       int
	refs    []seqio.SAMRef      // SAM @SQ material
	targets []client.TargetInfo // GET /v1/targets body
}

// Router is the scatter/gather HTTP tier. Create with New, serve with
// net/http, stop with Drain (graceful) or Close (hard).
type Router struct {
	*service.Lifecycle

	cfg   Config
	mux   *http.ServeMux
	front *service.Front[*gather]
	st    routerStats

	sets []*shardSet

	cat      atomic.Pointer[fleetCatalog]
	warmNote atomic.Pointer[string] // last warmup failure, surfaced by /readyz

	baseCtx context.Context
	cancel  context.CancelFunc
	bg      sync.WaitGroup // warmup + health probes
}

// New builds a Router over cfg.Shards and starts its warmup (assembling and
// validating the fleet catalog, retrying until it succeeds or the Router is
// closed) and per-shard health probes. The Router answers 503 warming until
// warmup completes; Ready reports the transition.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: at least one shard address is required")
	}
	switch cfg.Degraded {
	case "", DegradedFail, DegradedPartial:
	default:
		return nil, fmt.Errorf("cluster: unknown degraded policy %q (want %q or %q)", cfg.Degraded, DegradedFail, DegradedPartial)
	}
	cfg = cfg.withDefaults()
	rt := &Router{cfg: cfg}
	rt.Lifecycle = service.NewLifecycle(cfg.Logger, cfg.SlowRequest, cfg.TraceCapacity)
	rt.baseCtx, rt.cancel = context.WithCancel(context.Background())
	opts := []client.Option{}
	if cfg.HTTPClient != nil {
		opts = append(opts, client.WithHTTPClient(cfg.HTTPClient))
	}
	for i, spec := range cfg.Shards {
		ss := &shardSet{id: i}
		for _, addr := range strings.Split(spec, "|") {
			if addr = strings.TrimSpace(addr); addr == "" {
				continue
			}
			ss.replicas = append(ss.replicas, &replica{
				shard: i, idx: len(ss.replicas), addr: addr, cl: client.New(addr, opts...),
			})
		}
		if len(ss.replicas) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replica addresses", i)
		}
		rt.sets = append(rt.sets, ss)
	}
	// A scatter occupies one replica of every shard, so the narrowest shard
	// bounds the scatters in flight.
	narrowest := len(rt.sets[0].replicas)
	for _, ss := range rt.sets {
		narrowest = min(narrowest, len(ss.replicas))
	}
	rt.front = service.NewFront(rt.baseCtx, cfg.FrontConfig, service.Tier[*gather]{
		Call:    rt.scatter,
		Calls:   coalesce.NewLimit(narrowest),
		Prepare: scatterCarrier,
		Record:  recordScatter,
		Status:  rt.shardStatus,
	})

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/align", rt.Traced(rt.Gated(rt.handleAlign)))
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /v1/targets", rt.handleTargets)
	mux.HandleFunc("GET /healthz", rt.Healthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux = mux

	rt.bg.Add(1)
	go rt.warm()
	for _, ss := range rt.sets {
		for _, rep := range ss.replicas {
			rt.bg.Add(1)
			go rt.health(rep)
		}
	}
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Ready reports whether the fleet catalog has been assembled and validated
// (the /readyz condition, minus draining).
func (rt *Router) Ready() bool { return rt.cat.Load() != nil }

// Drain gracefully stops the Router: admission closes (new requests answer
// 503), queued requests still scatter, complete and render, then the
// background probes stop. When ctx expires first, in-flight scatters are
// aborted and ctx's error is returned.
func (rt *Router) Drain(ctx context.Context) error {
	rt.StartDrain()
	err := rt.front.Drain(ctx)
	if err == nil {
		err = rt.WaitIdle(ctx)
	}
	rt.cancel()
	rt.bg.Wait()
	return err
}

// Close hard-stops: cancels in-flight scatters and the background probes.
func (rt *Router) Close() {
	rt.StartDrain()
	rt.cancel()
	rt.front.Close()
	rt.bg.Wait()
}

// warm assembles the fleet catalog, retrying until it validates or the
// Router is closed. A fleet that is still starting up (shards answering 503
// warming) simply keeps the Router not-ready; a fleet that validates
// inconsistently (mixed K, wrong shard order) also keeps it not-ready, with
// the reason surfaced by /readyz — misconfiguration is loud, not wrong.
func (rt *Router) warm() {
	defer rt.bg.Done()
	for {
		cat, err := rt.assembleCatalog(rt.baseCtx)
		if err == nil {
			rt.cat.Store(cat)
			rt.Logger.Info("fleet catalog assembled",
				"shards", len(rt.sets), "k", cat.k, "targets", len(cat.targets))
			return
		}
		msg := err.Error()
		rt.warmNote.Store(&msg)
		select {
		case <-rt.baseCtx.Done():
			return
		case <-time.After(500 * time.Millisecond):
		}
	}
}

// assembleCatalog fetches every shard's catalog and validates the fleet:
// one K everywhere, every replica of a shard serving the same slice, and —
// when shard snapshots carry their SHRD identity — each shard in its
// configured position, the full fleet present, and the global target
// offsets consistent with the concatenation order.
func (rt *Router) assembleCatalog(ctx context.Context) (*fleetCatalog, error) {
	resps := make([]*client.TargetsResponse, len(rt.sets))
	errs := make([]error, len(rt.sets))
	var wg sync.WaitGroup
	for i, ss := range rt.sets {
		wg.Add(1)
		go func(i int, ss *shardSet) {
			defer wg.Done()
			resps[i], errs[i] = ss.catalog(ctx, rt.cfg.Retry)
		}(i, ss)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d (%s): fetching targets: %w", i, rt.sets[i].addrs(), err)
		}
	}
	cat := &fleetCatalog{k: resps[0].K}
	targetBase := 0
	for i, resp := range resps {
		if resp.K != cat.k {
			return nil, fmt.Errorf("shard %d (%s): seed length K=%d, shard 0 has K=%d — mixed-K fleet", i, rt.sets[i].addrs(), resp.K, cat.k)
		}
		if meta := resp.Shard; meta != nil {
			if meta.ID != i {
				return nil, fmt.Errorf("shard %d (%s): snapshot says shard id %d — fleet out of order", i, rt.sets[i].addrs(), meta.ID)
			}
			if meta.Count != len(rt.sets) {
				return nil, fmt.Errorf("shard %d (%s): snapshot says %d shards, router has %d", i, rt.sets[i].addrs(), meta.Count, len(rt.sets))
			}
			if meta.TargetBase != targetBase {
				return nil, fmt.Errorf("shard %d (%s): snapshot says target base %d, concatenation expects %d", i, rt.sets[i].addrs(), meta.TargetBase, targetBase)
			}
		}
		for _, t := range resp.Targets {
			cat.refs = append(cat.refs, seqio.SAMRef{Name: t.Name, Len: t.Length})
			cat.targets = append(cat.targets, t)
		}
		targetBase += len(resp.Targets)
	}
	return cat, nil
}

// health is one replica's readiness probe loop. Probes gate traffic: they
// bias selection (class) and walk the replica's circuit breaker back from
// open through half-open to closed.
func (rt *Router) health(rep *replica) {
	defer rt.bg.Done()
	probe := func() {
		ctx, cancel := context.WithTimeout(rt.baseCtx, rt.cfg.HealthInterval)
		rep.noteProbe(rep.cl.Ready(ctx) == nil, rt.Logger)
		cancel()
	}
	probe()
	tick := time.NewTicker(rt.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.baseCtx.Done():
			return
		case <-tick.C:
			probe()
		}
	}
}

// scatter is the coalescer's fleet call: fan the batch to one replica of
// every shard (with failover and hedging inside alignSet), apply the
// degraded policy, merge.
func (rt *Router) scatter(ctx context.Context, reads []meraligner.Seq) (*gather, error) {
	req := client.AlignRequest{Reads: client.FromSeqs(reads)}
	resps := make([]*client.AlignResponse, len(rt.sets))
	errs := make([]error, len(rt.sets))
	callLists := make([][]rpcCall, len(rt.sets))
	var wg sync.WaitGroup
	for i, ss := range rt.sets {
		wg.Add(1)
		go func(i int, ss *shardSet) {
			defer wg.Done()
			resps[i], callLists[i], errs[i] = rt.alignSet(ctx, ss, req, len(reads))
		}(i, ss)
	}
	wg.Wait()
	var failed []ShardFailure
	for i, err := range errs {
		if err != nil {
			failed = append(failed, ShardFailure{ID: i, Addr: rt.sets[i].addrs(), Err: err})
		}
	}
	var degraded []string
	if len(failed) > 0 {
		if rt.cfg.Degraded != DegradedPartial || len(failed) == len(rt.sets) {
			return nil, &ShardError{Failed: failed}
		}
		for _, f := range failed {
			degraded = append(degraded, f.Addr)
		}
	}
	var calls []rpcCall
	for _, cl := range callLists {
		calls = append(calls, cl...)
	}
	g := &gather{results: mergeResults(reads, resps), degraded: degraded, calls: calls}
	if sc, ok := telemetry.SpanContextFrom(ctx); ok {
		g.carrier = sc.RequestID()
	}
	return g, nil
}

// ---- HTTP handlers ----

func (rt *Router) handleAlign(w http.ResponseWriter, r *http.Request) {
	cat := rt.cat.Load()
	if cat == nil {
		rt.warming(w, r)
		return
	}
	rt.front.Align(w, r, cat.k, func(w http.ResponseWriter, r *http.Request, reads []meraligner.Seq, win *coalesce.Window[*gather]) {
		results := win.Result.results[win.Lo:win.Hi]
		degraded := win.Result.degraded
		if len(degraded) > 0 {
			rt.st.degradedServed.Add(1)
		}
		if !service.WantsSAM(r) {
			service.WriteJSON(w, r, http.StatusOK, &client.AlignResponse{Reads: results, DegradedShards: degraded})
			return
		}
		w.Header().Set("Content-Type", "text/x-sam")
		body, finish := service.MaybeGzip(w, r)
		var comments []string
		if len(degraded) > 0 {
			comments = append(comments, degradedComment(degraded))
		}
		if werr := writeSAM(body, cat.refs, reads, results, comments); werr == nil {
			_ = finish()
		}
	})
}

// degradedComment is the @CO annotation of a partial SAM response.
func degradedComment(degraded []string) string {
	return "degraded: results missing from shard(s) " + strings.Join(degraded, ", ")
}

// shardStatus is the router's own failure status: a lost shard (fail
// policy, or every shard under partial) is a counted 502 naming it.
func (rt *Router) shardStatus(err error) (int, string) {
	var se *ShardError
	if !errors.As(err, &se) {
		return 0, ""
	}
	rt.st.failedRequests.Add(1)
	return http.StatusBadGateway, se.Error()
}

// warming answers 503 with a Retry-After while the fleet catalog is not yet
// assembled.
func (rt *Router) warming(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Retry-After", service.RetryAfter)
	msg := "warming: fleet catalog not ready"
	if note := rt.warmNote.Load(); note != nil {
		msg = "warming: " + *note
	}
	service.WriteError(w, r, http.StatusServiceUnavailable, &client.ErrorResponse{Error: msg})
}

// Stats renders the live RouterStats document (the /v1/stats body), also
// available in-process for embedders and benchmarks.
func (rt *Router) Stats() client.RouterStats {
	st := client.RouterStats{
		Version:        rt.cfg.Version,
		Draining:       rt.Draining(),
		Degraded:       rt.cfg.Degraded,
		FrontStats:     rt.front.Stats(),
		DegradedServed: rt.st.degradedServed.Load(),
		FailedRequests: rt.st.failedRequests.Load(),
		Failovers:      rt.st.failovers.Load(),
		Hedges:         rt.st.hedges.Load(),
		HedgeWins:      rt.st.hedgeWins.Load(),
	}
	if cat := rt.cat.Load(); cat != nil {
		st.Ready = true
		st.K = cat.k
	}
	st.Shards = make([]client.ShardStatus, len(rt.sets))
	for i, ss := range rt.sets {
		st.Shards[i] = ss.status()
	}
	return st
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, r, http.StatusOK, rt.Stats())
}

func (rt *Router) handleTargets(w http.ResponseWriter, r *http.Request) {
	cat := rt.cat.Load()
	if cat == nil {
		rt.warming(w, r)
		return
	}
	service.WriteJSON(w, r, http.StatusOK, &client.TargetsResponse{K: cat.k, Targets: cat.targets})
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case rt.AnswerDraining(w):
	case rt.cat.Load() == nil:
		w.WriteHeader(http.StatusServiceUnavailable)
		msg := "warming\n"
		if note := rt.warmNote.Load(); note != nil {
			msg = "warming: " + *note + "\n"
		}
		io.WriteString(w, msg)
	default:
		io.WriteString(w, "ready\n")
	}
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	body, finish := service.MaybeGzip(w, r)
	shardLat := make([]telemetry.HistSnapshot, len(rt.sets))
	for i, ss := range rt.sets {
		shardLat[i] = ss.lat.Snapshot()
	}
	writeMetrics(body, rt.Stats(), rt.front, shardLat)
	_ = finish()
}
