package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"time"

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// Replica sets and fault tolerance. Each reference shard may be served by
// N interchangeable backends ("-shards a1|a2,b1|b2"); a scatter sends each
// shard's RPC to one healthy replica and the shard is lost only when every
// replica of it is. Three mechanisms keep the RPC away from bad replicas
// and bound its tail:
//
//   - selection: power-of-two-choices on in-flight count among the
//     healthiest breaker class (closed+up first, then closed, then
//     half-open, then — as a last resort, so a fully-tripped shard can
//     still recover through traffic — open);
//   - per-replica circuit breakers: BreakerThreshold consecutive failures
//     open a replica's breaker and take it out of selection; the /readyz
//     prober walks it back (open → half-open → closed), so probes gate
//     traffic instead of only feeding a gauge;
//   - failover and hedging: each replica tried runs the whole retry
//     ladder (Retry.MaxAttempts attempts with backoff between them, see
//     replica.align); only when that ladder ends in failure does the RPC
//     move to the next untried replica. Optionally (HedgeAfter) a slow
//     replica is raced against a second one, first response winning and
//     the loser canceled.

// Circuit breaker states of one replica. The wire spelling (ReplicaStatus
// .State, merrouted_replica_state) is client.BreakerClosed and friends.
const (
	breakerClosed   int32 = iota // healthy: taking traffic
	breakerHalfOpen              // probation: probes recovered, trial traffic allowed
	breakerOpen                  // failing: out of selection until probes recover
)

// breakerStateName maps a breaker state to its wire spelling.
func breakerStateName(s int32) string {
	switch s {
	case breakerHalfOpen:
		return client.BreakerHalfOpen
	case breakerOpen:
		return client.BreakerOpen
	default:
		return client.BreakerClosed
	}
}

// replica is one backend of one shard: its client, circuit breaker, and
// live counters.
type replica struct {
	shard int // owning shard's id
	idx   int // position within the replica set
	addr  string
	cl    *client.Client

	state       atomic.Int32 // breaker state (breaker* constants)
	consecFails atomic.Int32 // consecutive terminal failures

	up       atomic.Bool    // last readiness probe succeeded
	calls    atomic.Int64   // RPC attempts issued
	retries  atomic.Int64   // attempts beyond a call's first
	errors   atomic.Int64   // calls that exhausted their retries
	inflight atomic.Int64   // calls in flight
	lat      telemetry.Hist // per-attempt wall time
}

// align runs one align RPC against the replica under the retry policy,
// counting every attempt into the replica's and the owning set's
// histograms.
func (rep *replica) align(ctx context.Context, pol client.RetryPolicy, req client.AlignRequest, set *shardSet) (resp *client.AlignResponse, attempts int, err error) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	err = pol.Do(ctx, func(actx context.Context) error {
		attempts++
		if attempts > 1 {
			rep.retries.Add(1)
		}
		rep.calls.Add(1)
		t0 := time.Now()
		r, rerr := rep.cl.Align(actx, req)
		ns := time.Since(t0).Nanoseconds()
		rep.lat.Observe(ns)
		set.lat.Observe(ns)
		if rerr != nil {
			return rerr
		}
		resp = r
		return nil
	})
	if err != nil {
		return nil, attempts, err
	}
	return resp, attempts, nil
}

// noteSuccess resets the failure streak and closes the breaker from any
// state: a served request is better evidence than any probe.
func (rep *replica) noteSuccess(lg *slog.Logger) {
	rep.consecFails.Store(0)
	if old := rep.state.Swap(breakerClosed); old != breakerClosed {
		lg.Info("breaker closed", "shard", rep.shard, "replica", rep.idx, "addr", rep.addr,
			"cause", "request succeeded")
	}
}

// noteFailure advances the breaker on one terminal RPC failure: threshold
// consecutive failures open it from closed, and any failure during the
// half-open probation re-opens it. threshold <= 0 disables breakers.
func (rep *replica) noteFailure(threshold int, lg *slog.Logger, cause error) {
	fails := rep.consecFails.Add(1)
	if threshold <= 0 {
		return
	}
	switch rep.state.Load() {
	case breakerClosed:
		if int(fails) >= threshold && rep.state.CompareAndSwap(breakerClosed, breakerOpen) {
			lg.Warn("breaker open", "shard", rep.shard, "replica", rep.idx, "addr", rep.addr,
				"consecutive_failures", fails, "error", cause.Error())
		}
	case breakerHalfOpen:
		if rep.state.CompareAndSwap(breakerHalfOpen, breakerOpen) {
			lg.Warn("breaker open", "shard", rep.shard, "replica", rep.idx, "addr", rep.addr,
				"cause", "half-open trial failed", "error", cause.Error())
		}
	}
}

// noteProbe advances the breaker on one readiness probe: a probe success
// moves open to half-open and half-open to closed (the prober is what
// walks a tripped replica back into rotation); a probe failure re-opens a
// half-open breaker.
func (rep *replica) noteProbe(ok bool, lg *slog.Logger) {
	if rep.up.Swap(ok) != ok {
		if ok {
			lg.Info("replica up", "shard", rep.shard, "replica", rep.idx, "addr", rep.addr)
		} else {
			lg.Warn("replica down", "shard", rep.shard, "replica", rep.idx, "addr", rep.addr)
		}
	}
	if ok {
		switch {
		case rep.state.CompareAndSwap(breakerOpen, breakerHalfOpen):
			lg.Info("breaker half-open", "shard", rep.shard, "replica", rep.idx, "addr", rep.addr,
				"cause", "readiness probe succeeded")
		case rep.state.CompareAndSwap(breakerHalfOpen, breakerClosed):
			rep.consecFails.Store(0)
			lg.Info("breaker closed", "shard", rep.shard, "replica", rep.idx, "addr", rep.addr,
				"cause", "readiness probe succeeded")
		}
	} else if rep.state.CompareAndSwap(breakerHalfOpen, breakerOpen) {
		lg.Warn("breaker open", "shard", rep.shard, "replica", rep.idx, "addr", rep.addr,
			"cause", "readiness probe failed")
	}
}

// class ranks a replica for selection; lower is better.
func (rep *replica) class() int {
	switch rep.state.Load() {
	case breakerOpen:
		return 3
	case breakerHalfOpen:
		if rep.inflight.Load() > 0 {
			// Probation admits one trial at a time; a busy half-open
			// replica ranks with open ones.
			return 3
		}
		return 2
	default:
		if rep.up.Load() {
			return 0
		}
		return 1
	}
}

// status renders the replica's wire status.
func (rep *replica) status() client.ReplicaStatus {
	return client.ReplicaStatus{
		Addr:      rep.addr,
		State:     breakerStateName(rep.state.Load()),
		Up:        rep.up.Load(),
		Calls:     rep.calls.Load(),
		Retries:   rep.retries.Load(),
		Errors:    rep.errors.Load(),
		Inflight:  rep.inflight.Load(),
		CallP50Ms: rep.lat.Quantile(0.50) / 1e6,
		CallP99Ms: rep.lat.Quantile(0.99) / 1e6,
	}
}

// shardSet is one reference shard's replica set.
type shardSet struct {
	id       int
	replicas []*replica
	lat      telemetry.Hist // per-attempt wall time across the whole set
}

// addrs renders the set's addresses in the configured "a|b" spelling — the
// shard's name in errors, degraded annotations, and metrics labels. A
// single-replica set renders as the bare address, preserving the
// un-replicated fleet's output byte-for-byte.
func (ss *shardSet) addrs() string {
	if len(ss.replicas) == 1 {
		return ss.replicas[0].addr
	}
	parts := make([]string, len(ss.replicas))
	for i, rep := range ss.replicas {
		parts[i] = rep.addr
	}
	return strings.Join(parts, "|")
}

// pick selects the replica for the next attempt: the best breaker class
// among the not-yet-tried replicas, power-of-two-choices on in-flight
// count within the class. nil when every replica has been tried.
func (ss *shardSet) pick(tried map[*replica]bool) *replica {
	var cands []*replica
	best := int(^uint(0) >> 1)
	for _, rep := range ss.replicas {
		if tried[rep] {
			continue
		}
		switch c := rep.class(); {
		case c < best:
			best = c
			cands = append(cands[:0], rep)
		case c == best:
			cands = append(cands, rep)
		}
	}
	switch len(cands) {
	case 0:
		return nil
	case 1:
		return cands[0]
	}
	i := rand.IntN(len(cands))
	j := rand.IntN(len(cands) - 1)
	if j >= i {
		j++
	}
	if cands[j].inflight.Load() < cands[i].inflight.Load() {
		return cands[j]
	}
	return cands[i]
}

// catalog fetches the shard's reference catalog from each replica once
// (warmup path; not counted as align traffic). The first answer becomes
// the set's catalog and every later answer must equal it: replicas are
// interchangeable by contract, and one holding the wrong slice would
// silently corrupt merges after a failover. Unreachable replicas pass —
// they may still be starting, and the breaker keeps traffic away until
// they prove themselves — as long as one replica answers.
func (ss *shardSet) catalog(ctx context.Context, pol client.RetryPolicy) (*client.TargetsResponse, error) {
	var want *client.TargetsResponse
	var lastErr error
	for _, rep := range ss.replicas {
		var got *client.TargetsResponse
		err := pol.Do(ctx, func(actx context.Context) error {
			r, rerr := rep.cl.Targets(actx)
			got = r
			return rerr
		})
		switch {
		case err != nil:
			lastErr = fmt.Errorf("replica %d (%s): %w", rep.idx, rep.addr, err)
		case want == nil:
			want = got
		case got.K != want.K || len(got.Targets) != len(want.Targets):
			return nil, fmt.Errorf("replica %d (%s): serves K=%d with %d targets, set expects K=%d with %d — replicas of one shard must serve the same snapshot",
				rep.idx, rep.addr, got.K, len(got.Targets), want.K, len(want.Targets))
		default:
			for j := range got.Targets {
				if got.Targets[j] != want.Targets[j] {
					return nil, fmt.Errorf("replica %d (%s): target %d is %q (len %d), set expects %q (len %d) — replicas of one shard must serve the same snapshot",
						rep.idx, rep.addr, j, got.Targets[j].Name, got.Targets[j].Length, want.Targets[j].Name, want.Targets[j].Length)
				}
			}
		}
	}
	if want == nil {
		return nil, lastErr
	}
	return want, nil
}

// status renders the set's wire status: per-replica detail plus the
// aggregate counters a single-backend dashboard already reads.
func (ss *shardSet) status() client.ShardStatus {
	st := client.ShardStatus{
		ID:        ss.id,
		Addr:      ss.addrs(),
		CallP50Ms: ss.lat.Quantile(0.50) / 1e6,
		CallP99Ms: ss.lat.Quantile(0.99) / 1e6,
	}
	st.Replicas = make([]client.ReplicaStatus, len(ss.replicas))
	for i, rep := range ss.replicas {
		rs := rep.status()
		st.Replicas[i] = rs
		st.Calls += rs.Calls
		st.Retries += rs.Retries
		st.Errors += rs.Errors
		st.Inflight += rs.Inflight
		st.Up = st.Up || rs.Up
	}
	return st
}

// attemptResult is one replica attempt's outcome inside alignSet.
type attemptResult struct {
	rep   *replica
	resp  *client.AlignResponse
	call  rpcCall
	err   error
	hedge bool
}

// alignSet runs one shard's RPC with failover and optional hedging: launch
// an attempt on the best replica; on failure, fail over to the next
// untried replica; after cfg.HedgeAfter with no answer (and budget left),
// race a second replica. The first success wins and cancels the rest. The
// returned calls list records every attempt for the request trace. An
// error means every replica of the shard failed (or ctx died first).
func (rt *Router) alignSet(ctx context.Context, ss *shardSet, req client.AlignRequest, wantReads int) (*client.AlignResponse, []rpcCall, error) {
	results := make(chan attemptResult, len(ss.replicas))
	tried := make(map[*replica]bool, len(ss.replicas))
	var cancels []context.CancelFunc
	cancelAll := func() {
		for _, c := range cancels {
			c()
		}
	}
	defer cancelAll()

	outstanding := 0
	launch := func(hedge bool) bool {
		rep := ss.pick(tried)
		if rep == nil {
			return false
		}
		tried[rep] = true
		outstanding++
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		go func() {
			t0 := time.Now()
			resp, attempts, err := rep.align(actx, rt.cfg.Retry, req, ss)
			if err == nil && len(resp.Reads) != wantReads {
				// A replica answering for a different batch shape is as
				// lost as an unreachable one — its data cannot be trusted
				// into a merge.
				err = fmt.Errorf("protocol violation: %d results for %d reads", len(resp.Reads), wantReads)
				resp = nil
			}
			if err == nil {
				rep.noteSuccess(rt.Logger)
			} else if actx.Err() == nil || !isCtxErr(err) {
				// A canceled attempt (hedge loser, client gone) is not
				// evidence against the replica; everything else is.
				rep.errors.Add(1)
				rep.noteFailure(rt.cfg.BreakerThreshold, rt.Logger, err)
			}
			results <- attemptResult{
				rep:  rep,
				resp: resp,
				err:  err,
				call: rpcCall{
					shard: ss.id, replica: rep.idx, addr: rep.addr,
					start: t0, dur: time.Since(t0), attempts: attempts, err: err, hedged: hedge,
				},
				hedge: hedge,
			}
		}()
		return true
	}
	launch(false)
	rt.st.primaries.Add(1)

	var hedgeC <-chan time.Time
	if rt.cfg.HedgeAfter > 0 && len(ss.replicas) > 1 {
		timer := time.NewTimer(rt.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}

	var calls []rpcCall
	var failures []error
	for outstanding > 0 {
		select {
		case res := <-results:
			outstanding--
			calls = append(calls, res.call)
			if res.err == nil {
				if res.hedge {
					rt.st.hedgeWins.Add(1)
				}
				cancelAll() // losers see their ctx die and do not re-merge
				return res.resp, calls, nil
			}
			failures = append(failures, fmt.Errorf("replica %d (%s): %w", res.rep.idx, res.rep.addr, res.err))
			if outstanding == 0 && ctx.Err() == nil && launch(false) {
				rt.st.failovers.Add(1)
			}
		case <-hedgeC:
			hedgeC = nil
			if rt.hedgeAllowed() && launch(true) {
				rt.st.hedges.Add(1)
			}
		case <-ctx.Done():
			cancelAll()
			// Outstanding attempts resolve into the buffered channel and
			// their goroutines exit; nothing leaks.
			return nil, calls, ctx.Err()
		}
	}
	return nil, calls, errors.Join(failures...)
}

// hedgeAllowed enforces the hedging budget: hedges may be at most ~10% of
// primary attempts, plus a small burst so a cold router can still hedge.
// An unbounded hedge rate would double fleet load exactly when the fleet
// is slow — the moment it can least afford it.
func (rt *Router) hedgeAllowed() bool {
	return rt.st.hedges.Load() < rt.st.primaries.Load()/10+8
}

// isCtxErr reports whether err is a context cancellation/expiry
// (possibly wrapped by the HTTP transport).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
