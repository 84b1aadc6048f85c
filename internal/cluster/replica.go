package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
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
//   - per-replica circuit breakers: BreakerThreshold consecutive failed
//     attempts open a replica's breaker and take it out of selection; the
//     /readyz prober walks it back (open → half-open → closed), so probes
//     gate traffic instead of only feeding a gauge;
//   - one attempt ladder per shard RPC, across its replicas (alignSet):
//     each rung goes to the best replica not yet tried in the pass, so a
//     failure fails over at once; the ladder backs off only after every
//     replica has failed in the pass, and Retry.MaxAttempts bounds the
//     rungs of the whole RPC. Optionally (HedgeAfter) a slow rung has the
//     next one start early on another replica, first response winning and
//     the loser canceled.

// Circuit breaker states of one replica. The wire spelling (ReplicaStatus
// .State, merrouted_replica_state) is client.BreakerClosed and friends.
const (
	breakerClosed   int32 = iota // healthy: taking traffic
	breakerHalfOpen              // probation: probes recovered, trial traffic allowed
	breakerOpen                  // failing: out of selection until probes recover
)

// breakerNames maps a breaker state to its wire spelling.
var breakerNames = [...]string{breakerClosed: client.BreakerClosed, breakerHalfOpen: client.BreakerHalfOpen, breakerOpen: client.BreakerOpen}

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
	retries  atomic.Int64   // attempts that were not their shard RPC's first
	errors   atomic.Int64   // failed attempts (canceled ones excluded)
	inflight atomic.Int64   // attempts in flight
	lat      telemetry.Hist // per-attempt wall time
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

// noteFailure advances the breaker on one failed attempt: threshold
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

// shardSet is one reference shard's replica set.
type shardSet struct {
	id int
	// name is the replica addresses in the configured "a|b" spelling — the
	// shard's name in errors, degraded annotations and metrics labels; a
	// one-replica set's is its bare address, as an un-replicated fleet's.
	name     string
	replicas []*replica
	lat      telemetry.Hist // per-attempt wall time across the whole set
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
		Addr:      ss.name,
		CallP50Ms: ss.lat.Quantile(0.50) / 1e6,
		CallP99Ms: ss.lat.Quantile(0.99) / 1e6,
	}
	st.Replicas = make([]client.ReplicaStatus, len(ss.replicas))
	for i, rep := range ss.replicas {
		rs := client.ReplicaStatus{
			Addr:      rep.addr,
			State:     breakerNames[rep.state.Load()],
			Up:        rep.up.Load(),
			Calls:     rep.calls.Load(),
			Retries:   rep.retries.Load(),
			Errors:    rep.errors.Load(),
			Inflight:  rep.inflight.Load(),
			CallP50Ms: rep.lat.Quantile(0.50) / 1e6,
			CallP99Ms: rep.lat.Quantile(0.99) / 1e6,
		}
		st.Replicas[i] = rs
		st.Calls += rs.Calls
		st.Retries += rs.Retries
		st.Errors += rs.Errors
		st.Inflight += rs.Inflight
		st.Up = st.Up || rs.Up
	}
	return st
}

// rungFloor is the least remaining call deadline in which a ladder starts
// a rung, or sleeps a backoff before one: less cannot answer in time.
const rungFloor = 5 * time.Millisecond

// errNoTime ends a ladder whose call deadline leaves no room for another
// rung: the caller's budget is spent, not the shard.
var errNoTime = fmt.Errorf("call deadline too close for another attempt: %w", context.DeadlineExceeded)

// room is nil while ctx leaves d plus rungFloor before its deadline;
// otherwise errNoTime, or ctx's own error once it is canceled.
func room(ctx context.Context, d time.Duration) error {
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d+rungFloor {
		return errNoTime
	}
	return ctx.Err()
}

// rung is one attempt of a shard RPC's ladder: its answer and its rpc span.
type rung struct {
	resp *client.AlignResponse
	call rpcCall
}

// alignSet runs one shard RPC's attempt ladder. A pass tries each replica
// once, best first; after an all-failed pass the ladder backs off
// (Retry.Backoff of the pass, honouring the pass's largest Retry-After)
// unless the latest failure is not retryable, and the next pass starts on
// another replica than the last to fail. The first success wins and
// cancels the rest; calls records every rung that ended, for the trace.
func (rt *Router) alignSet(ctx context.Context, ss *shardSet, req client.AlignRequest, wantReads int) (*client.AlignResponse, []rpcCall, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // a winner's losers, and rungs an error leaves running
	pol := rt.cfg.Retry
	maxRungs := cmp.Or(max(pol.MaxAttempts, 0), client.DefaultRetryPolicy().MaxAttempts)
	ended := make(chan rung, maxRungs) // never blocks a rung the ladder left
	tried := make(map[*replica]bool, len(ss.replicas))
	var (
		calls          []rpcCall
		failures       []error
		last           *replica      // replica of the latest failed rung
		hint           time.Duration // largest Retry-After of the pass
		retry          = true        // the latest failure allows a new pass
		pass           = 1
		rungs, running int
		hedgeC         <-chan time.Time
	)
	start := func(rep *replica, hedged bool) {
		tried[rep] = true
		go func(i int) { ended <- rt.attempt(ctx, ss, rep, req, wantReads, i, hedged) }(rungs)
		rungs++
		running++
		if rt.cfg.HedgeAfter > 0 && len(ss.replicas) > 1 {
			hedgeC = time.After(rt.cfg.HedgeAfter)
		}
	}
	fail := func(err error) (*client.AlignResponse, []rpcCall, error) {
		return nil, calls, errors.Join(append(failures, err)...)
	}
	for {
		if running == 0 {
			rep := ss.pick(tried)
			switch {
			case rungs == maxRungs, rep == nil && !retry:
				return fail(nil)
			case rep == nil: // every replica failed in this pass
				d := pol.Backoff(pass, hint)
				if err := room(ctx, d); err != nil {
					return fail(err)
				}
				select {
				case <-ctx.Done():
					return fail(ctx.Err())
				case <-time.After(d):
				}
				pass, hint = pass+1, 0
				clear(tried)
				tried[last] = len(ss.replicas) > 1
				rep = ss.pick(tried)
				delete(tried, last)
			case rungs == 0:
				rt.st.primaries.Add(1)
			default: // another replica of the same pass
				rt.st.failovers.Add(1)
			}
			if err := room(ctx, 0); err != nil {
				return fail(err)
			}
			start(rep, false)
		}
		select {
		case r := <-ended:
			running--
			calls = append(calls, r.call)
			if r.call.err == nil {
				if r.call.hedged {
					rt.st.hedgeWins.Add(1)
				}
				return r.resp, calls, nil
			}
			failures = append(failures, fmt.Errorf("replica %d (%s): %w", r.call.replica, r.call.addr, r.call.err))
			last = ss.replicas[r.call.replica]
			if h, ok := client.RetryAfterHint(r.call.err); ok {
				hint = max(hint, h)
			}
			retry = client.Retryable(ctx, r.call.err)
		case <-hedgeC:
			if running == 0 || rungs == maxRungs || room(ctx, 0) != nil || !rt.hedgeAllowed() {
				break
			}
			if rep := ss.pick(tried); rep != nil {
				rt.st.hedges.Add(1)
				start(rep, true)
			}
		case <-ctx.Done():
			return fail(ctx.Err())
		}
	}
}

// attempt runs rung idx of a shard RPC on rep: one align call under the
// attempt timeout, counted into the replica's and the set's counters. A
// failed rung charges the replica's breaker and errors; a canceled one (a
// hedge loser, a caller that left) is no evidence against it.
func (rt *Router) attempt(ctx context.Context, ss *shardSet, rep *replica, req client.AlignRequest, wantReads, idx int, hedged bool) rung {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	rep.calls.Add(1)
	if idx > 0 {
		rep.retries.Add(1)
	}
	actx, cancel := context.WithTimeout(ctx, rt.cfg.Retry.AttemptTimeout)
	defer cancel()
	t0 := time.Now()
	resp, err := rep.cl.Align(actx, req)
	dur := time.Since(t0)
	rep.lat.Observe(dur.Nanoseconds())
	ss.lat.Observe(dur.Nanoseconds())
	if err == nil && len(resp.Reads) != wantReads {
		// A replica answering for a different batch shape is as lost as an
		// unreachable one — its data cannot be trusted into a merge.
		err = fmt.Errorf("protocol violation: %d results for %d reads", len(resp.Reads), wantReads)
		resp = nil
	}
	switch {
	case err == nil:
		rep.noteSuccess(rt.Logger)
	case ctx.Err() == nil || !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
		rep.errors.Add(1)
		rep.noteFailure(rt.cfg.BreakerThreshold, rt.Logger, err)
	}
	return rung{resp: resp, call: rpcCall{
		shard: ss.id, replica: rep.idx, addr: rep.addr,
		start: t0, dur: dur, rung: idx, err: err, hedged: hedged,
	}}
}

// hedgeAllowed enforces the hedging budget: hedges may be at most ~10% of
// shard RPCs, plus a small burst so a cold router can still hedge.
// An unbounded hedge rate would double fleet load exactly when the fleet
// is slow — the moment it can least afford it.
func (rt *Router) hedgeAllowed() bool {
	return rt.st.hedges.Load() < rt.st.primaries.Load()/10+8
}
