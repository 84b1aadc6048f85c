package cluster

// Chaos e2e suite: the fault-tolerance acceptance tests. A replicated real
// fleet (each shard served by N merserved instances behind faultinject
// proxies) is driven through replica kills, circuit-breaker cycles, slow
// replicas with hedging, and deadline rejection, asserting the tentpole
// property the whole tier exists for: a client behind the router sees
// byte-identical SAM and zero 5xx as long as one replica of every shard
// survives.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/faultinject"
	"github.com/lbl-repro/meraligner/internal/service"
)

// chaosFleet serves every shard fixture index behind nReplicas independent
// service instances, each fronted by its own faultinject proxy. Returns the
// router shard specs ("http://pA|http://pB") and the proxies indexed
// [shard][replica], so tests can fault any replica individually.
func chaosFleet(t *testing.T, nReplicas int) ([]string, [][]*faultinject.Proxy) {
	t.Helper()
	fixture(t)
	specs := make([]string, len(fixShards))
	proxies := make([][]*faultinject.Proxy, len(fixShards))
	for i, sa := range fixShards {
		parts := make([]string, 0, nReplicas)
		for r := 0; r < nReplicas; r++ {
			srv, err := service.New(service.Config{Aligner: sa, Query: queryOpts(), Workers: 2, Version: "test"})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			t.Cleanup(func() {
				ts.Close()
				srv.Close()
			})
			u, err := url.Parse(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			p, err := faultinject.New(u.Host, uint64(1000+i*10+r))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(p.Close)
			parts = append(parts, "http://"+p.Addr())
			proxies[i] = append(proxies[i], p)
		}
		specs[i] = strings.Join(parts, "|")
	}
	return specs, proxies
}

// killReplica makes a replica's proxy behave like a killed process: every
// new connection is reset and every in-flight one aborted.
func killReplica(p *faultinject.Proxy) {
	p.SetErrorRate(1)
	p.KillActive()
}

func healReplica(p *faultinject.Proxy) { p.SetErrorRate(0) }

// TestChaosReplicaKillByteIdenticalSAM is the acceptance test of the
// replica tier: with 2 replicas per shard, killing any single replica
// mid-batch yields byte-identical SAM with zero 5xx, for every choice of
// victim shard.
func TestChaosReplicaKillByteIdenticalSAM(t *testing.T) {
	specs, proxies := chaosFleet(t, 2)
	single := newSingle(t)
	rt, rts := newRouter(t, specs, func(c *Config) {
		c.HedgeAfter = 25 * time.Millisecond
	})
	waitReady(t, rt)

	reads := fixReads[:24]
	wantCode, want := post(t, single.URL, reads, "text/x-sam")
	if wantCode != http.StatusOK {
		t.Fatalf("oracle status = %d", wantCode)
	}

	const inflight = 4
	for shard := range proxies {
		victim := proxies[shard][0]
		codes := make([]int, inflight)
		bodies := make([][]byte, inflight)
		var wg sync.WaitGroup
		for g := 0; g < inflight; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				codes[g], bodies[g] = post(t, rts.URL, reads, "text/x-sam")
			}(g)
		}
		// Kill the victim while the batch is (likely) in flight; the exact
		// interleaving does not matter — every outcome must be a clean 200.
		time.Sleep(5 * time.Millisecond)
		killReplica(victim)
		wg.Wait()
		for g := 0; g < inflight; g++ {
			if codes[g] != http.StatusOK {
				t.Fatalf("shard %d victim: request %d = %d (want zero non-200s), body %s",
					shard, g, codes[g], bodies[g])
			}
			if !bytes.Equal(bodies[g], want) {
				t.Fatalf("shard %d victim: request %d SAM differs from single node\nrouter:\n%s\nsingle:\n%s",
					shard, g, bodies[g], want)
			}
		}
		// And with the replica still dead, fresh requests keep succeeding on
		// the survivor.
		code, got := post(t, rts.URL, reads, "text/x-sam")
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("shard %d victim dead: followup = %d, identical = %v", shard, code, bytes.Equal(got, want))
		}
		// The router must have noticed the kill one way or the other: a
		// request hit the dead replica and failed over, or the prober marked
		// it down before any did. Which of the two is up to the schedule
		// (TestChaosBreakerOpensAndCloses pins failover counting itself).
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := rt.Stats()
			if st.Failovers > 0 || !st.Shards[shard].Replicas[0].Up {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d victim dead: neither a failover nor a down replica observed: %+v", shard, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
		healReplica(victim)
	}
}

// TestChaosAllReplicasOfShardDead: -degraded semantics move to the replica
// set — the partial policy annotates a shard only when every replica of it
// is gone.
func TestChaosAllReplicasOfShardDead(t *testing.T) {
	specs, proxies := chaosFleet(t, 2)
	rt, rts := newRouter(t, specs, func(c *Config) { c.Degraded = DegradedPartial })
	waitReady(t, rt)

	// One replica down: NOT degraded.
	killReplica(proxies[1][0])
	code, body := post(t, rts.URL, fixReads[:4], "application/json")
	if code != http.StatusOK {
		t.Fatalf("one replica down: status = %d, body %s", code, body)
	}
	var resp client.AlignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.DegradedShards) != 0 {
		t.Fatalf("one replica down marked degraded: %v", resp.DegradedShards)
	}

	// Both replicas down: the shard is lost, annotated under its "a|b" name.
	killReplica(proxies[1][1])
	code, body = post(t, rts.URL, fixReads[:4], "application/json")
	if code != http.StatusOK {
		t.Fatalf("shard dead under partial policy: status = %d, body %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.DegradedShards) != 1 || resp.DegradedShards[0] != specs[1] {
		t.Fatalf("degraded_shards = %v, want [%s]", resp.DegradedShards, specs[1])
	}
}

// chaosReplica is a controllable fake replica: align failures, readiness
// failures, and serving delay are all switchable at runtime, and canceled
// in-flight aligns are counted (the hedge-loser observation).
type chaosReplica struct {
	alignFail atomic.Bool
	readyFail atomic.Bool
	delay     atomic.Int64 // ns to hold an align before answering
	calls     atomic.Int64
	canceled  atomic.Int64
	ts        *httptest.Server
}

func newChaosReplica(t *testing.T) *chaosReplica {
	t.Helper()
	cr := &chaosReplica{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/targets", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(client.TargetsResponse{K: 4, Targets: []client.TargetInfo{{Name: "t0", Length: 100}}})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if cr.readyFail.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("POST /v1/align", func(w http.ResponseWriter, r *http.Request) {
		cr.calls.Add(1)
		var req client.AlignRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if d := time.Duration(cr.delay.Load()); d > 0 {
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				cr.canceled.Add(1)
				return
			}
		}
		if cr.alignFail.Load() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			io.WriteString(w, `{"error":"injected failure"}`+"\n")
			return
		}
		out := client.AlignResponse{Reads: make([]client.ReadResult, len(req.Reads))}
		for i, rd := range req.Reads {
			out.Reads[i] = client.ReadResult{Name: rd.Name, Status: client.StatusUnmapped}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
	cr.ts = httptest.NewServer(mux)
	t.Cleanup(cr.ts.Close)
	return cr
}

// replicaState reads one replica's breaker state out of the router stats.
func replicaState(rt *Router, shard, replica int) string {
	st := rt.Stats()
	if shard >= len(st.Shards) || replica >= len(st.Shards[shard].Replicas) {
		return ""
	}
	return st.Shards[shard].Replicas[replica].State
}

// TestChaosBreakerOpensAndCloses walks one replica's circuit breaker
// through a full cycle: a replica that answers readiness probes but fails
// every align (the classic degenerate-healthy failure) accumulates
// consecutive failures until its breaker opens; after it heals, the
// prober walks the breaker back (open → half-open → closed) and traffic
// returns to it. The caller-visible invariant holds throughout: every
// request is a 200, served by failover.
func TestChaosBreakerOpensAndCloses(t *testing.T) {
	rep0, rep1 := newChaosReplica(t), newChaosReplica(t)
	rep0.alignFail.Store(true)
	rt, rts := newRouter(t, []string{rep0.ts.URL + "|" + rep1.ts.URL}, func(c *Config) {
		c.BreakerThreshold = 3
		c.HealthInterval = 40 * time.Millisecond
	})
	waitReady(t, rt)

	reads := []meraligner.Seq{mkread("r", "ACGTACGT")}
	// Drive traffic until the breaker opens. Each request that picks rep0
	// first fails there and fails over to rep1; rep0's failure streak only
	// grows (it never serves a success), so the breaker must open. The
	// prober may transiently close it again (probes succeed: the replica
	// claims ready) — observing "open" at least once is the assertion.
	sawOpen := false
	deadline := time.Now().Add(10 * time.Second)
	for !sawOpen && time.Now().Before(deadline) {
		code, body := post(t, rts.URL, reads, "application/json")
		if code != http.StatusOK {
			t.Fatalf("request during breaker test = %d, body %s", code, body)
		}
		if replicaState(rt, 0, 0) == client.BreakerOpen {
			sawOpen = true
		}
	}
	if !sawOpen {
		t.Fatalf("breaker never opened; rep0 saw %d calls, stats %+v", rep0.calls.Load(), rt.Stats().Shards[0])
	}

	// While open (or cycling), the per-replica surfaces exist: metrics carry
	// the replica series and stats carry per-replica detail.
	mresp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`merrouted_replica_state{shard="0",replica="0",addr=`,
		`merrouted_replica_up{shard="0",replica="1",addr=`,
		`merrouted_replica_calls_total{shard="0",replica="0",addr=`,
		"merrouted_failovers_total",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mbody)
		}
	}
	if st := rt.Stats(); st.Failovers == 0 {
		t.Fatalf("failovers not counted: %+v", st)
	}

	// Heal. The prober closes the breaker and traffic returns: rep0 serves
	// a success again.
	rep0.alignFail.Store(false)
	servedBefore := rep0.calls.Load()
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, _ := post(t, rts.URL, reads, "application/json")
		if code != http.StatusOK {
			t.Fatalf("request after heal = %d", code)
		}
		if replicaState(rt, 0, 0) == client.BreakerClosed && rep0.calls.Load() > servedBefore {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("breaker never closed after heal: state %s, rep0 calls %d (was %d)",
		replicaState(rt, 0, 0), rep0.calls.Load(), servedBefore)
}

// TestChaosHedgeBeatsSlowReplicaAndCancelsLoser: a slow primary is raced
// against the second replica after HedgeAfter; the fast replica's answer
// wins and the slow attempt is canceled, so tail latency is the fast
// replica's, not the slow one's.
func TestChaosHedgeBeatsSlowReplicaAndCancelsLoser(t *testing.T) {
	slow, fast := newChaosReplica(t), newChaosReplica(t)
	slow.delay.Store(int64(2 * time.Second))
	// Keep the fast replica out of primary selection (probes failing ranks
	// it below the probed-up slow one) so the hedge path is deterministic:
	// primary = slow, hedge = fast.
	fast.readyFail.Store(true)
	rt, rts := newRouter(t, []string{slow.ts.URL + "|" + fast.ts.URL}, func(c *Config) {
		c.HedgeAfter = 25 * time.Millisecond
		c.Retry = client.RetryPolicy{MaxAttempts: 1, AttemptTimeout: 5 * time.Second}
	})
	waitReady(t, rt)

	reads := []meraligner.Seq{mkread("r", "ACGTACGT")}
	start := time.Now()
	code, body := post(t, rts.URL, reads, "application/json")
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("hedged request = %d, body %s", code, body)
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("hedged request took %s — the slow replica's latency leaked through", elapsed)
	}
	st := rt.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedge not counted: hedges=%d wins=%d", st.Hedges, st.HedgeWins)
	}
	// The loser was canceled, not left running to completion.
	deadline := time.Now().Add(3 * time.Second)
	for slow.canceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow replica's losing attempt was never canceled (calls=%d)", slow.calls.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Breaker discipline: a canceled hedge loser is not evidence against
	// the replica — its breaker must still be closed.
	if got := replicaState(rt, 0, 0); got != client.BreakerClosed {
		t.Fatalf("hedge loser's breaker = %s, want closed", got)
	}
}

// postWithDeadline is post() with an X-Deadline-Ms header attached.
func postWithDeadline(t *testing.T, url string, reads []meraligner.Seq, budgetMs int64) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(client.AlignRequest{Reads: client.FromSeqs(reads)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/align", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(client.HeaderDeadlineMs, strconv.FormatInt(budgetMs, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestChaosDeadlineAdmission: a request whose propagated deadline budget is
// below the router's admission floor is rejected up front with 503 and
// counted, instead of scattering doomed work; a comfortable budget passes.
func TestChaosDeadlineAdmission(t *testing.T) {
	rep := newChaosReplica(t)
	rt, rts := newRouter(t, []string{rep.ts.URL}, func(c *Config) {
		c.MinDeadline = 50 * time.Millisecond
	})
	waitReady(t, rt)

	reads := []meraligner.Seq{mkread("r", "ACGTACGT")}
	code, body := postWithDeadline(t, rts.URL, reads, 5)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("doomed request = %d, want 503; body %s", code, body)
	}
	if !strings.Contains(string(body), "doomed") {
		t.Fatalf("rejection body %s", body)
	}
	if rep.calls.Load() != 0 {
		t.Fatalf("doomed request still reached a replica (%d calls)", rep.calls.Load())
	}
	if st := rt.Stats(); st.DeadlineRejected != 1 {
		t.Fatalf("deadline_rejected = %d, want 1", st.DeadlineRejected)
	}

	code, body = postWithDeadline(t, rts.URL, reads, 5000)
	if code != http.StatusOK {
		t.Fatalf("well-budgeted request = %d, body %s", code, body)
	}

	mresp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "merrouted_deadline_rejected_total 1") {
		t.Fatalf("metrics missing deadline rejection counter:\n%s", mbody)
	}
}

// TestChaosSlowLorisReplicaFailsOver: a replica trickling its response out
// slower than the attempt timeout is as dead as a crashed one — the
// attempt times out, the breaker charges it, and the survivor serves.
func TestChaosSlowLorisReplicaFailsOver(t *testing.T) {
	specs, proxies := chaosFleet(t, 2)
	single := newSingle(t)
	rt, rts := newRouter(t, specs, func(c *Config) {
		c.Retry = client.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond,
			MaxDelay: 5 * time.Millisecond, AttemptTimeout: 400 * time.Millisecond}
	})
	waitReady(t, rt)

	reads := fixReads[:8]
	_, want := post(t, single.URL, reads, "text/x-sam")

	// Replica 0 of shard 0 trickles: with headers alone being hundreds of
	// bytes at 64 bytes per 150ms, no response completes inside the 400ms
	// attempt timeout.
	proxies[0][0].SetSlowLoris(150 * time.Millisecond)
	code, got := post(t, rts.URL, reads, "text/x-sam")
	if code != http.StatusOK {
		t.Fatalf("status with slow-loris replica = %d, body %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SAM under slow-loris replica differs from single node\nrouter:\n%s\nsingle:\n%s", got, want)
	}
}
