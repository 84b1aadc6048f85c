package cluster

// The attempt ladder of one shard RPC (alignSet): failover before backoff,
// one attempt bound across the replica set, hedges inside that bound, and a
// spent deadline answered 504.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
)

// fakeReplica is one replica of a fake shard: a fixed catalog, and an align
// handler that holds each call for delay, then answers status (0 serves
// every read unmapped) with retryAfter as its Retry-After header.
type fakeReplica struct {
	status     atomic.Int32
	retryAfter string
	delay      time.Duration
}

// ladderFleet serves one shard from the given replicas and logs the index
// of the replica each align call reaches, in arrival order. It returns the
// router's shard spec ("a|b|...") and the log.
func ladderFleet(t *testing.T, reps ...*fakeReplica) (string, func() []int) {
	t.Helper()
	var mu sync.Mutex
	var log []int
	urls := make([]string, len(reps))
	for i, rep := range reps {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/targets", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(client.TargetsResponse{K: 4, Targets: []client.TargetInfo{{Name: "t0", Length: 100}}})
		})
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "ready\n")
		})
		mux.HandleFunc("POST /v1/align", func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			log = append(log, i)
			mu.Unlock()
			var req client.AlignRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			select {
			case <-time.After(rep.delay):
			case <-r.Context().Done():
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if code := int(rep.status.Load()); code != 0 {
				w.Header().Set("Retry-After", rep.retryAfter)
				w.WriteHeader(code)
				io.WriteString(w, `{"error":"refused: simulated"}`+"\n")
				return
			}
			out := client.AlignResponse{Reads: make([]client.ReadResult, len(req.Reads))}
			for j, rd := range req.Reads {
				out.Reads[j] = client.ReadResult{Name: rd.Name, Status: client.StatusUnmapped}
			}
			json.NewEncoder(w).Encode(out)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return strings.Join(urls, "|"), func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), log...)
	}
}

// refusing is a fake replica answering every align with status.
func refusing(status int, retryAfter string) *fakeReplica {
	rep := &fakeReplica{retryAfter: retryAfter}
	rep.status.Store(int32(status))
	return rep
}

var ladderRead = []meraligner.Seq{mkread("r", "ACGTACGT")}

// TestLadderAlternatesAcrossFailingReplicas: two replicas answering 503 at
// MaxAttempts 3 cost each shard RPC exactly 3 attempts, not 3 per replica,
// and consecutive attempts go to different replicas: failover within a
// pass, and a new pass that starts on the replica that did not fail last.
func TestLadderAlternatesAcrossFailingReplicas(t *testing.T) {
	spec, calls := ladderFleet(t, refusing(http.StatusServiceUnavailable, "0"), refusing(http.StatusServiceUnavailable, "0"))
	rt, rts := newRouter(t, []string{spec}, nil)
	waitReady(t, rt)
	for req := 0; req < 5; req++ {
		before := len(calls())
		if code, body := post(t, rts.URL, ladderRead, "application/json"); code != http.StatusBadGateway {
			t.Fatalf("request %d = %d %s, want 502 from a shard whose replicas all refuse", req, code, body)
		}
		got := calls()[before:]
		if len(got) != 3 {
			t.Fatalf("request %d made %d attempts %v, want 3 across both replicas", req, len(got), got)
		}
		if got[0] == got[1] || got[1] == got[2] {
			t.Fatalf("request %d tried replicas %v, want alternating", req, got)
		}
	}
	if sh := rt.Stats().Shards[0]; sh.Calls != 15 || sh.Retries != 10 || sh.Errors != 15 {
		t.Fatalf("shard stats = %+v, want calls=15 retries=10 errors=15", sh)
	}
}

// TestLadderFailsOverBeforeBackingOff: beside a healthy peer, a replica
// answering 503 costs a request one failed attempt and an immediate
// failover — never the 100 ms backoff, which the ladder sleeps only once
// every replica has failed.
func TestLadderFailsOverBeforeBackingOff(t *testing.T) {
	spec, calls := ladderFleet(t, refusing(http.StatusServiceUnavailable, "0"), &fakeReplica{})
	rt, rts := newRouter(t, []string{spec}, func(c *Config) {
		c.Retry.BaseDelay, c.Retry.MaxDelay = 100*time.Millisecond, 200*time.Millisecond
		c.BreakerThreshold = -1 // keep picking the refusing replica first half the time
	})
	waitReady(t, rt)
	for req := 0; req < 20; req++ {
		start := time.Now()
		code, body := post(t, rts.URL, ladderRead, "application/json")
		if took := time.Since(start); code != http.StatusOK || took >= 50*time.Millisecond {
			t.Fatalf("request %d = %d after %v, want 200 within 50 ms; body %s", req, code, took, body)
		}
	}
	refused := 0
	for _, i := range calls() {
		if i == 0 {
			refused++
		}
	}
	if st := rt.Stats(); refused == 0 || st.Failovers != int64(refused) {
		t.Fatalf("the refusing replica took %d attempts and the router counted %d failovers, want as many, and some", refused, st.Failovers)
	}
}

// TestLadderRetryAfterGoesToThePeer: a busy replica answering 429 with
// Retry-After: 1 does not hold a request for its second — its idle peer
// serves at once.
func TestLadderRetryAfterGoesToThePeer(t *testing.T) {
	spec, calls := ladderFleet(t, refusing(http.StatusTooManyRequests, "1"), &fakeReplica{})
	rt, rts := newRouter(t, []string{spec}, func(c *Config) { c.BreakerThreshold = -1 })
	waitReady(t, rt)
	for req := 0; req < 10; req++ {
		start := time.Now()
		code, body := post(t, rts.URL, ladderRead, "application/json")
		if took := time.Since(start); code != http.StatusOK || took >= 100*time.Millisecond {
			t.Fatalf("request %d = %d after %v, want 200 within 100 ms; body %s", req, code, took, body)
		}
	}
	if n := len(calls()); n < 10 || n > 20 {
		t.Fatalf("%d attempts for 10 requests, want 1 or 2 each", n)
	}
}

// TestLadderHedgeCountsAgainstMaxAttempts: a hedge is a rung like any
// other. Three slow replicas that all fail, MaxAttempts 2 and a 10 ms
// HedgeAfter: the primary and one hedge start, the hedge timer fires again
// while both run, and no third attempt starts.
func TestLadderHedgeCountsAgainstMaxAttempts(t *testing.T) {
	slowFail := func() *fakeReplica {
		rep := refusing(http.StatusInternalServerError, "")
		rep.delay = 100 * time.Millisecond
		return rep
	}
	spec, calls := ladderFleet(t, slowFail(), slowFail(), slowFail())
	rt, rts := newRouter(t, []string{spec}, func(c *Config) {
		c.HedgeAfter = 10 * time.Millisecond
		c.Retry.MaxAttempts = 2
	})
	waitReady(t, rt)
	if code, body := post(t, rts.URL, ladderRead, "application/json"); code != http.StatusBadGateway {
		t.Fatalf("request = %d %s, want 502", code, body)
	}
	got := calls()
	if len(got) != 2 || got[0] == got[1] {
		t.Fatalf("attempts reached replicas %v, want 2 on different replicas", got)
	}
	if st := rt.Stats(); st.Hedges != 1 {
		t.Fatalf("hedges = %d, want 1", st.Hedges)
	}
}

// TestRouterDeadline504 is the router's twin of merserved's
// TestServiceDeadline504ThenServes: a request whose X-Deadline-Ms budget
// runs out is answered 504 every time, within the budget plus 100 ms —
// whether the ladder ends because the backoff a shard asks for cannot fit
// the budget, or because the budget ends an attempt in flight — and the
// next request is served.
func TestRouterDeadline504(t *testing.T) {
	busy := refusing(http.StatusServiceUnavailable, "1")
	slow := &fakeReplica{delay: time.Second}
	busySpec, _ := ladderFleet(t, busy)
	slowSpec, _ := ladderFleet(t, slow)
	const budget = 300 * time.Millisecond
	for _, c := range []struct {
		name string
		spec string
		n    int
	}{{"503 asking for 1 s", busySpec, 10}, {"1 s late", slowSpec, 5}} {
		rt, rts := newRouter(t, []string{c.spec}, nil)
		waitReady(t, rt)
		for req := 0; req < c.n; req++ {
			start := time.Now()
			code, body := postWithDeadline(t, rts.URL, ladderRead, budget.Milliseconds())
			if took := time.Since(start); code != http.StatusGatewayTimeout || took > budget+100*time.Millisecond {
				t.Fatalf("%s: request %d = %d after %v, want 504 within %v; body %s", c.name, req, code, took, budget+100*time.Millisecond, body)
			}
		}
		if st := rt.Stats(); st.FailedRequests != 0 {
			t.Fatalf("%s: %d requests counted as shard failures, want none", c.name, st.FailedRequests)
		}
	}
	busy.status.Store(0)
	rt, rts := newRouter(t, []string{busySpec}, nil)
	waitReady(t, rt)
	if code, body := postWithDeadline(t, rts.URL, ladderRead, budget.Milliseconds()); code != http.StatusOK {
		t.Fatalf("next request = %d %s, want 200", code, body)
	}
}
