package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/service"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// syncBuf is a concurrency-safe log sink: handlers write from request
// goroutines while the test reads.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls cond until it holds or the deadline passes (shard-side
// trace records are written in a deferred step that can race the router's
// response by a few microseconds).
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func ringHas(ring *telemetry.Ring, id string) func() bool {
	return func() bool {
		for _, rec := range ring.Snapshot() {
			if rec.RequestID == id {
				return true
			}
		}
		return false
	}
}

func findTrace(ring *telemetry.Ring, id string) (telemetry.RequestTrace, bool) {
	for _, rec := range ring.Snapshot() {
		if rec.RequestID == id {
			return rec, true
		}
	}
	return telemetry.RequestTrace{}, false
}

func stageCount(rec telemetry.RequestTrace, stage string) int {
	n := 0
	for _, sp := range rec.Spans {
		if sp.Stage == stage {
			n++
		}
	}
	return n
}

// TestEndToEndTraceAcrossTiers pins the tentpole acceptance: one request
// through the router to a 3-shard fleet yields one request ID visible in
// the response header, the router's and every shard's logs, and the
// /debug/requests traces of both tiers — and tracing never changes the
// SAM bytes.
func TestEndToEndTraceAcrossTiers(t *testing.T) {
	fixture(t)

	shardLogs := make([]*syncBuf, len(fixShards))
	shardSrvs := make([]*service.Server, len(fixShards))
	urls := make([]string, len(fixShards))
	for i, sa := range fixShards {
		shardLogs[i] = &syncBuf{}
		lg, err := telemetry.NewLogger(shardLogs[i], fmt.Sprintf("shard%d: ", i), "text", "debug")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := service.New(service.Config{Aligner: sa, Query: queryOpts(), Workers: 2, Version: "test", FrontConfig: service.FrontConfig{Logger: lg}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		shardSrvs[i] = srv
		urls[i] = ts.URL
	}

	routerLog := &syncBuf{}
	rlog, err := telemetry.NewLogger(routerLog, "router: ", "text", "debug")
	if err != nil {
		t.Fatal(err)
	}
	rt, rts := newRouter(t, urls, func(c *Config) { c.Logger = rlog })
	waitReady(t, rt)

	const reqID = "4bf92f3577b34da6a3ce929d0e0e4736"
	send := func(traced bool) (*http.Response, []byte) {
		t.Helper()
		payload, err := json.Marshal(client.AlignRequest{Reads: client.FromSeqs(fixReads[:4])})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, rts.URL+"/v1/align", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", "text/x-sam")
		if traced {
			req.Header.Set("traceparent", "00-"+reqID+"-00f067aa0ba902b7-01")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, body)
		}
		return resp, body
	}

	resp, tracedSAM := send(true)
	if got := resp.Header.Get("X-Request-Id"); got != reqID {
		t.Fatalf("X-Request-Id = %q, want the supplied trace ID %q", got, reqID)
	}

	// Tracing must not perturb output: an untraced request (which mints its
	// own ID) returns byte-identical SAM.
	resp2, untracedSAM := send(false)
	minted := resp2.Header.Get("X-Request-Id")
	if len(minted) != 32 || minted == reqID {
		t.Fatalf("untraced request ID = %q, want a fresh 32-hex ID", minted)
	}
	if !bytes.Equal(tracedSAM, untracedSAM) {
		t.Fatalf("SAM differs traced vs untraced:\ntraced:\n%s\nuntraced:\n%s", tracedSAM, untracedSAM)
	}

	// Router tier: the trace is in the ring with the full span set.
	rec, ok := findTrace(rt.TraceRing(), reqID)
	if !ok {
		t.Fatalf("router ring lacks request %s", reqID)
	}
	for _, stage := range []string{"admission", "batch_wait", "render"} {
		if stageCount(rec, stage) != 1 {
			t.Fatalf("router trace: want exactly one %q span, got %d in %+v", stage, stageCount(rec, stage), rec.Spans)
		}
	}
	if got := stageCount(rec, "rpc"); got != fixShardCount {
		t.Fatalf("router trace: %d rpc spans, want %d: %+v", got, fixShardCount, rec.Spans)
	}
	seenShards := map[string]bool{}
	for _, sp := range rec.Spans {
		if sp.Stage != "rpc" {
			continue
		}
		seenShards[sp.Shard] = true
		if sp.Addr == "" {
			t.Fatalf("rpc span lacks shard address: %+v", sp)
		}
		// An uncoalesced request's own trace travels to the shards.
		if sp.Link != reqID {
			t.Fatalf("rpc span link = %q, want the request's own trace %q (uncoalesced)", sp.Link, reqID)
		}
	}
	if len(seenShards) != fixShardCount {
		t.Fatalf("rpc spans name %d distinct shards, want %d", len(seenShards), fixShardCount)
	}
	if rec.Reads != 4 || rec.Status != http.StatusOK {
		t.Fatalf("router trace reads/status = %d/%d", rec.Reads, rec.Status)
	}

	// Shard tier: the same request ID reached every shard's ring and logs,
	// with the single-node span set.
	for i, srv := range shardSrvs {
		waitFor(t, ringHas(srv.TraceRing(), reqID), fmt.Sprintf("shard %d ring never saw request %s", i, reqID))
		srec, _ := findTrace(srv.TraceRing(), reqID)
		for _, stage := range []string{"admission", "batch_wait", "engine", "render"} {
			if stageCount(srec, stage) < 1 {
				t.Fatalf("shard %d trace lacks %q span: %+v", i, stage, srec.Spans)
			}
		}
		waitFor(t, func() bool { return strings.Contains(shardLogs[i].String(), reqID) },
			fmt.Sprintf("shard %d logs never mention request %s", i, reqID))
	}
	if !strings.Contains(routerLog.String(), reqID) {
		t.Fatalf("router logs never mention request %s:\n%s", reqID, routerLog.String())
	}

	// The debug endpoint serves the ring over HTTP.
	dbg := httptest.NewServer(telemetry.NewDebugMux(rt.TraceRing()))
	defer dbg.Close()
	dresp, err := http.Get(dbg.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	dbody, err := io.ReadAll(dresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dbody), reqID) {
		t.Fatalf("/debug/requests lacks request %s:\n%s", reqID, dbody)
	}
}

// TestErrorBodyEchoesRequestID pins the error-path half of the contract:
// a rejected request's JSON body names the same ID as the header.
func TestErrorBodyEchoesRequestID(t *testing.T) {
	fleet := newFleet(t)
	rt, rts := newRouter(t, fleet, nil)
	waitReady(t, rt)

	short := []client.Read{{Name: "tiny", Seq: "ACGTACGT"}} // < K=19
	payload, err := json.Marshal(client.AlignRequest{Reads: short})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, rts.URL+"/v1/align", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var er client.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.RequestID == "" || er.RequestID != resp.Header.Get("X-Request-Id") {
		t.Fatalf("error body request_id %q != header %q", er.RequestID, resp.Header.Get("X-Request-Id"))
	}
}
