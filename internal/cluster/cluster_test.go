package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/service"
)

// ---- merge semantics (pure unit tests over wire data) ----

func mkread(name, seq string) meraligner.Seq {
	s, err := meraligner.NewSeq(name, seq)
	if err != nil {
		panic(err)
	}
	return s
}

func TestMergeEqualScoreTiesAcrossShardsOrderCanonically(t *testing.T) {
	reads := []meraligner.Seq{mkread("r", "ACGTACGTACGT")}
	// Shard 1 holds target "zzz", shard 0 holds "aaa"; equal scores must
	// interleave into name order regardless of which shard reported first.
	per := []*client.AlignResponse{
		{Reads: []client.ReadResult{{Name: "r", Status: client.StatusOK, Alignments: []client.Alignment{
			{Target: "zzz", Strand: "+", Score: 12, QStart: 0, QEnd: 12, TStart: 5, TEnd: 17, NM: 0},
		}}}},
		{Reads: []client.ReadResult{{Name: "r", Status: client.StatusOK, Alignments: []client.Alignment{
			{Target: "aaa", Strand: "+", Score: 12, QStart: 0, QEnd: 12, TStart: 40, TEnd: 52, NM: 0},
			{Target: "aaa", Strand: "-", Score: 20, QStart: 0, QEnd: 12, TStart: 9, TEnd: 21, NM: 0},
		}}}},
	}
	out := mergeResults(reads, per)
	if len(out) != 1 || out[0].Status != client.StatusOK {
		t.Fatalf("merged = %+v", out)
	}
	got := make([]string, 0, 3)
	for _, a := range out[0].Alignments {
		got = append(got, fmt.Sprintf("%s/%d", a.Target, a.Score))
	}
	want := []string{"aaa/20", "aaa/12", "zzz/12"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("canonical order = %v, want %v", got, want)
		}
	}
}

func TestMergeUnmappedEverywhere(t *testing.T) {
	reads := []meraligner.Seq{mkread("r", "ACGTACGTACGT")}
	per := []*client.AlignResponse{
		{Reads: []client.ReadResult{{Name: "r", Status: client.StatusUnmapped}}},
		{Reads: []client.ReadResult{{Name: "r", Status: client.StatusUnmapped}}},
		nil, // a shard excluded by the partial policy
	}
	out := mergeResults(reads, per)
	if out[0].Status != client.StatusUnmapped || len(out[0].Alignments) != 0 {
		t.Fatalf("merged = %+v, want unmapped with no alignments", out[0])
	}
}

func TestMergeMappedOnExactlyOneShard(t *testing.T) {
	reads := []meraligner.Seq{mkread("r", "ACGTACGTACGT")}
	hit := client.Alignment{Target: "ctg1", Strand: "+", Score: 12, QEnd: 12, TStart: 3, TEnd: 15}
	per := []*client.AlignResponse{
		{Reads: []client.ReadResult{{Name: "r", Status: client.StatusUnmapped}}},
		{Reads: []client.ReadResult{{Name: "r", Status: client.StatusOK, Alignments: []client.Alignment{hit}}}},
	}
	out := mergeResults(reads, per)
	if out[0].Status != client.StatusOK || len(out[0].Alignments) != 1 || out[0].Alignments[0] != hit {
		t.Fatalf("merged = %+v, want the single shard's hit", out[0])
	}
}

// TestMergeExactHitStandsAlone: the shard owning a read's exact hit returns
// it alone, as a whole-reference node's exact path does; another shard's
// general path may still find a secondary in a repeat copy it holds. The
// merge keeps the exact hit and drops the rest.
func TestMergeExactHitStandsAlone(t *testing.T) {
	reads := []meraligner.Seq{mkread("r", "ACGTACGTACGT")}
	exact := client.Alignment{Target: "ctg2", Strand: "+", Score: 12, QEnd: 12, TStart: 7, TEnd: 19, Cigar: "12M", Exact: true}
	secondary := client.Alignment{Target: "ctg9", Strand: "-", Score: 9, QStart: 3, QEnd: 12, TStart: 40, TEnd: 49, Cigar: "9M"}
	per := []*client.AlignResponse{
		{Reads: []client.ReadResult{{Name: "r", Status: client.StatusUnmapped}}},
		{Reads: []client.ReadResult{{Name: "r", Status: client.StatusOK, Alignments: []client.Alignment{exact}}}},
		{Reads: []client.ReadResult{{Name: "r", Status: client.StatusOK, Alignments: []client.Alignment{secondary}}}},
	}
	out := mergeResults(reads, per)
	if out[0].Status != client.StatusOK || len(out[0].Alignments) != 1 || out[0].Alignments[0] != exact {
		t.Fatalf("merged = %+v, want shard 1's exact hit alone", out[0])
	}
}

func TestMergeTooShortPropagates(t *testing.T) {
	reads := []meraligner.Seq{mkread("r", "ACG")}
	per := []*client.AlignResponse{
		{Reads: []client.ReadResult{{Name: "r", Status: client.StatusTooShort}}},
		{Reads: []client.ReadResult{{Name: "r", Status: client.StatusTooShort}}},
	}
	out := mergeResults(reads, per)
	if out[0].Status != client.StatusTooShort {
		t.Fatalf("merged status = %q, want too_short", out[0].Status)
	}
}

// ---- real-fleet fixture: whole-reference node vs 3-shard fleet ----

var (
	fixOnce   sync.Once
	fixErr    error
	fixReads  []meraligner.Seq
	fixWhole  *meraligner.Aligner
	fixShards []*meraligner.Aligner
)

const fixShardCount = 3

func fixture(t *testing.T) {
	t.Helper()
	fixOnce.Do(func() {
		p := genome.EColiLike()
		p.GenomeLen = 60_000
		p.Depth = 2
		p.ContigMean = 6_000 // enough contigs for 3 nonempty shards
		p.InsertMean = 0
		p.Seed = 11
		ds, err := genome.Generate(p)
		if err != nil {
			fixErr = err
			return
		}
		fixReads = ds.Reads
		iopt := meraligner.DefaultIndexOptions(19)
		if fixWhole, fixErr = meraligner.Build(2, iopt, ds.Contigs); fixErr != nil {
			return
		}
		dir, err := os.MkdirTemp("", "cluster-shards-*")
		if err != nil {
			fixErr = err
			return
		}
		paths, err := meraligner.SaveShards(2, iopt, ds.Contigs, fixShardCount, dir)
		if err != nil {
			fixErr = err
			return
		}
		for _, path := range paths {
			sa, err := meraligner.OpenThreads(2, path)
			if err != nil {
				fixErr = err
				return
			}
			fixShards = append(fixShards, sa)
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
}

func queryOpts() meraligner.QueryOptions {
	q := meraligner.DefaultQueryOptions()
	q.MaxSeedHits = 200
	q.CollectAlignments = true
	return q
}

// newFleet serves every shard fixture index behind its own httptest server
// and returns the base URLs in shard order.
func newFleet(t *testing.T) []string {
	t.Helper()
	fixture(t)
	urls := make([]string, 0, len(fixShards))
	for _, sa := range fixShards {
		srv, err := service.New(service.Config{Aligner: sa, Query: queryOpts(), Workers: 2, Version: "test"})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		fleetServers.Store(ts.URL, ts)
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		urls = append(urls, ts.URL)
	}
	return urls
}

// newSingle serves the whole-reference fixture index: the byte-identity
// oracle.
func newSingle(t *testing.T) *httptest.Server {
	t.Helper()
	fixture(t)
	srv, err := service.New(service.Config{Aligner: fixWhole, Query: queryOpts(), Workers: 2, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func newRouter(t *testing.T, shards []string, mod func(*Config)) (*Router, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Shards:         shards,
		Retry:          client.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
		HealthInterval: 50 * time.Millisecond,
		Version:        "test",
	}
	if mod != nil {
		mod(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return rt, ts
}

func waitReady(t *testing.T, rt *Router) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !rt.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("router never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// post sends one align request and returns status and body.
func post(t *testing.T, url string, reads []meraligner.Seq, accept string) (int, []byte) {
	t.Helper()
	return postTo(t, url+"/v1/align", reads, accept)
}

// postTo is post against a full endpoint URL (/v1/align or /v1/align/stream).
func postTo(t *testing.T, endpoint string, reads []meraligner.Seq, accept string) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(client.AlignRequest{Reads: client.FromSeqs(reads)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, endpoint, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	// Pin the request ID so error bodies (which echo it) stay
	// byte-comparable between the router and a single node.
	req.Header.Set("X-Request-Id", "00112233445566778899aabbccddeeff")
	if accept != "" {
		req.Header.Set("Accept", accept)
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
	return resp.StatusCode, body
}

// ---- the tentpole property: router output == single-node output ----

func TestRouterByteIdenticalToSingleNode(t *testing.T) {
	fleet := newFleet(t)
	single := newSingle(t)
	rt, rts := newRouter(t, fleet, nil)
	waitReady(t, rt)

	if len(fixReads) < 40 {
		t.Fatalf("fixture too small: %d reads", len(fixReads))
	}
	batches := [][]meraligner.Seq{
		fixReads[:1],    // single read
		fixReads[1:9],   // small batch (coalescer path)
		fixReads[:40],   // bigger batch
		fixReads[30:31], // another singleton, different genome region
	}
	for bi, reads := range batches {
		for _, accept := range []string{"application/json", "text/x-sam"} {
			wantCode, want := post(t, single.URL, reads, accept)
			gotCode, got := post(t, rts.URL, reads, accept)
			if wantCode != http.StatusOK || gotCode != wantCode {
				t.Fatalf("batch %d %s: status router=%d single=%d", bi, accept, gotCode, wantCode)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("batch %d %s: router body differs from single node\nrouter:\n%s\nsingle:\n%s",
					bi, accept, got, want)
			}
		}
	}
}

func TestRouterDirectPathByteIdentical(t *testing.T) {
	fleet := newFleet(t)
	single := newSingle(t)
	// MaxBatch below the request size forces the uncoalesced direct path.
	rt, rts := newRouter(t, fleet, func(c *Config) { c.MaxBatch = 4 })
	waitReady(t, rt)

	reads := fixReads[:16]
	_, want := post(t, single.URL, reads, "text/x-sam")
	code, got := post(t, rts.URL, reads, "text/x-sam")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("direct-path SAM differs from single node\nrouter:\n%s\nsingle:\n%s", got, want)
	}
	st := rt.Stats()
	if st.Batches == 0 || st.MaxBatchReads < int64(len(reads)) {
		t.Fatalf("direct path not exercised: %+v", st)
	}
}

func TestRouterAdmissionMatchesSingleNode(t *testing.T) {
	fleet := newFleet(t)
	single := newSingle(t)
	_, rts := newRouter(t, fleet, nil)
	rt, _ := http.Get(rts.URL + "/readyz")
	rt.Body.Close()

	short := []meraligner.Seq{mkread("tiny", "ACGTACGT")} // < K=19
	wantCode, want := post(t, single.URL, short, "application/json")
	// The router may still be warming; poll until it answers non-503.
	var gotCode int
	var got []byte
	deadline := time.Now().Add(5 * time.Second)
	for {
		gotCode, got = post(t, rts.URL, short, "application/json")
		if gotCode != http.StatusServiceUnavailable || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if wantCode != http.StatusBadRequest || gotCode != wantCode {
		t.Fatalf("status router=%d single=%d", gotCode, wantCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("400 body differs:\nrouter: %s\nsingle: %s", got, want)
	}
}

func TestRouterGlobalTargetCatalog(t *testing.T) {
	fleet := newFleet(t)
	single := newSingle(t)
	rt, rts := newRouter(t, fleet, nil)
	waitReady(t, rt)

	fetch := func(url string) client.TargetsResponse {
		resp, err := http.Get(url + "/v1/targets")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/targets: %d", resp.StatusCode)
		}
		var out client.TargetsResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := fetch(rts.URL), fetch(single.URL)
	if got.K != want.K {
		t.Fatalf("router K=%d, single K=%d", got.K, want.K)
	}
	if got.Shard != nil {
		t.Fatalf("router catalog carries shard meta: %+v", got.Shard)
	}
	if len(got.Targets) != len(want.Targets) {
		t.Fatalf("router lists %d targets, single node %d", len(got.Targets), len(want.Targets))
	}
	for i := range want.Targets {
		if got.Targets[i] != want.Targets[i] {
			t.Fatalf("target %d: router %+v, single %+v", i, got.Targets[i], want.Targets[i])
		}
	}
}

// ---- shard failure: the configured policy, never silent loss ----

func TestShardFailureFailPolicy(t *testing.T) {
	fleet := newFleet(t)
	rt, rts := newRouter(t, fleet, nil) // default policy: fail
	waitReady(t, rt)

	killFleetShard(t, fleet[1])
	code, body := post(t, rts.URL, fixReads[:4], "application/json")
	if code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502; body %s", code, body)
	}
	if !strings.Contains(string(body), "shard(s) unavailable") {
		t.Fatalf("error body %s", body)
	}
	if st := rt.Stats(); st.FailedRequests == 0 {
		t.Fatalf("failed_requests not counted: %+v", st)
	}
}

func TestShardFailurePartialPolicy(t *testing.T) {
	fleet := newFleet(t)
	rt, rts := newRouter(t, fleet, func(c *Config) { c.Degraded = DegradedPartial })
	waitReady(t, rt)

	killFleetShard(t, fleet[2])

	code, body := post(t, rts.URL, fixReads[:4], "application/json")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	var resp client.AlignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Reads) != 4 {
		t.Fatalf("%d results for 4 reads", len(resp.Reads))
	}
	if len(resp.DegradedShards) != 1 || resp.DegradedShards[0] != fleet[2] {
		t.Fatalf("degraded_shards = %v, want [%s]", resp.DegradedShards, fleet[2])
	}

	code, sam := post(t, rts.URL, fixReads[:4], "text/x-sam")
	if code != http.StatusOK {
		t.Fatalf("SAM status = %d", code)
	}
	co := "@CO\tdegraded: results missing from shard(s) " + fleet[2]
	if !strings.Contains(string(sam), co) {
		t.Fatalf("SAM lacks degraded comment %q:\n%s", co, sam)
	}
	if st := rt.Stats(); st.DegradedServed == 0 {
		t.Fatalf("degraded_requests not counted: %+v", st)
	}
}

func TestAllShardsFailedAlwaysErrors(t *testing.T) {
	fleet := newFleet(t)
	rt, rts := newRouter(t, fleet, func(c *Config) { c.Degraded = DegradedPartial })
	waitReady(t, rt)
	for _, u := range fleet {
		killFleetShard(t, u)
	}
	code, body := post(t, rts.URL, fixReads[:2], "application/json")
	if code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502 even under partial policy; body %s", code, body)
	}
}

// killFleetShard closes the httptest server serving the given base URL.
// The fixtures register the servers via t.Cleanup, so tests use a registry.
var fleetServers sync.Map // base URL -> *httptest.Server

func killFleetShard(t *testing.T, url string) {
	t.Helper()
	v, ok := fleetServers.Load(url)
	if !ok {
		t.Fatalf("no fleet server registered for %s", url)
	}
	v.(*httptest.Server).Close()
}

// ---- warming, retries, stats: the robustness surface ----

func TestRouterWarmsUntilFleetReachable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	rt, rts := newRouter(t, []string{deadURL}, nil)
	if rt.Ready() {
		t.Fatal("router ready with an unreachable fleet")
	}
	resp, err := http.Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "warming") {
		t.Fatalf("readyz = %d %q, want 503 warming", resp.StatusCode, body)
	}
	code, abody := post(t, rts.URL, []meraligner.Seq{mkread("r", "ACGTACGTACGTACGTACGTACGT")}, "application/json")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(abody), "warming") {
		t.Fatalf("align while warming = %d %q, want 503 warming", code, abody)
	}
}

// TestRouterRefusesMismatchedReplicas: two "replicas" of one shard that
// serve different slices keep the router not-ready, and /readyz names the
// replica that disagrees with the set's first answer.
func TestRouterRefusesMismatchedReplicas(t *testing.T) {
	fleet := newFleet(t)
	rt, rts := newRouter(t, []string{fleet[0] + "|" + fleet[1]}, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(rts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz = %d %q, want 503", resp.StatusCode, body)
		}
		want := fmt.Sprintf("replica 1 (%s): ", fleet[1])
		if strings.Contains(string(body), want) && strings.Contains(string(body), "replicas of one shard must serve the same snapshot") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz = %q, want it to name %q as serving a different snapshot", body, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rt.Ready() {
		t.Fatal("router ready over mismatched replicas")
	}
}

// flakyShard is a minimal fake shard: a fixed catalog, and an align handler
// that rejects the first `fail` calls with 503 before serving.
func flakyShard(t *testing.T, fail int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/targets", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(client.TargetsResponse{K: 4, Targets: []client.TargetInfo{{Name: "t0", Length: 100}}})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("POST /v1/align", func(w http.ResponseWriter, r *http.Request) {
		var req client.AlignRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if calls.Add(1) <= int64(fail) {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"overloaded: simulated"}`+"\n")
			return
		}
		out := client.AlignResponse{Reads: make([]client.ReadResult, len(req.Reads))}
		for i, rd := range req.Reads {
			out.Reads[i] = client.ReadResult{Name: rd.Name, Status: client.StatusUnmapped}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &calls
}

func TestShardRetriesHonor503AndAreCounted(t *testing.T) {
	ts, calls := flakyShard(t, 2)
	rt, rts := newRouter(t, []string{ts.URL}, nil)
	waitReady(t, rt)

	code, body := post(t, rts.URL, []meraligner.Seq{mkread("r", "ACGTACGT")}, "application/json")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("shard saw %d align calls, want 3 (2 failures + 1 success)", got)
	}
	st := rt.Stats()
	if len(st.Shards) != 1 {
		t.Fatalf("stats lists %d shards", len(st.Shards))
	}
	if sh := st.Shards[0]; sh.Calls != 3 || sh.Retries != 2 {
		t.Fatalf("shard stats = %+v, want calls=3 retries=2", sh)
	}
}

func TestRouterStatsAndMetricsSurface(t *testing.T) {
	ts, _ := flakyShard(t, 0)
	rt, rts := newRouter(t, []string{ts.URL}, nil)
	waitReady(t, rt)
	if code, _ := post(t, rts.URL, []meraligner.Seq{mkread("r", "ACGTACGT")}, "application/json"); code != http.StatusOK {
		t.Fatalf("align = %d", code)
	}

	resp, err := http.Get(rts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st client.RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Ready || st.Requests != 1 || st.Reads != 1 || st.K != 4 || len(st.Shards) != 1 {
		t.Fatalf("stats = %+v", st)
	}

	mresp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"merrouted_requests_total 1",
		"merrouted_reads_total 1",
		"merrouted_ready 1",
		`merrouted_shard_calls_total{shard="0",addr=`,
		"merrouted_shard_call_latency_seconds{",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mbody)
		}
	}
}

func TestRouterDrainRefusesNewWork(t *testing.T) {
	ts, _ := flakyShard(t, 0)
	rt, rts := newRouter(t, []string{ts.URL}, nil)
	waitReady(t, rt)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, rts.URL, []meraligner.Seq{mkread("r", "ACGTACGT")}, "application/json")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("align after drain = %d %q, want 503 draining", code, body)
	}
	resp, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || string(hb) != "draining\n" {
		t.Fatalf("healthz after drain = %d %q", resp.StatusCode, hb)
	}
}
