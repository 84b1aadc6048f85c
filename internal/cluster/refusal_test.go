package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/align"
	"github.com/lbl-repro/meraligner/internal/service"
)

// gatedQuery is queryOpts with an extension that blocks until open is
// closed, counting the calls that reached it.
func gatedQuery(entered *atomic.Int32, open <-chan struct{}) meraligner.QueryOptions {
	q := queryOpts()
	q.Extend = func(query, target []byte, qOff, tOff, k int, sc align.Scoring, pad int) align.Result {
		entered.Add(1)
		<-open
		return align.ExtendSeed(query, target, qOff, tOff, k, sc, pad)
	}
	return q
}

// serveIndex serves one index behind httptest until the test ends.
func serveIndex(t *testing.T, al *meraligner.Aligner, q meraligner.QueryOptions, front service.FrontConfig) string {
	t.Helper()
	srv, err := service.New(service.Config{Aligner: al, Query: q, Workers: 2, FrontConfig: front, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// refusal is the client-visible part of a refused request.
type refusal struct {
	code       int
	retryAfter string
	body       string
}

// send posts body to url's /v1/align under a pinned request ID (error
// bodies echo it) and header pairs. It is safe off the test goroutine.
func send(url, contentType string, body io.Reader, header ...string) (refusal, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/align", body)
	if err != nil {
		return refusal{}, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("X-Request-Id", "00112233445566778899aabbccddeeff")
	for i := 0; i < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return refusal{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return refusal{resp.StatusCode, resp.Header.Get("Retry-After"), string(raw)}, err
}

// jsonReads is an align request body of reads.
func jsonReads(t *testing.T, reads []meraligner.Seq) string {
	t.Helper()
	return string(mustJSON(t, client.AlignRequest{Reads: client.FromSeqs(reads)}))
}

// TestRouterRefusesLikeSingleNode: both tiers answer a bad or unservable
// request from one front door, so the same request gets the same status,
// Retry-After and body from merrouted as from a single merserved — empty,
// a read over the length cap, a doomed deadline, an oversized body, and a
// full queue. (Too-short reads and SAM injection have their own tests.)
func TestRouterRefusesLikeSingleNode(t *testing.T) {
	fixture(t)
	front := service.FrontConfig{MaxBatch: 4, QueueReads: 4, MaxWait: 5 * time.Second, MinDeadline: 50 * time.Millisecond}
	var singleIn, fleetIn atomic.Int32
	singleOpen, fleetOpen := make(chan struct{}), make(chan struct{})
	defer func() {
		select {
		case <-singleOpen:
		default:
			close(singleOpen)
		}
		select {
		case <-fleetOpen:
		default:
			close(fleetOpen)
		}
	}()
	single := serveIndex(t, fixWhole, gatedQuery(&singleIn, singleOpen), front)
	var shards []string
	for _, sa := range fixShards {
		shards = append(shards, serveIndex(t, sa, gatedQuery(&fleetIn, fleetOpen), service.FrontConfig{}))
	}
	rt, rts := newRouter(t, shards, func(c *Config) { c.FrontConfig = front })
	waitReady(t, rt)

	// Reads cut from the longest target with one substitution each: their
	// exact-path attempt fails, so they reach the (gated) extension.
	var tg meraligner.Seq
	for _, s := range fixWhole.Targets() {
		if s.Seq.Len() > tg.Seq.Len() {
			tg = s
		}
	}
	ref := tg.Seq.String()
	var mutated []meraligner.Seq
	for i := 0; i < 4; i++ {
		r := []byte(ref[500+1000*i : 600+1000*i])
		r[50] = "CAAA"[strings.IndexByte("ACGT", r[50])]
		mutated = append(mutated, mkread(fmt.Sprint("m", i), string(r)))
	}

	type request struct {
		what, ct string
		body     func() io.Reader
		header   []string
	}
	fixed := func(s string) func() io.Reader { return func() io.Reader { return strings.NewReader(s) } }
	for _, rq := range []request{
		{"empty", "application/json", fixed(`{"reads":[]}`), nil},
		{"over the read cap", "application/json", fixed(`{"reads":[{"name":"long","seq":"` + strings.Repeat("ACGT", 257) + `"}]}`), nil},
		{"doomed deadline", "application/json", fixed(jsonReads(t, fixReads[:1])), []string{client.HeaderDeadlineMs, "5"}},
		{"oversized body", "text/x-fastq", oversizedBody, nil},
	} {
		want, err := send(single, rq.ct, rq.body(), rq.header...)
		if err != nil {
			t.Fatalf("%s: single node: %v", rq.what, err)
		}
		got, err := send(rts.URL, rq.ct, rq.body(), rq.header...)
		if err != nil {
			t.Fatalf("%s: router: %v", rq.what, err)
		}
		if want.code < 400 || got != want {
			t.Errorf("%s:\nrouter %+v\nsingle %+v", rq.what, got, want)
		}
	}

	// A full queue: a direct-path batch holds the callee in the gated
	// extension, a 3-read request waits behind it, and 2 more reads do not
	// fit the 4-read queue.
	direct, queued, extra := jsonReads(t, mutated), jsonReads(t, mutated[:3]), jsonReads(t, fixReads[:2])
	queueFull := func(url string, entered *atomic.Int32, open chan struct{}) refusal {
		held := make(chan error, 2)
		post := func(body string) {
			r, err := send(url, "application/json", strings.NewReader(body))
			if err == nil && r.code != http.StatusOK {
				err = &client.StatusError{Code: r.code, Message: r.body}
			}
			held <- err
		}
		go post(direct)
		waitUntilTrue(t, "the callee to block in extension", func() bool { return entered.Load() > 0 })
		go post(queued)
		waitUntilTrue(t, "3 reads to queue", func() bool {
			resp, err := http.Get(url + "/v1/stats")
			if err != nil {
				return false
			}
			defer resp.Body.Close()
			var st struct {
				QueueReads int64 `json:"queue_reads"`
			}
			return json.NewDecoder(resp.Body).Decode(&st) == nil && st.QueueReads == 3
		})
		r, err := send(url, "application/json", strings.NewReader(extra))
		if err != nil {
			t.Fatal(err)
		}
		close(open)
		for range 2 {
			if err := <-held; err != nil {
				t.Errorf("%s: a held request failed: %v", url, err)
			}
		}
		return r
	}
	want := queueFull(single, &singleIn, singleOpen)
	got := queueFull(rts.URL, &fleetIn, fleetOpen)
	if want.code != http.StatusTooManyRequests || got != want {
		t.Errorf("queue full:\nrouter %+v\nsingle %+v", got, want)
	}
}

// TestRouterMaxWaitEffective: the router's front door resolves MaxWait as
// merserved's does — unset is 2ms, negative disables window-holding. (The
// router's /v1/stats carries no batching knobs; the front door's own stats
// report the value its queue runs with.)
func TestRouterMaxWaitEffective(t *testing.T) {
	shards := newFleet(t)
	for _, tc := range []struct{ set, want time.Duration }{
		{0, 2 * time.Millisecond},
		{-1, 0},
		{7 * time.Millisecond, 7 * time.Millisecond},
	} {
		rt, _ := newRouter(t, shards, func(c *Config) { c.MaxWait = tc.set })
		if got, want := rt.front.Stats().MaxWaitMs, float64(tc.want)/float64(time.Millisecond); got != want {
			t.Errorf("MaxWait %v: the router's front door runs with %vms, want %vms", tc.set, got, want)
		}
	}
}

// waitUntilTrue polls cond until it holds, failing the test after 10s.
func waitUntilTrue(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// oversizedBody is a FASTQ body just over merserved's 64 MiB request bound,
// streamed so no side holds it: one-base records whose '+' lines are padded
// to 512 KiB, so a server's line scanner never buffers more than one line.
func oversizedBody() io.Reader {
	rec := []byte("@r\nA\n+" + strings.Repeat("x", 1<<19) + "\nI\n")
	parts := make([]io.Reader, (64<<20)/len(rec)+2)
	for i := range parts {
		parts[i] = bytes.NewReader(rec)
	}
	return io.MultiReader(parts...)
}
