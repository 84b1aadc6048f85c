package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	"github.com/lbl-repro/meraligner/internal/align"
	"github.com/lbl-repro/meraligner/internal/genome"
)

// ---- shared fixture: one resident aligner for every test ----

var (
	fixOnce    sync.Once
	fixAligner *meraligner.Aligner
	fixReads   []meraligner.Seq
	fixErr     error
)

func fixture(t testing.TB) (*meraligner.Aligner, []meraligner.Seq) {
	t.Helper()
	fixOnce.Do(func() {
		p := genome.EColiLike()
		p.GenomeLen = 60_000
		p.Depth = 2
		p.ContigMean = 10_000
		p.InsertMean = 0
		p.Seed = 7
		ds, err := genome.Generate(p)
		if err != nil {
			fixErr = err
			return
		}
		fixReads = ds.Reads
		iopt := meraligner.DefaultIndexOptions(19)
		fixAligner, fixErr = meraligner.Build(2, iopt, ds.Contigs)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixAligner, fixReads
}

func queryOpts() meraligner.QueryOptions {
	q := meraligner.DefaultQueryOptions()
	q.MaxSeedHits = 200
	q.CollectAlignments = true
	return q
}

// newTestServer builds a Server (tweaked by mod) behind httptest.
func newTestServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	al, _ := fixture(t)
	cfg := Config{Aligner: al, Query: queryOpts(), Workers: 2, Version: "test"}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// directSAM renders the SAM document of a direct, uncoalesced Align call —
// the byte-identity oracle for service responses.
func directSAM(t *testing.T, al *meraligner.Aligner, reads []meraligner.Seq) []byte {
	t.Helper()
	res, err := al.Align(context.Background(), reads, queryOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := meraligner.WriteSAM(&buf, res, al.Targets(), reads); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ---- end-to-end acceptance: coalescing, byte identity, stats ----

func TestConcurrentSingleReadsCoalesceAndMatchDirectAlign(t *testing.T) {
	al, reads := fixture(t)
	const n = 8
	if len(reads) < n {
		t.Fatalf("fixture too small: %d reads", len(reads))
	}
	// Batching is continuous: requests coalesce only behind an in-flight
	// engine call. A blocker read (one substitution, so it misses the exact
	// path) holds the engine in a gated extension while n single-read posts
	// queue behind it; MaxBatch 2n keeps the queue from dispatching early.
	var entered atomic.Int32
	open := make(chan struct{})
	defer func() {
		select {
		case <-open:
		default:
			close(open)
		}
	}()
	srv, ts := newTestServer(t, func(c *Config) {
		c.MaxBatch = 2 * n
		c.MaxWait = 5 * time.Second
		c.Query.Extend = func(query, target []byte, qOff, tOff, k int, sc align.Scoring, pad int) align.Result {
			entered.Add(1)
			<-open
			return align.ExtendSeed(query, target, qOff, tOff, k, sc, pad)
		}
	})
	cl := client.New(ts.URL)

	// The byte-identity oracle: one direct, uncoalesced Align per read,
	// rendered to SAM. Computed up front so worker goroutines never touch t.
	wants := make([][]byte, n)
	for i := 0; i < n; i++ {
		wants[i] = directSAM(t, al, []meraligner.Seq{reads[i]})
	}

	var tg meraligner.Seq // the longest target
	for _, s := range al.Targets() {
		if s.Seq.Len() > tg.Seq.Len() {
			tg = s
		}
	}
	b := []byte(tg.Seq.String()[500:600])
	b[50] = "CAAA"[strings.IndexByte("ACGT", b[50])]
	blocker, err := meraligner.NewSeq("blocker", string(b))
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, n+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[n] = cl.Align(context.Background(), client.AlignRequest{Reads: client.FromSeqs([]meraligner.Seq{blocker})})
	}()
	waitUntil(t, "the blocker to hold the engine", func() bool { return entered.Load() > 0 })
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := cl.AlignSAM(context.Background(), client.AlignRequest{
				Reads: client.FromSeqs([]meraligner.Seq{reads[i]}),
			})
			if err == nil && !bytes.Equal(got, wants[i]) {
				err = fmt.Errorf("read %d: service SAM diverges from direct Align\ngot:\n%s\nwant:\n%s", i, got, wants[i])
			}
			errs[i] = err
		}()
	}
	waitUntil(t, "the posts to queue", func() bool { return srv.single.front.co.QueuedItems() == n })
	close(open)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxBatchReads != n || st.CoalescedBatches != 1 {
		// One call for the blocker, one for the n queued posts.
		t.Fatalf("want the %d queued posts coalesced into one batch: %+v", n, st)
	}
	if st.Requests != n+1 || st.Reads != n+1 {
		t.Fatalf("request accounting off: requests=%d reads=%d, want %d each", st.Requests, st.Reads, n+1)
	}
	if st.RequestP50Ms <= 0 || st.AlignReadP50Us <= 0 {
		t.Fatalf("latency quantiles missing: %+v", st)
	}
	if st.K != 19 || st.ResidentBytes <= 0 || st.DistinctSeeds <= 0 {
		t.Fatalf("index identity missing from stats: %+v", st)
	}
}

func TestAlignJSONResponse(t *testing.T) {
	al, reads := fixture(t)
	_, ts := newTestServer(t, nil)
	cl := client.New(ts.URL)

	batch := reads[:5]
	resp, err := cl.Align(context.Background(), client.AlignRequest{Reads: client.FromSeqs(batch)})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Reads) != len(batch) {
		t.Fatalf("got %d read results, want %d", len(resp.Reads), len(batch))
	}
	direct, err := al.Align(context.Background(), batch, queryOpts())
	if err != nil {
		t.Fatal(err)
	}
	perQuery := map[int]int{}
	for _, a := range direct.Alignments {
		perQuery[int(a.Query)]++
	}
	for i, rr := range resp.Reads {
		if rr.Name != batch[i].Name {
			t.Fatalf("read %d name %q, want %q", i, rr.Name, batch[i].Name)
		}
		if len(rr.Alignments) != perQuery[i] {
			t.Fatalf("read %d: %d alignments on the wire, direct Align found %d", i, len(rr.Alignments), perQuery[i])
		}
		wantStatus := client.StatusOK
		if perQuery[i] == 0 {
			wantStatus = client.StatusUnmapped
		}
		if rr.Status != wantStatus {
			t.Fatalf("read %d status %q, want %q", i, rr.Status, wantStatus)
		}
	}
}

func TestLargeBatchTakesDirectPathWithFastqBody(t *testing.T) {
	al, reads := fixture(t)
	_, ts := newTestServer(t, func(c *Config) { c.MaxBatch = 4 })

	// A FASTQ body bigger than MaxBatch exercises the direct (uncoalesced)
	// path and the text parser at once.
	batch := reads[:10]
	var fq bytes.Buffer
	for _, r := range batch {
		qual := string(r.Qual)
		if qual == "" {
			qual = strings.Repeat("I", r.Seq.Len())
		}
		fmt.Fprintf(&fq, "@%s\n%s\n+\n%s\n", r.Name, r.Seq.String(), qual)
	}
	resp, err := http.Post(ts.URL+"/v1/align", "text/x-fastq", bytes.NewReader(fq.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out client.AlignResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Reads) != len(batch) {
		t.Fatalf("got %d results, want %d", len(out.Reads), len(batch))
	}
	_ = al
}

func TestStreamNDJSONAndSAM(t *testing.T) {
	al, reads := fixture(t)
	_, ts := newTestServer(t, func(c *Config) { c.MaxBatch = 3 }) // forces multiple chunks
	cl := client.New(ts.URL)

	batch := reads[:8]
	var got []client.ReadResult
	err := cl.AlignStream(context.Background(), client.AlignRequest{Reads: client.FromSeqs(batch)},
		func(rr client.ReadResult) error {
			got = append(got, rr)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("streamed %d results, want %d", len(got), len(batch))
	}
	for i := range got {
		if got[i].Name != batch[i].Name {
			t.Fatalf("stream result %d is %q, want %q (order must be preserved)", i, got[i].Name, batch[i].Name)
		}
	}

	// SAM over the stream endpoint must byte-match the direct document.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/align/stream",
		bytes.NewReader(mustJSON(t, client.AlignRequest{Reads: client.FromSeqs(batch)})))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/x-sam")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	gotSAM, _ := io.ReadAll(resp.Body)
	if want := directSAM(t, al, batch); !bytes.Equal(gotSAM, want) {
		t.Fatalf("streamed SAM diverges from direct Align:\ngot:\n%s\nwant:\n%s", gotSAM, want)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// waitUntil polls cond to make ordering-sensitive tests deterministic.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ---- typed too-short rejection ----

func TestTooShortReads400(t *testing.T) {
	_, reads := fixture(t)
	_, ts := newTestServer(t, nil)
	cl := client.New(ts.URL)

	_, err := cl.Align(context.Background(), client.AlignRequest{Reads: []client.Read{
		{Name: "ok", Seq: reads[0].Seq.String()},
		{Name: "stub", Seq: "ACGTACG"}, // 7 < K=19
	}})
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("got %v, want 400 StatusError", err)
	}
	if len(se.TooShort) != 1 || se.TooShort[0] != "stub" {
		t.Fatalf("too-short detail %v, want [stub]", se.TooShort)
	}
}

func TestEngineReportsTypedTooShortStatus(t *testing.T) {
	al, reads := fixture(t)
	q := queryOpts()
	q.CollectPerQuery = true
	batch := []meraligner.Seq{reads[0], {Name: "tiny", Seq: reads[1].Seq.Slice(0, 7)}, reads[2]}
	res, err := al.Align(context.Background(), batch, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.TooShortReads != 1 || len(res.TooShort) != 1 || res.TooShort[0] != 1 {
		t.Fatalf("TooShort = %v (%d reads), want index 1", res.TooShort, res.TooShortReads)
	}
	if res.PerQuery[1].Status != meraligner.QueryTooShort {
		t.Fatalf("PerQuery[1].Status = %v, want QueryTooShort", res.PerQuery[1].Status)
	}
	if res.PerQuery[0].Status != meraligner.QueryOK || res.PerQuery[2].Status != meraligner.QueryOK {
		t.Fatalf("long reads mis-statused: %+v", res.PerQuery)
	}
	// Slicing keeps the rebased status.
	s := res.Slice(1, 3)
	if s.TooShortReads != 1 || s.TooShort[0] != 0 {
		t.Fatalf("sliced TooShort = %v, want [0]", s.TooShort)
	}
}

// ---- admission control ----

func TestAdmissionQueueFull429(t *testing.T) {
	_, reads := fixture(t)
	big := len(reads) / 2
	srv, ts := newTestServer(t, func(c *Config) {
		c.MaxBatch = big + 4 // the mega-request below takes the direct path
		c.QueueReads = big + 4
		c.MaxWait = 5 * time.Second
	})
	cl := client.New(ts.URL)

	// A mega-request (direct path, several hundred ms of engine time)
	// keeps the engine busy; a big batched request then fills the queue
	// behind it; a third cannot be admitted.
	mega := make([]meraligner.Seq, 0, 4*len(reads))
	for i := 0; i < 4; i++ {
		mega = append(mega, reads...)
	}
	busy := make(chan error, 1)
	go func() {
		_, err := cl.Align(context.Background(), client.AlignRequest{Reads: client.FromSeqs(mega)})
		busy <- err
	}()
	waitUntil(t, "the engine to go busy", func() bool { return srv.single.front.co.Inflight() > 0 })
	queued := make(chan error, 1)
	go func() {
		_, err := cl.Align(context.Background(), client.AlignRequest{Reads: client.FromSeqs(reads[:big])})
		queued <- err
	}()
	waitUntil(t, "the queue to fill", func() bool { return srv.single.front.co.QueuedItems() == big })

	_, err := cl.Align(context.Background(), client.AlignRequest{Reads: client.FromSeqs(reads[:8])})
	var re *client.RetryError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want RetryError (429)", err)
	}
	if re.After <= 0 {
		t.Fatalf("429 without a usable Retry-After: %v", re)
	}
	if err := <-busy; err != nil {
		t.Fatalf("busy request failed: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected < 1 {
		t.Fatalf("stats.Rejected = %d, want >= 1", st.Rejected)
	}
}

// oversizedBody is a FASTQ body just over the request bound, streamed so
// neither side holds it: one-base records whose '+' lines are padded to
// 512 KiB, so the server's line scanner never buffers more than one line.
func oversizedBody() io.Reader {
	rec := []byte("@r\nA\n+" + strings.Repeat("x", 1<<19) + "\nI\n")
	parts := make([]io.Reader, maxRequestBytes/len(rec)+2)
	for i := range parts {
		parts[i] = bytes.NewReader(rec)
	}
	return io.MultiReader(parts...)
}

func TestOversizedBody413(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+"/v1/align", "text/x-fastq", oversizedBody())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "request body too large") {
		t.Fatalf("oversized body returned %d %s, want 413 (split-and-retry signal, not 400)", resp.StatusCode, body)
	}
}

// ---- drain / health ----

func TestDrainGraceful(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d before drain, want 200", resp.StatusCode)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d after drain, want 503", resp.StatusCode)
	}
	_, reads := fixture(t)
	cl := client.New(ts.URL)
	_, err = cl.Align(context.Background(), client.AlignRequest{Reads: client.FromSeqs(reads[:1])})
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("align after drain returned %v, want 503", err)
	}
}

// ---- gzip ----

func TestGzipResponses(t *testing.T) {
	al, reads := fixture(t)
	_, ts := newTestServer(t, nil)

	// DisableCompression keeps net/http from hiding the Content-Encoding.
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/align",
		bytes.NewReader(mustJSON(t, client.AlignRequest{Reads: client.FromSeqs(reads[:2])})))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/x-sam")
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", ce)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if want := directSAM(t, al, reads[:2]); !bytes.Equal(got, want) {
		t.Fatalf("gzipped SAM decodes to a different document:\n%s\nwant:\n%s", got, want)
	}
}

func TestGzipRequestBodySniffed(t *testing.T) {
	_, reads := fixture(t)
	_, ts := newTestServer(t, nil)

	var fq bytes.Buffer
	zw := gzip.NewWriter(&fq)
	fmt.Fprintf(zw, "@%s\n%s\n+\n%s\n", reads[0].Name, reads[0].Seq.String(), strings.Repeat("I", reads[0].Seq.Len()))
	zw.Close()
	resp, err := http.Post(ts.URL+"/v1/align", "application/octet-stream", &fq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("gzipped FASTQ body rejected: %d %s", resp.StatusCode, body)
	}
}

// ---- metrics ----

func TestMetricsExposition(t *testing.T) {
	_, reads := fixture(t)
	_, ts := newTestServer(t, nil)
	cl := client.New(ts.URL)
	if _, err := cl.Align(context.Background(), client.AlignRequest{Reads: client.FromSeqs(reads[:1])}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"merserved_requests_total 1",
		"merserved_reads_total 1",
		"merserved_batches_total",
		"merserved_resident_bytes",
		"merserved_request_duration_seconds_bucket{le=\"+Inf\"} 1\n",
		"merserved_request_duration_seconds_count 1\n",
		"merserved_align_read_duration_seconds_count 1\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, body)
		}
	}
}

// TestDeadlineAdmission: with MinDeadline set, an align request whose
// propagated X-Deadline-Ms budget is below the floor is rejected with 503
// before any parsing, counted, and exported; a comfortable budget is
// admitted normally, and requests without the header are untouched. Both
// align endpoints share the one admission path, so every case holds for
// /v1/align and /v1/align/stream alike.
func TestDeadlineAdmission(t *testing.T) {
	_, reads := fixture(t)
	_, ts := newTestServer(t, func(c *Config) { c.MinDeadline = 50 * time.Millisecond })
	endpoints := []string{"/v1/align", "/v1/align/stream"}

	send := func(path, deadlineMs string) (int, []byte) {
		payload, err := json.Marshal(client.AlignRequest{Reads: client.FromSeqs(reads[:1])})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if deadlineMs != "" {
			req.Header.Set(client.HeaderDeadlineMs, deadlineMs)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	for _, path := range endpoints {
		if code, body := send(path, "5"); code != http.StatusServiceUnavailable || !strings.Contains(string(body), "doomed") {
			t.Fatalf("%s: doomed request = %d %q, want 503 rejection", path, code, body)
		}
	}
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st client.Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.DeadlineRejected != int64(len(endpoints)) {
		t.Fatalf("deadline_rejected = %d, want %d (one per endpoint)", st.DeadlineRejected, len(endpoints))
	}
	for _, path := range endpoints {
		for _, tc := range []struct{ header, what string }{
			{"5000", "well-budgeted"},
			{"", "headerless"},
			{"garbage", "malformed-header (malformed must read as absent)"},
		} {
			if code, body := send(path, tc.header); code != http.StatusOK {
				t.Fatalf("%s: %s request = %d, body %s", path, tc.what, code, body)
			}
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	mbody, _ := io.ReadAll(resp.Body)
	if want := fmt.Sprintf("merserved_deadline_rejected_total %d", len(endpoints)); !strings.Contains(string(mbody), want) {
		t.Fatalf("/metrics lacks %q:\n%s", want, mbody)
	}
}
