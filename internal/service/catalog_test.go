package service

// Catalog-mode end-to-end tests: one Server over a directory of snapshots,
// exercising per-reference serving, byte identity against dedicated
// single-index servers, eviction racing in-flight aligns, hot-swap,
// references taking turns at the call tokens, and drain with a cold
// reference mid-open.
// The concurrency-heavy tests here are part of the -race CI job.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/align"
	"github.com/lbl-repro/meraligner/internal/genome"
)

// ---- fixtures: distinct small references saved as snapshots ----

// catRef is one generated reference: its reads, a resident oracle aligner
// (never part of any catalog), and its snapshot bytes.
type catRef struct {
	name   string
	reads  []meraligner.Seq
	oracle *meraligner.Aligner
	snap   []byte
}

var (
	catOnce sync.Once
	catRefs []*catRef
	catErr  error
)

// catFixture builds three distinct references once per test process.
func catFixture(t *testing.T) []*catRef {
	t.Helper()
	catOnce.Do(func() {
		dir, err := os.MkdirTemp("", "svcat")
		if err != nil {
			catErr = err
			return
		}
		defer os.RemoveAll(dir)
		for i, name := range []string{"alpha", "beta", "gamma"} {
			p := genome.EColiLike()
			p.GenomeLen = 30_000
			p.Depth = 2
			p.ContigMean = 6_000
			p.InsertMean = 0
			p.Seed = int64(301 + i)
			ds, err := genome.Generate(p)
			if err != nil {
				catErr = err
				return
			}
			al, err := meraligner.Build(2, meraligner.DefaultIndexOptions(19), ds.Contigs)
			if err != nil {
				catErr = err
				return
			}
			path := filepath.Join(dir, name+SnapshotExt)
			if err := al.Save(path); err != nil {
				catErr = err
				return
			}
			snap, err := os.ReadFile(path)
			if err != nil {
				catErr = err
				return
			}
			catRefs = append(catRefs, &catRef{name: name, reads: ds.Reads, oracle: al, snap: snap})
		}
	})
	if catErr != nil {
		t.Fatal(catErr)
	}
	return catRefs
}

// catDir materializes the fixture snapshots into a fresh catalog dir.
func catDir(t *testing.T, refs []*catRef) string {
	t.Helper()
	dir := t.TempDir()
	for _, r := range refs {
		if err := os.WriteFile(filepath.Join(dir, r.name+SnapshotExt), r.snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// replaceSnapshot swaps dir/<ref>.merx for blob the only legal way:
// write-to-temp then atomic rename.
func replaceSnapshot(t *testing.T, dir, ref string, blob []byte) {
	t.Helper()
	tmp := filepath.Join(dir, "."+ref+".tmp")
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ref+SnapshotExt)); err != nil {
		t.Fatal(err)
	}
}

// newCatalogServer builds a catalog-mode Server (tweaked by mod) behind
// httptest, returning the snapshot directory it serves.
func newCatalogServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server, string) {
	t.Helper()
	dir := catDir(t, catFixture(t))
	cfg := Config{IndexDir: dir, Query: queryOpts(), Workers: 2, SwapPoll: time.Nanosecond, Version: "test"}
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
	return srv, ts, dir
}

// snapshotBytes measures one fixture's mapped footprint, the unit of the
// catalog's residency budget.
func snapshotBytes(t *testing.T, r *catRef) int64 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.merx")
	if err := os.WriteFile(path, r.snap, 0o644); err != nil {
		t.Fatal(err)
	}
	al, err := meraligner.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer al.Close()
	return al.ResidentBytes()
}

// ---- byte identity against dedicated single-index servers ----

// TestCatalogMatchesDedicatedSingleIndexServers: for every reference, the
// catalog server's /v1/<ref>/align responses (SAM and JSON) must be
// byte-identical to a dedicated single-index merserved mapped over the very
// same snapshot file.
func TestCatalogMatchesDedicatedSingleIndexServers(t *testing.T) {
	refs := catFixture(t)
	_, ts, dir := newCatalogServer(t, nil)

	for _, r := range refs {
		// The dedicated server maps the same snapshot the catalog serves.
		al, err := meraligner.Open(filepath.Join(dir, r.name+SnapshotExt))
		if err != nil {
			t.Fatal(err)
		}
		single, err := New(Config{Aligner: al, Query: queryOpts(), Workers: 2, Version: "test"})
		if err != nil {
			t.Fatal(err)
		}
		sts := httptest.NewServer(single)

		req := client.AlignRequest{Reads: client.FromSeqs(r.reads[:12])}
		catCl := client.NewRef(ts.URL, r.name)
		singleCl := client.New(sts.URL)

		gotSAM, err := catCl.AlignSAM(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: catalog AlignSAM: %v", r.name, err)
		}
		wantSAM, err := singleCl.AlignSAM(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: single AlignSAM: %v", r.name, err)
		}
		if !bytes.Equal(gotSAM, wantSAM) {
			t.Fatalf("%s: catalog SAM diverges from the dedicated single-index server", r.name)
		}
		if want := directSAM(t, r.oracle, r.reads[:12]); !bytes.Equal(gotSAM, want) {
			t.Fatalf("%s: catalog SAM diverges from the direct-align oracle", r.name)
		}

		gotJSON, err := catCl.Align(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: catalog Align: %v", r.name, err)
		}
		wantJSON, err := singleCl.Align(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: single Align: %v", r.name, err)
		}
		g := mustJSON(t, gotJSON)
		w := mustJSON(t, wantJSON)
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: catalog JSON diverges from the dedicated server\ngot:  %s\nwant: %s", r.name, g, w)
		}

		sts.Close()
		single.Close()
		al.Close()
	}
}

// ---- concurrency: three references at once, under -race ----

func TestCatalogThreeRefsConcurrently(t *testing.T) {
	refs := catFixture(t)
	srv, ts, _ := newCatalogServer(t, nil)

	// Oracles computed up front: worker goroutines never touch t.
	const batch = 6
	wants := make(map[string][]byte, len(refs))
	for _, r := range refs {
		wants[r.name] = directSAM(t, r.oracle, r.reads[:batch])
	}

	var wg sync.WaitGroup
	errc := make(chan error, len(refs)*4)
	for _, r := range refs {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(r *catRef) {
				defer wg.Done()
				cl := client.NewRef(ts.URL, r.name)
				for n := 0; n < 6; n++ {
					got, err := cl.AlignSAM(context.Background(), client.AlignRequest{Reads: client.FromSeqs(r.reads[:batch])})
					if err != nil {
						errc <- fmt.Errorf("%s: %v", r.name, err)
						return
					}
					if !bytes.Equal(got, wants[r.name]) {
						errc <- fmt.Errorf("%s: response diverged from its oracle under cross-ref concurrency", r.name)
						return
					}
				}
			}(r)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	cs := srv.CatalogSnapshot()
	if len(cs.Refs) != len(refs) {
		t.Fatalf("%d per-ref stat rows, want %d: %+v", len(cs.Refs), len(refs), cs.Refs)
	}
	for _, st := range cs.Refs {
		if st.Requests != 24 {
			t.Errorf("ref %s served %d requests, want 24", st.Ref, st.Requests)
		}
	}
}

// ---- eviction racing in-flight aligns ----

// TestCatalogEvictionRacesInflight pins the budget to ~1.5 indexes so every
// alternation between references evicts the other, while goroutines keep
// aligning on both. Responses must stay byte-identical throughout: eviction
// retires an index, it never closes one mid-batch.
func TestCatalogEvictionRacesInflight(t *testing.T) {
	refs := catFixture(t)
	one := snapshotBytes(t, refs[0])
	srv, ts, _ := newCatalogServer(t, func(c *Config) {
		c.ResidentBudget = one + one/2
	})

	const batch = 5
	wants := make(map[string][]byte, 2)
	for _, r := range refs[:2] {
		wants[r.name] = directSAM(t, r.oracle, r.reads[:batch])
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 10; n++ {
				r := refs[(g+n)%2] // alternate alpha/beta against the tight budget
				cl := client.NewRef(ts.URL, r.name)
				got, err := cl.AlignSAM(context.Background(), client.AlignRequest{Reads: client.FromSeqs(r.reads[:batch])})
				if err != nil {
					errc <- fmt.Errorf("%s: %v", r.name, err)
					return
				}
				if !bytes.Equal(got, wants[r.name]) {
					errc <- fmt.Errorf("%s: response diverged while evictions raced in-flight aligns", r.name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	cat := srv.CatalogSnapshot().Catalog
	if cat.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget; pressure was never exercised: %+v", one+one/2, cat)
	}
	if cat.ResidentBytes > one+one/2 {
		t.Fatalf("%d resident bytes charged over the %d budget", cat.ResidentBytes, one+one/2)
	}
}

// ---- hot-swap ----

// TestCatalogHotSwapServesNewSnapshot replaces a served snapshot by atomic
// rename and requires the very next request to return the new index's
// bytes, with zero failed requests in between.
func TestCatalogHotSwapServesNewSnapshot(t *testing.T) {
	refs := catFixture(t)
	srv, ts, dir := newCatalogServer(t, nil)
	cl := client.NewRef(ts.URL, refs[0].name)

	// Probe reads drawn from alpha's genome; both oracles can align them.
	probe := refs[0].reads[:8]
	req := client.AlignRequest{Reads: client.FromSeqs(probe)}

	got, err := cl.AlignSAM(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want := directSAM(t, refs[0].oracle, probe); !bytes.Equal(got, want) {
		t.Fatal("pre-swap response diverges from the old oracle")
	}

	// Atomically replace alpha's snapshot with beta's index.
	replaceSnapshot(t, dir, refs[0].name, refs[1].snap)

	got, err = cl.AlignSAM(context.Background(), req)
	if err != nil {
		t.Fatalf("first post-swap request failed: %v", err)
	}
	if want := directSAM(t, refs[1].oracle, probe); !bytes.Equal(got, want) {
		t.Fatal("post-swap response is not the new snapshot's bytes")
	}
	if cat := srv.CatalogSnapshot().Catalog; cat.HotSwaps == 0 {
		t.Fatalf("swap served new bytes but the hot-swap counter never moved: %+v", cat)
	}
}

// ---- references take turns at the call tokens ----

// TestCatalogReferencesTakeTurns: one reference's backlog cannot starve
// another's. With one engine worker held by an alpha call, four more
// MaxBatch-read alpha requests fill alpha's queue (a fifth gets 429, while
// beta's queue is untouched), then beta sends one read. Each reference has
// one dispatcher waiting for the token, so at most one alpha call may start
// between beta's arrival and beta's call. Every request is a substring of
// its reference with one substitution (it reaches extension) and a length
// of its own, so the length of the query a call first extends names the
// request; that first extension is held until the test lets the call go.
func TestCatalogReferencesTakeTurns(t *testing.T) {
	const maxBatch = 2
	lengths := make(chan int)
	release, stop := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	last := -1
	srv, ts, _ := newCatalogServer(t, func(c *Config) {
		c.Workers = 1
		c.MaxBatch = maxBatch
		c.Query.Extend = func(query, target []byte, qOff, tOff, k int, sc align.Scoring, pad int) align.Result {
			mu.Lock()
			first := len(query) != last
			last = len(query)
			mu.Unlock()
			if first {
				select {
				case lengths <- len(query):
					select {
					case <-release:
					case <-stop:
					}
				case <-stop:
				}
			}
			return align.ExtendSeed(query, target, qOff, tOff, k, sc, pad)
		}
	})
	t.Cleanup(func() { close(stop) }) // before the server's: a failed test leaves no call held
	refs := catFixture(t)
	// request cuts n bases of ref's longest target, with one substitution,
	// and sends it maxBatch times over (a call of its own) or once.
	request := func(ref *catRef, n, copies int) client.AlignRequest {
		var tg meraligner.Seq
		for _, s := range ref.oracle.Targets() {
			if s.Seq.Len() > tg.Seq.Len() {
				tg = s
			}
		}
		b := []byte(tg.Seq.String()[500 : 500+n])
		b[50] = "CAAA"[strings.IndexByte("ACGT", b[50])]
		read, err := meraligner.NewSeq(fmt.Sprintf("len%d", n), string(b))
		if err != nil {
			t.Fatal(err)
		}
		reads := make([]meraligner.Seq, copies)
		for i := range reads {
			reads[i] = read
		}
		return client.AlignRequest{Reads: client.FromSeqs(reads)}
	}
	alpha, beta := refs[0], refs[1]
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	send := func(ref *catRef, req client.AlignRequest) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.NewRef(ts.URL, ref.name).Align(context.Background(), req); err != nil {
				errc <- fmt.Errorf("%s: %v", ref.name, err)
			}
		}()
	}

	send(alpha, request(alpha, 100, maxBatch))
	if n := <-lengths; n != 100 {
		t.Fatalf("first call extends a %d-base query, want the 100-base blocker", n)
	}
	for i := 1; i <= 4; i++ {
		send(alpha, request(alpha, 100-i, maxBatch))
	}
	ta, err := srv.tenantFor(alpha.name)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "alpha's queue to fill", func() bool { return ta.front.co.QueuedItems() == 4*maxBatch })

	// alpha's full queue refuses; beta's is its own.
	resp, err := http.Post(ts.URL+"/v1/"+alpha.name+"/align", "application/json", bytes.NewReader(mustJSON(t, request(alpha, 90, maxBatch))))
	if err != nil {
		t.Fatal(err)
	}
	var er client.ErrorResponse
	decodeErr := json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" || decodeErr != nil || er.Error == "" {
		t.Fatalf("request behind alpha's full queue = %d (Retry-After %q, error %q, decode %v), want 429 with Retry-After and a JSON error",
			resp.StatusCode, resp.Header.Get("Retry-After"), er.Error, decodeErr)
	}
	send(beta, request(beta, 80, 1))
	tb, err := srv.tenantFor(beta.name)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "beta's read to queue", func() bool { return tb.front.co.QueuedItems() == 1 })
	time.Sleep(50 * time.Millisecond) // beta's dispatcher reaches the token

	var order []int
	release <- struct{}{} // the blocker finishes
	for range 5 {
		order = append(order, <-lengths)
		release <- struct{}{}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if i := slices.Index(order, 80); i < 0 || i > 1 {
		t.Fatalf("calls after beta's arrival extended queries of lengths %v: beta's (80) ran after %d alpha calls, want at most 1", order, i)
	}
}

// ---- drain racing a cold-reference open ----

// TestCatalogDrainWithColdRefMidOpen races Drain against a request that
// forces a cold snapshot open. Either outcome is legal — the request
// completes with correct bytes or is refused 503 — but the drain must
// finish clean, nothing may hang, and afterwards every request is 503.
func TestCatalogDrainWithColdRefMidOpen(t *testing.T) {
	refs := catFixture(t)
	srv, ts, _ := newCatalogServer(t, nil)

	// Touch alpha so drain has a warm tenant to flush too.
	cl := client.NewRef(ts.URL, refs[0].name)
	if _, err := cl.Align(context.Background(), client.AlignRequest{Reads: client.FromSeqs(refs[0].reads[:2])}); err != nil {
		t.Fatal(err)
	}

	coldDone := make(chan error, 1)
	go func() {
		// gamma was never opened: this request races the drain through the
		// catalog's cold-open path.
		got, err := client.NewRef(ts.URL, refs[2].name).AlignSAM(context.Background(), client.AlignRequest{Reads: client.FromSeqs(refs[2].reads[:4])})
		if err != nil {
			coldDone <- nil // refused by the drain: legal, as long as it was typed
			return
		}
		if want := directSAM(t, refs[2].oracle, refs[2].reads[:4]); !bytes.Equal(got, want) {
			coldDone <- fmt.Errorf("cold-ref response during drain diverged from its oracle")
			return
		}
		coldDone <- nil
	}()

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case err := <-coldDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cold-ref request hung across the drain")
	}

	// Drained server refuses everything, typed.
	resp, err := http.Post(ts.URL+"/v1/"+refs[0].name+"/align", "application/json",
		bytes.NewReader(mustJSON(t, client.AlignRequest{Reads: client.FromSeqs(refs[0].reads[:1])})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain align status %d, want 503", resp.StatusCode)
	}
	if err := client.New(ts.URL).Health(context.Background()); err == nil {
		t.Fatal("healthz reported healthy after drain")
	}
}

// ---- observability surface ----

func TestCatalogStatsRefsAndMetrics(t *testing.T) {
	refs := catFixture(t)
	srv, ts, _ := newCatalogServer(t, nil)
	for _, r := range refs[:2] {
		if _, err := client.NewRef(ts.URL, r.name).Align(context.Background(), client.AlignRequest{Reads: client.FromSeqs(r.reads[:3])}); err != nil {
			t.Fatal(err)
		}
	}
	cl := client.New(ts.URL)

	infos, err := cl.Refs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(refs) {
		t.Fatalf("/v1/refs listed %d references, want %d: %+v", len(infos), len(refs), infos)
	}
	open := map[string]bool{}
	for _, in := range infos {
		open[in.Ref] = in.Open
	}
	if !open["alpha"] || !open["beta"] || open["gamma"] {
		t.Fatalf("open flags wrong: %+v", infos)
	}

	cs, err := cl.CatalogStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs.Catalog.OpenRefs != 2 || cs.Catalog.Opens < 2 {
		t.Fatalf("catalog counters wrong: %+v", cs.Catalog)
	}
	if len(cs.Refs) != 2 {
		t.Fatalf("%d per-ref stat rows, want 2: %+v", len(cs.Refs), cs.Refs)
	}
	for _, st := range cs.Refs {
		if st.Ref == "" || st.Requests != 1 || st.K != 19 {
			t.Fatalf("per-ref stats row malformed: %+v", st)
		}
	}

	// Per-reference stats endpoint, including a listed-but-cold reference.
	pst, err := client.NewRef(ts.URL, "alpha").Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pst.Ref != "alpha" || pst.Requests != 1 {
		t.Fatalf("/v1/alpha/stats: %+v", pst)
	}
	cold, err := client.NewRef(ts.URL, "gamma").Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Ref != "gamma" || cold.Requests != 0 {
		t.Fatalf("/v1/gamma/stats for a cold listed ref: %+v", cold)
	}

	// Unknown references are 404 everywhere.
	resp, err := http.Post(ts.URL+"/v1/nosuch/align", "application/json",
		bytes.NewReader(mustJSON(t, client.AlignRequest{Reads: client.FromSeqs(refs[0].reads[:1])})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ref align status %d, want 404", resp.StatusCode)
	}
	var served int64
	for _, st := range srv.CatalogSnapshot().Refs {
		served += st.Requests
	}
	if served != 2 {
		t.Fatalf("CatalogSnapshot Refs served %d requests, want 2", served)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mbuf bytes.Buffer
	if _, err := mbuf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	m := mbuf.String()
	for _, want := range []string{
		`merserved_requests_total{ref="alpha"} 1`,
		`merserved_requests_total{ref="beta"} 1`,
		"merserved_catalog_open_refs 2",
		"merserved_catalog_opens_total",
		"merserved_catalog_evictions_total 0",
	} {
		if !bytes.Contains(mbuf.Bytes(), []byte(want)) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, m)
		}
	}
}
