package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/align"
)

// TestCallBoundEffectiveEverywhere: the bound on engine calls in flight is
// the server's Workers, and every stats document reports it as max_calls —
// single-index and catalog mode alike, before and after a reference is
// first queried.
func TestCallBoundEffectiveEverywhere(t *testing.T) {
	ctx := context.Background()
	al, _ := fixture(t)
	for _, tc := range []struct{ set, single int }{
		{0, al.Threads()},
		{1, 1},
		{3, 3},
	} {
		check := func(where string, st client.Stats, want int) {
			t.Helper()
			if st.MaxCalls != want {
				t.Errorf("Workers %d: %s max_calls = %d, want %d", tc.set, where, st.MaxCalls, want)
			}
		}
		fetch := func(cl *client.Client) client.Stats {
			t.Helper()
			st, err := cl.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return *st
		}
		mod := func(c *Config) { c.Workers = tc.set }

		_, ts := newTestServer(t, mod)
		check("/v1/stats", fetch(client.New(ts.URL)), tc.single)

		cat, cts, _ := newCatalogServer(t, mod)
		want := cat.cfg.Workers
		if tc.set > 0 && want != tc.set {
			t.Fatalf("Workers %d: catalog server runs %d workers", tc.set, want)
		}
		ref := catFixture(t)[0]
		rc := client.NewRef(cts.URL, ref.name)
		check("catalog Snapshot", cat.Snapshot(), want)
		check("unqueried /v1/{ref}/stats", fetch(rc), want)
		if _, err := rc.Align(ctx, client.AlignRequest{Reads: client.FromSeqs(ref.reads[:1])}); err != nil {
			t.Fatal(err)
		}
		check("queried /v1/{ref}/stats", fetch(rc), want)
		check("CatalogSnapshot Refs", cat.CatalogSnapshot().Refs[0], want)
	}
}

// TestCatalogSharesOneCallBound: every reference's queue draws on one pool
// of Workers call tokens, so two references under concurrent load never run
// more than Workers engine calls at once. Requests are one read with one
// substitution (it misses the exact path and reaches extension), and
// MaxBatch 8 keeps each call one claim on one goroutine, so extensions
// running at once count calls running at once.
func TestCatalogSharesOneCallBound(t *testing.T) {
	const workers = 2
	var running, peak atomic.Int32
	_, ts, _ := newCatalogServer(t, func(c *Config) {
		c.Workers = workers
		c.MaxBatch = 8
		c.Query.Extend = func(query, target []byte, qOff, tOff, k int, sc align.Scoring, pad int) align.Result {
			n := running.Add(1)
			defer running.Add(-1)
			for cur := peak.Load(); n > cur && !peak.CompareAndSwap(cur, n); cur = peak.Load() {
			}
			time.Sleep(200 * time.Microsecond) // long enough for calls to overlap
			return align.ExtendSeed(query, target, qOff, tOff, k, sc, pad)
		}
	})
	refs := catFixture(t)[:2]
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for _, r := range refs {
		b := []byte(r.reads[0].Seq.String())
		b[len(b)/2] = "CAAA"[strings.IndexByte("ACGT", b[len(b)/2])]
		read, err := meraligner.NewSeq("mutated", string(b))
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := client.NewRef(ts.URL, r.name)
				for n := 0; n < 10; n++ {
					if _, err := cl.Align(context.Background(), client.AlignRequest{Reads: client.FromSeqs([]meraligner.Seq{read})}); err != nil {
						errc <- fmt.Errorf("%s: %v", r.name, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if p := peak.Load(); p < 1 || p > workers {
		t.Fatalf("%d engine calls ran at once across two references, want 1..%d", p, workers)
	}
}
