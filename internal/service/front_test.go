package service

import (
	"context"
	"testing"
	"time"

	"github.com/lbl-repro/meraligner/client"
)

// TestMaxWaitEffectiveEverywhere: the front-door defaults apply once, so
// what a caller sets for MaxWait is what every reference's queue runs with
// and what every stats document reports — unset is 2ms, negative disables
// window-holding (0), in single-index and catalog mode alike.
func TestMaxWaitEffectiveEverywhere(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ set, want time.Duration }{
		{0, 2 * time.Millisecond},
		{-1, 0},
		{-time.Millisecond, 0},
		{7 * time.Millisecond, 7 * time.Millisecond},
	} {
		wantMs := float64(tc.want) / float64(time.Millisecond)
		check := func(where string, st client.Stats) {
			t.Helper()
			if st.MaxWaitMs != wantMs {
				t.Errorf("MaxWait %v: %s max_wait_ms = %v, want %v", tc.set, where, st.MaxWaitMs, wantMs)
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
		mod := func(c *Config) { c.MaxWait = tc.set }

		srv, ts := newTestServer(t, mod)
		if got := srv.single.front.cfg.MaxWait; got != tc.want {
			t.Errorf("MaxWait %v: single-index front runs with %v, want %v", tc.set, got, tc.want)
		}
		check("/v1/stats", fetch(client.New(ts.URL)))

		cat, cts, _ := newCatalogServer(t, mod)
		ref := catFixture(t)[0]
		rc := client.NewRef(cts.URL, ref.name)
		check("catalog Snapshot", cat.Snapshot())
		check("unqueried /v1/{ref}/stats", fetch(rc))
		if _, err := rc.Align(ctx, client.AlignRequest{Reads: client.FromSeqs(ref.reads[:1])}); err != nil {
			t.Fatal(err)
		}
		cat.tmu.Lock()
		tn := cat.tenants[ref.name]
		cat.tmu.Unlock()
		if got := tn.front.cfg.MaxWait; got != tc.want {
			t.Errorf("MaxWait %v: catalog front runs with %v, want %v", tc.set, got, tc.want)
		}
		check("queried /v1/{ref}/stats", fetch(rc))
		check("CatalogSnapshot Refs", cat.CatalogSnapshot().Refs[0])
	}
}
