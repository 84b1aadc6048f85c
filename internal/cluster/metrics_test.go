package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/service"
)

// scrapeFamilies returns the metric family names (# TYPE lines) of one
// /metrics endpoint.
func scrapeFamilies(t *testing.T, baseURL string, into map[string]bool) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics: %d, %v", baseURL, resp.StatusCode, err)
	}
	helped := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "HELP" {
			helped[f[2]] = true
		} else if len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if !helped[f[2]] {
				t.Errorf("%s: family %s has no # HELP line", baseURL, f[2])
			}
			if into[f[2]] {
				t.Errorf("%s: family %s declared twice", baseURL, f[2])
			}
			into[f[2]] = true
		}
	}
}

// TestMetricInventoryMatchesDocs scrapes all three servers — the align
// server (catalog mode, the superset), a seed-shard node and the router —
// and fails when the set of metric families differs from the inventory
// tables in docs/ARCHITECTURE.md in either direction: a series added
// without documentation, or documentation of a series that is gone.
func TestMetricInventoryMatchesDocs(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	if err := fixWhole.Save(filepath.Join(dir, "ref"+service.SnapshotExt)); err != nil {
		t.Fatal(err)
	}
	cat, err := service.New(service.Config{IndexDir: dir, Query: queryOpts(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(cat)
	defer func() { cts.Close(); cat.Close() }()
	// A served ref makes the per-ref series appear.
	if _, err := client.NewRef(cts.URL, "ref").Align(context.Background(), client.AlignRequest{Reads: client.FromSeqs(fixReads[:4])}); err != nil {
		t.Fatal(err)
	}

	paths, err := fixWhole.SaveSeedShards(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := core.LoadSeedShard(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	seedSrv, err := service.NewSeedShard(service.SeedShardConfig{Shard: sh})
	if err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(seedSrv)
	defer sts.Close()

	rt, rts := newRouter(t, newFleet(t), nil)
	waitReady(t, rt)

	got := map[string]bool{}
	scrapeFamilies(t, cts.URL, got)
	scrapeFamilies(t, sts.URL, got)
	scrapeFamilies(t, rts.URL, got)

	doc, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	start := strings.Index(string(doc), "**Metric inventory.**")
	end := strings.Index(string(doc), "**Debug endpoints.**")
	if start < 0 || end < start {
		t.Fatal("docs/ARCHITECTURE.md: no Metric inventory section before Debug endpoints")
	}
	want := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(mer(?:served|routed)_[a-z0-9_]+)`").FindAllStringSubmatch(string(doc[start:end]), -1) {
		want[m[1]] = true
	}
	var undocumented, stale []string
	for name := range got {
		if !want[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range want {
		if !got[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(stale)
	if len(undocumented) > 0 || len(stale) > 0 {
		t.Fatalf("metric inventory drift against docs/ARCHITECTURE.md:\n  exported but undocumented: %v\n  documented but not exported: %v", undocumented, stale)
	}
}
