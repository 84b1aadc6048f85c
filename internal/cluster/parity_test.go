package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/genome"
)

// TestRouterMatchesSingleNodeOnRepeats: on a 25 %-repeat reference, where
// repeat copies straddle every shard boundary, a fleet of any size answers
// every read as one whole-reference node does — SAM, and JSON down to the
// exact flag. Each reference shard answers with whole-reference seed counts
// and single-copy flags, so its §IV-A and §IV-C decisions are the node's,
// and the router keeps a read's exact hit alone, as the node's exact path
// does. Two seed-hit thresholds: the fixture's 200, and 2, which repeat
// seeds pass within one shard but not over the whole reference.
func TestRouterMatchesSingleNodeOnRepeats(t *testing.T) {
	p := genome.WheatLike(200_000)
	p.Depth = 2
	p.InsertMean = 0
	p.Seed = 7
	ds, err := genome.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	iopt := meraligner.DefaultIndexOptions(19)
	whole, err := meraligner.Build(2, iopt, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	queries := []meraligner.QueryOptions{queryOpts(), queryOpts()}
	queries[1].MaxSeedHits = 2
	var wantSAM, wantJSON [][]byte
	for _, q := range queries {
		single := serveAligner(t, whole, q)
		wantSAM = append(wantSAM, goldenPost(t, single+"/v1/align", "text/x-sam", ds.Reads))
		wantJSON = append(wantJSON, goldenPost(t, single+"/v1/align", "application/json", ds.Reads))
	}

	for _, n := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("%d shards", n), func(t *testing.T) {
			paths, err := meraligner.SaveShards(2, iopt, ds.Contigs, n, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var shards []*meraligner.Aligner
			for _, path := range paths {
				sa, err := meraligner.OpenThreads(2, path)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { sa.Close() })
				shards = append(shards, sa)
			}
			for i, q := range queries {
				var fleet []string
				for _, sa := range shards {
					fleet = append(fleet, serveAligner(t, sa, q))
				}
				rt, rts := newRouter(t, fleet, nil)
				waitReady(t, rt)
				if got := goldenPost(t, rts.URL+"/v1/align", "text/x-sam", ds.Reads); !bytes.Equal(got, wantSAM[i]) {
					t.Errorf("MaxSeedHits %d: SAM differs from one node's; first divergence:\n%s", q.MaxSeedHits, firstDivergence(got, wantSAM[i]))
				}
				if got := goldenPost(t, rts.URL+"/v1/align", "application/json", ds.Reads); !bytes.Equal(got, wantJSON[i]) {
					t.Errorf("MaxSeedHits %d: JSON differs from one node's: %s", q.MaxSeedHits, readDivergence(t, got, wantJSON[i]))
				}
			}
		})
	}
}

// readDivergence counts the reads on which two JSON align responses differ
// and shows the first of them.
func readDivergence(t *testing.T, got, want []byte) string {
	t.Helper()
	var g, w client.AlignResponse
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	if len(g.Reads) != len(w.Reads) {
		return fmt.Sprintf("%d reads, want %d", len(g.Reads), len(w.Reads))
	}
	n, first := 0, ""
	for i := range w.Reads {
		a, b := mustJSON(t, g.Reads[i]), mustJSON(t, w.Reads[i])
		if bytes.Equal(a, b) {
			continue
		}
		if n++; first == "" {
			first = fmt.Sprintf("\n got: %s\nwant: %s", a, b)
		}
	}
	return fmt.Sprintf("%d of %d reads differ; the first:%s", n, len(w.Reads), first)
}
