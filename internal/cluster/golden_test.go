package cluster

import (
	"bytes"
	"context"
	"flag"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/service"
)

// Golden documents: the bytes every output face emitted at the commit before
// the faces were folded onto one hit record and one SAM renderer. The files
// under testdata/golden were captured there with -update-golden and are
// compared byte for byte; regenerate them only for a deliberate change of
// output format, never to make a refactor pass.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from this build's output")

// goldenReads is a fixed repeat-rich workload: a wheat-like profile (25 %
// of the genome in copies of a few repeat units, 3 % substitution errors,
// both strands) whose reads get asymmetric qualities, plus one read with a
// deletion, one with an insertion, and one that aligns nowhere. The 3-shard
// fleet agrees with the single node, here as on any reference, so the
// router's documents share the single node's golden files.
func goldenReads(t *testing.T) (contigs, reads []meraligner.Seq) {
	t.Helper()
	p := genome.WheatLike(40_000)
	p.RepeatUnits = 4
	p.RepeatUnitLen = 400
	p.ContigMean = 3_000
	p.ReadLen = 100
	p.Depth = 0.16
	p.ErrorRate = 0.03
	p.InsertMean = 0
	p.Seed = 21
	ds, err := genome.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	reads = ds.Reads
	edit := func(name string, src meraligner.Seq, cut, insert int) {
		codes := src.Seq.Codes()
		mid := len(codes) / 2
		out := append([]byte(nil), codes[:mid]...)
		for i := 0; i < insert; i++ {
			out = append(out, byte((i+1)&3))
		}
		out = append(out, codes[mid+cut:]...)
		reads = append(reads, meraligner.Seq{Name: name, Seq: dna.FromCodes(out)})
	}
	edit("deleted_2", ds.Reads[0], 2, 0)
	edit("inserted_3", ds.Reads[1], 0, 3)
	reads = append(reads, meraligner.Seq{Name: "nowhere", Seq: dna.Random(rand.New(rand.NewSource(99)), 100)})
	for i := range reads {
		q := make([]byte, reads[i].Seq.Len())
		for j := range q {
			q[j] = byte('!' + (j*7+i*13)%60)
		}
		reads[i].Qual = q
	}
	return ds.Contigs, reads
}

// serveAligner serves al as one merserved node with query options q, 16
// reads a batch, and returns its base URL.
func serveAligner(t *testing.T, al *meraligner.Aligner, q meraligner.QueryOptions) string {
	t.Helper()
	srv, err := service.New(service.Config{Aligner: al, Query: q, Workers: 2, FrontConfig: service.FrontConfig{MaxBatch: 16}, Version: "test"})
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

// goldenPost posts reads as a JSON align request and returns the 200 body.
func goldenPost(t *testing.T, endpoint, accept string, reads []meraligner.Seq) []byte {
	t.Helper()
	code, body := postTo(t, endpoint, reads, accept)
	if code != http.StatusOK {
		t.Fatalf("POST %s (%s): status %d: %s", endpoint, accept, code, body)
	}
	return body
}

func TestGoldenOutputFaces(t *testing.T) {
	contigs, reads := goldenReads(t)
	iopt := meraligner.DefaultIndexOptions(19)
	whole, err := meraligner.Build(2, iopt, contigs)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()

	single := serveAligner(t, whole, queryOpts())
	paths, err := meraligner.SaveShards(2, iopt, contigs, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var fleet []string
	for _, path := range paths {
		sa, err := meraligner.OpenThreads(2, path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sa.Close() })
		fleet = append(fleet, serveAligner(t, sa, queryOpts()))
	}
	rt, rts := newRouter(t, fleet, nil)
	waitReady(t, rt)

	res, err := whole.Align(context.Background(), reads, queryOpts())
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if err := meraligner.WriteSAM(&local, res, whole.Targets(), reads); err != nil {
		t.Fatal(err)
	}

	// One golden file per distinct document; faces that must agree share one.
	faces := []struct {
		face, file string
		got        []byte
	}{
		{"WriteSAM", "single.sam", local.Bytes()},
		{"/v1/align SAM", "single.sam", goldenPost(t, single+"/v1/align", "text/x-sam", reads)},
		{"/v1/align/stream SAM", "single.sam", goldenPost(t, single+"/v1/align/stream", "text/x-sam", reads)},
		{"merrouted SAM", "single.sam", goldenPost(t, rts.URL+"/v1/align", "text/x-sam", reads)},
		{"/v1/align JSON", "single.json", goldenPost(t, single+"/v1/align", "application/json", reads)},
		{"/v1/align/stream NDJSON", "single.ndjson", goldenPost(t, single+"/v1/align/stream", "application/x-ndjson", reads)},
		{"merrouted JSON", "single.json", goldenPost(t, rts.URL+"/v1/align", "application/json", reads)},
	}
	written := map[string]bool{}
	for _, f := range faces {
		path := filepath.Join("testdata", "golden", f.file)
		if *updateGolden && !written[f.file] {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			written[f.file] = true
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.got, want) {
			t.Errorf("%s: %d bytes differ from %s (%d bytes); first divergence:\n%s",
				f.face, len(f.got), path, len(want), firstDivergence(f.got, want))
		}
	}

	// The workload must keep exercising every record shape the renderer has.
	flags := map[string]int{}
	var clipped, ins, del bool
	for _, line := range strings.Split(local.String(), "\n") {
		f := strings.Split(line, "\t")
		if len(f) < 11 || strings.HasPrefix(line, "@") {
			continue
		}
		flags[f[1]]++
		clipped = clipped || strings.Contains(f[5], "S")
		ins = ins || strings.Contains(f[5], "I")
		del = del || strings.Contains(f[5], "D")
		if f[10] == "*" {
			t.Errorf("record without qualities: %q", line)
		}
	}
	for _, fl := range []string{"0", "16", "256", "272", "4"} {
		if flags[fl] == 0 {
			t.Errorf("golden workload has no record with flag %s (have %v)", fl, flags)
		}
	}
	if !clipped || !ins || !del {
		t.Errorf("golden workload lost coverage: clipped=%v insertion=%v deletion=%v", clipped, ins, del)
	}
}

// firstDivergence shows the first line on which two documents differ.
func firstDivergence(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "line " + strconv.Itoa(i+1) + "\n got: " + g[i] + "\nwant: " + w[i]
		}
	}
	return "documents agree up to the shorter one's end (" + strconv.Itoa(min(len(g), len(w))) + " lines)"
}
