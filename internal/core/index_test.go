package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// Build once + N queries must be byte-identical to N one-shot RunThreaded
// calls on the same inputs — the persistent API's headline guarantee.
func TestBuildOnceQueryManyMatchesRunThreaded(t *testing.T) {
	ds := testWorkload(t, 80_000, 3, 0.005)
	opt := testOptions(21)

	ix, err := BuildIndex(3, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][2]int{{0, len(ds.Reads) / 3}, {len(ds.Reads) / 3, 2 * len(ds.Reads) / 3}, {2 * len(ds.Reads) / 3, len(ds.Reads)}}
	for bi, b := range batches {
		batch := ds.Reads[b[0]:b[1]]
		want, err := RunThreaded(3, opt, ds.Contigs, batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Query(context.Background(), 3, opt.QueryOptions, batch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Alignments, got.Alignments) {
			t.Fatalf("batch %d: resident-index alignments differ from one-shot run", bi)
		}
		if want.AlignedReads != got.AlignedReads || want.ExactPathReads != got.ExactPathReads ||
			want.TotalAlignments != got.TotalAlignments || want.SWCalls != got.SWCalls ||
			want.SeedLookups != got.SeedLookups {
			t.Fatalf("batch %d: summary stats differ:\none-shot: %+v\nresident: %+v", bi, want, got)
		}
	}
}

// Query results must not depend on the build worker count, the query worker
// count, or which QueryOptions other calls used.
func TestQueryIndependentOfWorkerCounts(t *testing.T) {
	ds := testWorkload(t, 50_000, 2, 0.004)
	opt := testOptions(21)
	ix1, err := BuildIndex(1, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	ix4, err := BuildIndex(4, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ix1.Query(context.Background(), 1, opt.QueryOptions, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		got, err := ix4.Query(context.Background(), workers, opt.QueryOptions, ds.Reads)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Alignments, got.Alignments) {
			t.Fatalf("build-4/query-%d differs from build-1/query-1", workers)
		}
	}
}

// Concurrent Query calls against one index must be race-clean (the CI race
// job runs this package under -race) and each produce the same results as
// a lone call.
func TestQueryConcurrentCallers(t *testing.T) {
	ds := testWorkload(t, 60_000, 3, 0.004)
	opt := testOptions(21)
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ix.Query(context.Background(), 2, opt.QueryOptions, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 6
	var wg sync.WaitGroup
	errs := make([]error, callers)
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			// Vary the worker count across callers to shake scheduling.
			got, err := ix.Query(context.Background(), 1+c%3, opt.QueryOptions, ds.Reads)
			if err != nil {
				errs[c] = err
				return
			}
			if !reflect.DeepEqual(ref.Alignments, got.Alignments) {
				errs[c] = errors.New("concurrent caller got different alignments")
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", c, err)
		}
	}
}

// A done context stops the pool between work chunks and surfaces ctx.Err().
func TestQueryContextCancellation(t *testing.T) {
	ds := testWorkload(t, 50_000, 3, 0.004)
	opt := testOptions(21)
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: no batch may be claimed
	start := time.Now()
	res, err := ix.Query(ctx, 2, opt.QueryOptions, ds.Reads)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled Query returned results")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("canceled Query took %v", d)
	}

	// Deadline exceeded surfaces the same way.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := ix.Query(dctx, 2, opt.QueryOptions, ds.Reads); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// The per-call Results must carry a genuine wall-clock align phase and the
// seal-time index stats; build phases live on the index.
func TestQueryPerCallPhaseStats(t *testing.T) {
	ds := testWorkload(t, 40_000, 2, 0.004)
	opt := testOptions(21)
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	build := ix.BuildPhases()
	wantBuild := []string{PhaseExtract, PhaseDrain, PhaseMark}
	if len(build) != len(wantBuild) {
		t.Fatalf("build phases = %d, want %d", len(build), len(wantBuild))
	}
	for i, p := range build {
		if p.Name != wantBuild[i] || p.RealWall <= 0 {
			t.Errorf("build phase %d = %q (%.6fs), want %q with measured time", i, p.Name, p.RealWall, wantBuild[i])
		}
	}
	if ix.BuildWall() <= 0 {
		t.Error("BuildWall <= 0")
	}
	if ix.ResidentBytes() <= 0 {
		t.Error("ResidentBytes <= 0")
	}
	res, err := ix.Query(context.Background(), 2, opt.QueryOptions, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 1 || res.Phases[0].Name != PhaseAlign || res.Phases[0].RealWall <= 0 {
		t.Fatalf("per-call phases = %+v, want one measured align phase", res.Phases)
	}
	if res.IndexStats.DistinctSeeds == 0 {
		t.Error("per-call results missing index stats")
	}
	if res.SeedLookups == 0 {
		t.Error("per-call results missing seed lookups")
	}
}

// TestOneShotRunUsesTheBuiltIndex: RunThreaded is BuildIndex + Query with
// the caller's options untouched, so a one-shot run stores every location
// of a repeated seed whatever its threshold, and aligns exactly as a
// build-once index queried at that threshold.
func TestOneShotRunUsesTheBuiltIndex(t *testing.T) {
	const copies = 12
	contigs := syntheticContigs(5, copies, 300)
	unit := syntheticContigs(6, 1, 60)[0].Seq.Codes()
	for i := range contigs {
		codes := contigs[i].Seq.Codes()
		copy(codes[100:], unit)
		contigs[i].Seq = dna.FromCodes(codes)
	}
	c0 := contigs[0].Seq.Codes()
	reads := []seqio.Seq{
		{Name: "spans", Seq: dna.FromCodes(c0[60:200])},
		{Name: "inside", Seq: dna.FromCodes(unit[5:55])},
		{Name: "unique", Seq: dna.FromCodes(contigs[7].Seq.Codes()[180:280])},
	}
	opt := testOptions(21)
	ix, err := BuildIndex(2, opt.IndexOptions, contigs)
	if err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); st.MaxListLen != copies {
		t.Fatalf("built index MaxListLen = %d, want %d", st.MaxListLen, copies)
	}
	for _, hits := range []int{0, 5, 100} {
		opt.MaxSeedHits = hits
		want, err := ix.Query(context.Background(), 2, opt.QueryOptions, reads)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunThreaded(2, opt, contigs, reads)
		if err != nil {
			t.Fatal(err)
		}
		if got.IndexStats.TotalLocs != want.IndexStats.TotalLocs || got.IndexStats.MaxListLen != want.IndexStats.MaxListLen {
			t.Errorf("MaxSeedHits=%d: one-shot index stats %+v, built %+v", hits, got.IndexStats, want.IndexStats)
		}
		if !reflect.DeepEqual(got.Alignments, want.Alignments) {
			t.Errorf("MaxSeedHits=%d: one-shot alignments differ from the built index's:\n%v\n%v", hits, got.Alignments, want.Alignments)
		}
	}
}

func TestBuildIndexValidation(t *testing.T) {
	ds := testWorkload(t, 30_000, 1, 0)
	iopt := testOptions(21).IndexOptions
	if _, err := BuildIndex(0, iopt, ds.Contigs); err == nil {
		t.Error("workers=0 accepted")
	}
	bad := iopt
	bad.K = 0
	if _, err := BuildIndex(2, bad, ds.Contigs); err == nil {
		t.Error("invalid K accepted")
	}
	ix, err := BuildIndex(2, iopt, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Query(context.Background(), 0, testOptions(21).QueryOptions, ds.Reads); err == nil {
		t.Error("query workers=0 accepted")
	}
	badQ := testOptions(21).QueryOptions
	badQ.Scoring.Match = 0
	if _, err := ix.Query(context.Background(), 2, badQ, ds.Reads); err == nil {
		t.Error("invalid query options accepted")
	}
}

// syntheticContigs returns n random contigs of length bases each.
func syntheticContigs(seed int64, n, length int) []seqio.Seq {
	rng := rand.New(rand.NewSource(seed))
	out := make([]seqio.Seq, n)
	for i := range out {
		codes := make([]byte, length)
		for j := range codes {
			codes[j] = byte(rng.Intn(4))
		}
		out[i] = seqio.Seq{Name: fmt.Sprintf("c%d", i), Seq: dna.FromCodes(codes)}
	}
	return out
}

// TestBuildSaveDeterministic: the same targets and options must produce the
// same snapshot bytes whatever the build's worker count and schedule — the
// determinism docs/INDEX_FORMAT.md promises — for the whole index and for
// each of its reference shards. (Workers 1, 2 and 4 all get DefaultShards =
// 16, so the table shape is the same by design; what used to differ was
// in-record padding carried over from the staging buffers.)
func TestBuildSaveDeterministic(t *testing.T) {
	ds := testWorkload(t, 300_000, 1, 0)
	iopt := testOptions(21).IndexOptions
	var ref [][]byte
	for _, workers := range []int{1, 2, 4} {
		ix, err := BuildIndex(workers, iopt, ds.Contigs)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		whole := filepath.Join(dir, "whole.merx")
		if err := ix.Save(whole); err != nil {
			t.Fatal(err)
		}
		shards, err := ix.SaveShards(dir, 3)
		if err != nil {
			t.Fatal(err)
		}
		var files [][]byte
		for _, path := range append([]string{whole}, shards...) {
			files = append(files, readBytes(t, path))
		}
		if ref == nil {
			ref = files
			continue
		}
		for i, got := range files {
			if bytes.Equal(got, ref[i]) {
				continue
			}
			diff := 0
			for j := range got {
				if j >= len(ref[i]) || got[j] != ref[i][j] {
					diff++
				}
			}
			t.Errorf("snapshot %d (0 = whole, then shards) built with %d workers differs from the 1-worker build in %d of %d bytes", i, workers, diff, len(got))
		}
	}
}

// TestBuildIndexAllocs: a build allocates per shard (gather buffer, slot
// array, arena), per worker and shard (a staging buffer grown by append to S
// entries) and per fragment (extract copies each fragment's packed bases) —
// never per seed. The parent of this test's commit allocated a location
// slice for every distinct seed: ~400 000 at the larger size here.
func TestBuildIndexAllocs(t *testing.T) {
	const workers, contigs = 2, 4
	iopt := DefaultIndexOptions(19)
	shards := dht.DefaultShards(workers)
	for _, length := range []int{20_000, 200_000} {
		targets := syntheticContigs(7, contigs, length)
		var ix *ThreadedIndex
		allocs := testing.AllocsPerRun(1, func() {
			var err error
			if ix, err = BuildIndex(workers, iopt, targets); err != nil {
				t.Fatal(err)
			}
		})
		bound := float64(16*shards + 16*workers*shards + ix.ft.NumFragments() + 64)
		t.Logf("%d x %d bp, %d seeds: %.0f allocations per BuildIndex (bound %.0f)", contigs, length, ix.Stats().DistinctSeeds, allocs, bound)
		if allocs > bound {
			t.Errorf("%d x %d bp: BuildIndex allocates %.0f objects, want <= %.0f independent of the seed count", contigs, length, allocs, bound)
		}
	}
}

// BenchmarkBuildIndex times one whole index build (fragment, extract+stage,
// drain, mark, seal) over a 1 Mbp synthetic reference at k = 19.
func BenchmarkBuildIndex(b *testing.B) {
	const workers, k = 2, 19
	targets := syntheticContigs(11, 8, 125_000)
	seeds := 0
	for _, tg := range targets {
		seeds += tg.Seq.Len() - k + 1
	}
	iopt := DefaultIndexOptions(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(workers, iopt, targets); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(seeds), "ns/seed")
}
