package meraligner_test

// Distributed-parity harness for the network seed DHT: the acceptance
// property of the whole tier is that aligning with seed lookups resolved
// against a remote seed-shard fleet produces byte-identical SAM to the
// local engine — across shard counts, the size of the seed groups handed to
// the client per call, concurrent claims from several workers, seed
// lengths, and location-list caps. Seed partitioning must be invisible to
// alignment output.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/dhtnet"
	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/service"
)

// clientQuickRetry keeps failure-path tests from waiting out production
// backoffs.
func clientQuickRetry() client.RetryPolicy {
	return client.RetryPolicy{
		MaxAttempts: 2,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    10 * time.Millisecond,
	}
}

// dhtParityWorkload is a small reference + read set shared by every parity
// case; deterministic so the local baseline is stable across subtests.
func dhtParityWorkload(t *testing.T) *genome.DataSet {
	t.Helper()
	p := genome.EColiLike()
	p.GenomeLen = 40_000
	p.Depth = 1
	p.ContigMean = 5_000
	p.InsertMean = 0
	p.Seed = 77
	ds, err := genome.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// serveSeedFleet partitions al's seed table into count shard snapshots,
// serves each over httptest, and returns a warmed dhtnet client.
func serveSeedFleet(t *testing.T, al *meraligner.Aligner, count int) *dhtnet.Client {
	t.Helper()
	paths, err := al.SaveSeedShards(t.TempDir(), count)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := al.SeedPartitionFingerprint(count)
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]string, count)
	for i, p := range paths {
		sh, err := core.LoadSeedShard(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() })
		srv, err := service.NewSeedShard(service.SeedShardConfig{Shard: sh})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		owners[i] = ts.URL
	}
	c, err := dhtnet.New(dhtnet.Config{
		Owners:      owners,
		K:           al.IndexOptions().K,
		Shards:      al.SeedTableShards(),
		Fingerprint: fp,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	return c
}

// alignSAM runs one AlignWorkers call and renders the result as SAM bytes.
func alignSAM(t *testing.T, al *meraligner.Aligner, ds *genome.DataSet, workers int, qopt meraligner.QueryOptions) []byte {
	t.Helper()
	res, err := al.AlignWorkers(context.Background(), workers, ds.Reads, qopt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := meraligner.WriteSAM(&buf, res, al.Targets(), ds.Reads); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// splitResolver hands the client each claim's seeds in groups of at most
// max, one ResolveSeeds call per group, so the parity table can vary how
// finely a caller batches its lookups.
type splitResolver struct {
	inner core.SeedResolver
	max   int
}

func (r splitResolver) ResolveSeeds(ctx context.Context, seeds []kmer.Kmer, out []core.SeedAnswer) error {
	for lo := 0; lo < len(seeds); lo += r.max {
		hi := min(lo+r.max, len(seeds))
		if err := r.inner.ResolveSeeds(ctx, seeds[lo:hi], out[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// TestDHTNetAlignmentParity is the distributed-parity table: every
// (k, shard count, seed group size, MaxSeedHits cap) combination must emit
// SAM byte-identical to the purely local engine.
func TestDHTNetAlignmentParity(t *testing.T) {
	ds := dhtParityWorkload(t)

	cases := []struct {
		k        int
		count    int // seed-shard fleet size
		maxBatch int // most seeds per ResolveSeeds call; 0 = the engine's whole claim
		maxHits  int // QueryOptions.MaxSeedHits cap; 0 = uncapped
	}{
		{k: 21, count: 1, maxBatch: 0, maxHits: 0},
		{k: 21, count: 2, maxBatch: 0, maxHits: 0},
		{k: 21, count: 4, maxBatch: 0, maxHits: 0},
		{k: 21, count: 2, maxBatch: 1, maxHits: 0},  // one seed, hence one frame, per call
		{k: 21, count: 2, maxBatch: 16, maxHits: 0}, // claim groups split across many calls
		{k: 21, count: 4, maxBatch: 0, maxHits: 4},  // location-list cap applied remotely
		{k: 51, count: 2, maxBatch: 0, maxHits: 0},
		{k: 51, count: 2, maxBatch: 16, maxHits: 4},
	}

	// Local baselines are shared across fleet shapes: one per (k, maxHits).
	type key struct{ k, maxHits int }
	aligners := map[int]*meraligner.Aligner{}
	baselines := map[key][]byte{}
	for _, tc := range cases {
		if _, ok := aligners[tc.k]; ok {
			continue
		}
		al, err := meraligner.Build(2, meraligner.DefaultIndexOptions(tc.k), ds.Contigs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { al.Close() })
		aligners[tc.k] = al
	}

	qoptFor := func(maxHits int) meraligner.QueryOptions {
		qopt := meraligner.DefaultQueryOptions()
		qopt.MaxSeedHits = maxHits
		qopt.CollectAlignments = true
		return qopt
	}

	for _, tc := range cases {
		name := fmt.Sprintf("k=%d/shards=%d/maxBatch=%d/maxHits=%d", tc.k, tc.count, tc.maxBatch, tc.maxHits)
		t.Run(name, func(t *testing.T) {
			al := aligners[tc.k]
			bk := key{tc.k, tc.maxHits}
			want, ok := baselines[bk]
			if !ok {
				want = alignSAM(t, al, ds, al.Threads(), qoptFor(tc.maxHits))
				baselines[bk] = want
			}

			c := serveSeedFleet(t, al, tc.count)
			qopt := qoptFor(tc.maxHits)
			qopt.SeedResolver = c
			if tc.maxBatch > 0 {
				qopt.SeedResolver = splitResolver{inner: c, max: tc.maxBatch}
			}
			got := alignSAM(t, al, ds, al.Threads(), qopt)

			if !bytes.Equal(want, got) {
				// Locate the first divergent line for a readable failure.
				wl := bytes.Split(want, []byte("\n"))
				gl := bytes.Split(got, []byte("\n"))
				for i := 0; i < len(wl) && i < len(gl); i++ {
					if !bytes.Equal(wl[i], gl[i]) {
						t.Fatalf("SAM diverges at line %d:\nlocal:  %s\nremote: %s", i+1, wl[i], gl[i])
					}
				}
				t.Fatalf("SAM length diverges: local %d bytes, remote %d bytes", len(want), len(got))
			}

			st := c.Stats()
			if st.Seeds == 0 || st.BatchedSeeds != st.Seeds {
				t.Fatalf("remote run did not send every seed it resolved over the wire: %+v", st)
			}
			if tc.maxBatch == 1 && st.Batches != st.Seeds {
				t.Fatalf("maxBatch=1: want one frame per seed: %+v", st)
			}
		})
	}
}

// TestDHTNetConcurrentClaims: the engine resolves a whole claim of reads per
// ResolveSeeds call, and several workers resolve claims against one client
// at once. Five claims at 1 and 4 workers emit the local engine's SAM.
func TestDHTNetConcurrentClaims(t *testing.T) {
	ds := dhtParityWorkload(t)
	ds.Reads = slices.Concat(ds.Reads, ds.Reads, ds.Reads) // 1,200 reads: five claims
	al, err := meraligner.Build(4, meraligner.DefaultIndexOptions(21), ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { al.Close() })
	qopt := meraligner.DefaultQueryOptions()
	qopt.CollectAlignments = true
	want := alignSAM(t, al, ds, 1, qopt)
	for _, workers := range []int{1, 4} {
		rq := qopt
		rq.SeedResolver = serveSeedFleet(t, al, 2)
		if got := alignSAM(t, al, ds, workers, rq); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: remote SAM differs from local", workers)
		}
	}
}

// TestLongReadClaimSAMParity: a claim of 256 reads of 1,024 bases at k = 31
// holds several times the seeds the engine resolves at once, so it is
// resolved in sub-claims of whole reads. Its SAM is byte-identical at one
// and two workers and through a seed-shard fleet.
func TestLongReadClaimSAMParity(t *testing.T) {
	p := genome.HumanLike(150_000)
	p.ReadLen, p.Depth, p.ErrorRate, p.InsertMean = 1024, 2, 0.005, 0
	ds, err := genome.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Reads) < 256 {
		t.Fatalf("%d reads: too few for a full claim", len(ds.Reads))
	}
	// Seven reads in eight come from no target: every seed is looked up and
	// misses, so the claim's seeds, not Smith-Waterman, set the test's cost.
	ds.Reads = slices.Clone(ds.Reads[:256])
	rng := rand.New(rand.NewSource(1))
	for i := range ds.Reads {
		if i%8 != 0 {
			ds.Reads[i].Seq = dna.Random(rng, p.ReadLen)
		}
	}
	al, err := meraligner.Build(2, meraligner.DefaultIndexOptions(31), ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { al.Close() })
	qopt := meraligner.DefaultQueryOptions()
	qopt.CollectAlignments = true
	if res, err := al.Align(context.Background(), ds.Reads, qopt); err != nil || res.AlignedReads == 0 {
		t.Fatalf("no read aligned (%v); the comparison would be vacuous", err)
	}
	want := alignSAM(t, al, ds, 1, qopt)
	if got := alignSAM(t, al, ds, 2, qopt); !bytes.Equal(got, want) {
		t.Fatal("SAM at two workers differs from one")
	}
	rq := qopt
	rq.SeedResolver = serveSeedFleet(t, al, 2)
	if got := alignSAM(t, al, ds, 2, rq); !bytes.Equal(got, want) {
		t.Fatal("SAM through the seed-shard fleet differs from local")
	}
}

// TestDHTNetParityDegradedFailsLoud: with a fleet node drained, alignment
// against the fleet must fail typed — a distributed engine that silently
// drops one shard's seeds would emit plausible but wrong SAM.
func TestDHTNetParityDegradedFailsLoud(t *testing.T) {
	ds := dhtParityWorkload(t)
	al, err := meraligner.Build(2, meraligner.DefaultIndexOptions(21), ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	defer al.Close()

	paths, err := al.SaveSeedShards(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]string, len(paths))
	servers := make([]*service.SeedShardServer, len(paths))
	for i, p := range paths {
		sh, err := core.LoadSeedShard(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() })
		srv, err := service.NewSeedShard(service.SeedShardConfig{Shard: sh})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		owners[i] = ts.URL
		servers[i] = srv
	}
	c, err := dhtnet.New(dhtnet.Config{
		Owners: owners,
		K:      al.IndexOptions().K,
		Shards: al.SeedTableShards(),
		Retry:  clientQuickRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := servers[1].Drain(ctx); err != nil {
		t.Fatal(err)
	}

	qopt := meraligner.DefaultQueryOptions()
	qopt.CollectAlignments = true
	qopt.SeedResolver = c
	if _, err := al.Align(context.Background(), ds.Reads, qopt); err == nil {
		t.Fatal("alignment succeeded with half the seed table unreachable")
	}
}
