package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/merx"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// shardSetResolver implements SeedResolver over loaded seed shards — the
// in-process analogue of the network client, routing each seed to its
// owning shard by hash. It is the reference implementation the parity
// tests compare the engine's remote path against.
type shardSetResolver struct {
	shards []*SeedShard
}

func (r *shardSetResolver) ResolveSeeds(ctx context.Context, seeds []kmer.Kmer, out []SeedAnswer) error {
	if len(out) != len(seeds) {
		return fmt.Errorf("out/seeds length mismatch: %d vs %d", len(out), len(seeds))
	}
	info := r.shards[0].Info()
	for i, s := range seeds {
		sh := r.shards[dht.OwnerOf(s, info.Shards, info.Count)]
		if !sh.Owns(s) {
			return fmt.Errorf("seed %d routed to non-owner", i)
		}
		res, ok := sh.Lookup(s)
		out[i] = SeedAnswer{Res: res, OK: ok}
	}
	return nil
}

// loadSeedShardSet saves and re-opens a fleet of seed shards.
func loadSeedShardSet(t testing.TB, ix *ThreadedIndex, count int) []*SeedShard {
	t.Helper()
	dir := t.TempDir()
	paths, err := ix.SaveSeedShards(dir, count)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != count {
		t.Fatalf("SaveSeedShards returned %d paths, want %d", len(paths), count)
	}
	shards := make([]*SeedShard, count)
	for i, p := range paths {
		sh, err := LoadSeedShard(p)
		if err != nil {
			t.Fatalf("LoadSeedShard(%s): %v", p, err)
		}
		t.Cleanup(func() { sh.Close() })
		if got := sh.Info(); got.ID != i || got.Count != count {
			t.Fatalf("shard %d identity %+v", i, got)
		}
		shards[i] = sh
	}
	return shards
}

// TestSeedShardResolverParity is the core-level distributed-parity check:
// aligning through a SeedResolver backed by saved-and-reloaded seed shards
// must produce results identical to the local index — alignments, cigars,
// per-read stats — across shard counts, both entry points (pool and the
// calling goroutine), and every claim shape the two-phase resolve tells
// apart: exact path off (one phase), reads shorter than K in a claim, and
// claims the exact path settles entirely (no phase 2).
func TestSeedShardResolverParity(t *testing.T) {
	ds := testWorkload(t, 60_000, 3, 0.005)
	opt := testOptions(21)
	ix, err := BuildIndex(3, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	offOpt := opt.IndexOptions
	offOpt.ExactMatch = false
	ixOff, err := BuildIndex(3, offOpt, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	qopt := opt.QueryOptions
	qopt.CollectPerQuery = true

	local, err := ix.Query(context.Background(), 2, qopt, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if local.ExactPathReads == 0 || local.ExactPathReads == len(ds.Reads) {
		t.Fatalf("mixed case is not mixed: %d of %d reads exact", local.ExactPathReads, len(ds.Reads))
	}
	var exact []seqio.Seq
	for qi, st := range local.PerQuery {
		if st.Exact {
			exact = append(exact, ds.Reads[qi])
		}
	}
	if len(exact) <= alignBatch {
		t.Fatalf("%d exact-path reads: too few for a claim of them", len(exact))
	}
	// Every 7th read cut below K (down to 1 base), every 11th to exactly K.
	short := slices.Clone(ds.Reads)
	for qi := range short {
		switch {
		case qi%7 == 0:
			short[qi].Seq = short[qi].Seq.Slice(0, 1+qi%opt.K)
		case qi%11 == 0:
			short[qi].Seq = short[qi].Seq.Slice(0, opt.K)
		}
	}

	cases := []struct {
		name  string
		ix    *ThreadedIndex
		reads []seqio.Seq
	}{
		{"mixed", ix, ds.Reads},
		{"exact-off", ixOff, ds.Reads},
		{"short-reads", ix, short},
		{"all-exact", ix, exact},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.ix.Query(context.Background(), 2, qopt, tc.reads)
			if err != nil {
				t.Fatal(err)
			}
			for _, count := range []int{1, 2, 4} {
				shards := loadSeedShardSet(t, tc.ix, count)
				ropt := qopt
				ropt.SeedResolver = &shardSetResolver{shards: shards}

				got, err := tc.ix.Query(context.Background(), 2, ropt, tc.reads)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.Alignments, got.Alignments) {
					t.Fatalf("count=%d: alignments differ: local %d, resolver %d", count, len(want.Alignments), len(got.Alignments))
				}
				if want.AlignedReads != got.AlignedReads || want.ExactPathReads != got.ExactPathReads ||
					want.TotalAlignments != got.TotalAlignments || want.SWCalls != got.SWCalls ||
					want.SeedLookups != got.SeedLookups || want.TooShortReads != got.TooShortReads {
					t.Fatalf("count=%d: counters differ: local %+v, resolver %+v", count, want, got)
				}
				for qi := range want.PerQuery {
					w, g := want.PerQuery[qi], got.PerQuery[qi]
					w.Nanos, g.Nanos = 0, 0
					if w != g {
						t.Fatalf("count=%d: query %d stats differ: local %+v, resolver %+v", count, qi, w, g)
					}
				}

				// A batch of one chunk runs on the calling goroutine.
				sGot, err := tc.ix.Query(context.Background(), 2, ropt, tc.reads[:25])
				if err != nil {
					t.Fatal(err)
				}
				sWant, err := tc.ix.Query(context.Background(), 2, qopt, tc.reads[:25])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sWant.Alignments, sGot.Alignments) {
					t.Fatalf("count=%d: inline-path alignments differ", count)
				}
			}
		})
	}
}

// countingResolver counts the ResolveSeeds calls and the seeds they ship
// (engine workers call it concurrently).
type countingResolver struct {
	inner        SeedResolver
	calls, seeds atomic.Int64
}

func (r *countingResolver) ResolveSeeds(ctx context.Context, seeds []kmer.Kmer, out []SeedAnswer) error {
	r.calls.Add(1)
	r.seeds.Add(int64(len(seeds)))
	return r.inner.ResolveSeeds(ctx, seeds, out)
}

// TestSeedResolverAggregatesPerClaim pins the aggregation before the wire:
// a claim of alignBatch reads costs at most two ResolveSeeds calls (first
// seeds, then the rest of the reads the exact path did not settle), and no
// seed is shipped that the engine does not look up.
func TestSeedResolverAggregatesPerClaim(t *testing.T) {
	ds := testWorkload(t, 60_000, 3, 0.005)
	opt := testOptions(21)
	ix, err := BuildIndex(3, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	shards := loadSeedShardSet(t, ix, 3)
	claims := int64((len(ds.Reads) + alignBatch - 1) / alignBatch)
	if claims < 3 {
		t.Fatalf("%d reads: too few claims", len(ds.Reads))
	}
	for _, workers := range []int{1, 3} {
		r := &countingResolver{inner: &shardSetResolver{shards: shards}}
		qopt := opt.QueryOptions
		qopt.SeedResolver = r
		res, err := ix.Query(context.Background(), workers, qopt, ds.Reads)
		if err != nil {
			t.Fatal(err)
		}
		if calls := r.calls.Load(); calls > 2*claims {
			t.Errorf("workers=%d: %d ResolveSeeds calls for %d claims, want at most %d", workers, calls, claims, 2*claims)
		}
		if seeds := r.seeds.Load(); seeds != res.SeedLookups {
			t.Errorf("workers=%d: shipped %d seeds, the engine looked up %d", workers, seeds, res.SeedLookups)
		}
	}
}

// failingResolver passes the first `after` ResolveSeeds calls through, then
// fails every phase-2 call — recognized by shipping more seeds than a claim
// has reads (engine workers call it concurrently).
type failingResolver struct {
	inner  SeedResolver
	calls  atomic.Int64
	after  int64
	failed atomic.Bool
}

func (r *failingResolver) ResolveSeeds(ctx context.Context, seeds []kmer.Kmer, out []SeedAnswer) error {
	if r.calls.Add(1) > r.after && len(seeds) > alignBatch {
		r.failed.Store(true)
		return errors.New("seed shard unreachable")
	}
	return r.inner.ResolveSeeds(ctx, seeds, out)
}

// TestSeedResolverErrorAborts: a resolver failure must fail the whole call
// with the resolver's error — no partial results, no silent seed loss. The
// first four calls (two whole claims at one worker) succeed, so the failure
// lands in phase 2 of a later claim at both worker counts.
func TestSeedResolverErrorAborts(t *testing.T) {
	ds := testWorkload(t, 30_000, 2, 0.005)
	if len(ds.Reads) <= 2*alignBatch {
		t.Fatalf("%d reads: too few for a third claim", len(ds.Reads))
	}
	opt := testOptions(21)
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	shards := loadSeedShardSet(t, ix, 2)
	for _, workers := range []int{2, 1} {
		r := &failingResolver{inner: &shardSetResolver{shards: shards}, after: 4}
		qopt := opt.QueryOptions
		qopt.SeedResolver = r
		if _, err := ix.Query(context.Background(), workers, qopt, ds.Reads); err == nil || err.Error() != "seed shard unreachable" {
			t.Fatalf("workers=%d: Query surfaced %v, want the resolver error", workers, err)
		}
		if !r.failed.Load() {
			t.Fatalf("workers=%d: no phase-2 call came after the first four", workers)
		}
	}
}

// TestLoadSeedShardRejects: typed failures for the wrong kind of file.
func TestLoadSeedShardRejects(t *testing.T) {
	ds := testWorkload(t, 30_000, 1, 0)
	opt := testOptions(21)
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	// A plain index snapshot has no DHTP section.
	plain := filepath.Join(t.TempDir(), "plain.merx")
	if err := ix.Save(plain); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSeedShard(plain); !errors.Is(err, merx.ErrIncompatible) {
		t.Fatalf("LoadSeedShard(plain index) = %v, want ErrIncompatible", err)
	}
	// A seed shard still opens through LoadIndex (self-contained partial
	// table), and carries its identity through to servers.
	paths, err := ix.SaveSeedShards(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := LoadIndex(1, paths[0])
	if err != nil {
		t.Fatalf("LoadIndex(seed shard) = %v, want success (self-contained)", err)
	}
	full.Close()
	// Bad count argument.
	if _, err := ix.SaveSeedShards(t.TempDir(), 0); err == nil {
		t.Fatal("SaveSeedShards accepted count 0")
	}
}

// TestSaveSeedShardsFingerprintAgreement: all shards of one save share the
// fingerprint; saves with different owner counts differ.
func TestSaveSeedShardsFingerprintAgreement(t *testing.T) {
	ds := testWorkload(t, 30_000, 1, 0)
	opt := testOptions(21)
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	a := loadSeedShardSet(t, ix, 3)
	fp := a[0].Info().Fingerprint
	for _, sh := range a {
		if sh.Info().Fingerprint != fp {
			t.Fatalf("fingerprints disagree within one save: %d vs %d", sh.Info().Fingerprint, fp)
		}
	}
	b := loadSeedShardSet(t, ix, 2)
	if b[0].Info().Fingerprint == fp {
		t.Fatal("fingerprint identical across different owner counts")
	}
}
