package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/merx"
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
func loadSeedShardSet(t *testing.T, ix *ThreadedIndex, count int) []*SeedShard {
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
// per-read stats — across shard counts, both entry points (pool and
// serial), and strides.
func TestSeedShardResolverParity(t *testing.T) {
	ds := testWorkload(t, 60_000, 3, 0.005)
	opt := testOptions(21)
	ix, err := BuildIndex(3, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	qopt := opt.QueryOptions
	qopt.CollectPerQuery = true

	want, err := ix.Query(context.Background(), 2, qopt, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{1, 2, 4} {
		shards := loadSeedShardSet(t, ix, count)
		ropt := qopt
		ropt.SeedResolver = &shardSetResolver{shards: shards}

		got, err := ix.Query(context.Background(), 2, ropt, ds.Reads)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Alignments, got.Alignments) {
			t.Fatalf("count=%d: alignments differ: local %d, resolver %d", count, len(want.Alignments), len(got.Alignments))
		}
		if want.AlignedReads != got.AlignedReads || want.ExactPathReads != got.ExactPathReads ||
			want.TotalAlignments != got.TotalAlignments || want.SWCalls != got.SWCalls ||
			want.SeedLookups != got.SeedLookups {
			t.Fatalf("count=%d: counters differ: local %+v, resolver %+v", count, want, got)
		}

		// A batch of one chunk runs on the calling goroutine.
		sGot, err := ix.Query(context.Background(), 2, ropt, ds.Reads[:25])
		if err != nil {
			t.Fatal(err)
		}
		sWant, err := ix.Query(context.Background(), 2, qopt, ds.Reads[:25])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sWant.Alignments, sGot.Alignments) {
			t.Fatalf("count=%d: inline-path alignments differ", count)
		}
	}
}

// TestSeedShardResolverParityStride covers the stride > 1 seed schedule:
// the prefetch pass must collect exactly the seeds the general path looks
// up, so a stride mismatch would misalign the answer buffer and change
// output.
func TestSeedShardResolverParityStride(t *testing.T) {
	ds := testWorkload(t, 40_000, 2, 0.01)
	opt := testOptions(21)
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	shards := loadSeedShardSet(t, ix, 3)
	for _, stride := range []int{1, 3, 7} {
		qopt := opt.QueryOptions
		qopt.SeedStride = stride
		want, err := ix.Query(context.Background(), 2, qopt, ds.Reads)
		if err != nil {
			t.Fatal(err)
		}
		qopt.SeedResolver = &shardSetResolver{shards: shards}
		got, err := ix.Query(context.Background(), 2, qopt, ds.Reads)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Alignments, got.Alignments) {
			t.Fatalf("stride=%d: alignments differ", stride)
		}
	}
}

// failingResolver fails after a set number of ResolveSeeds calls (engine
// workers call it concurrently).
type failingResolver struct {
	inner SeedResolver
	calls atomic.Int64
	after int64
}

func (r *failingResolver) ResolveSeeds(ctx context.Context, seeds []kmer.Kmer, out []SeedAnswer) error {
	if r.calls.Add(1) > r.after {
		return errors.New("seed shard unreachable")
	}
	return r.inner.ResolveSeeds(ctx, seeds, out)
}

// TestSeedResolverErrorAborts: a resolver failure must fail the whole call
// with the resolver's error — no partial results, no silent seed loss.
func TestSeedResolverErrorAborts(t *testing.T) {
	ds := testWorkload(t, 30_000, 2, 0.005)
	opt := testOptions(21)
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	shards := loadSeedShardSet(t, ix, 2)
	qopt := opt.QueryOptions
	qopt.SeedResolver = &failingResolver{inner: &shardSetResolver{shards: shards}, after: 5}

	if _, err := ix.Query(context.Background(), 2, qopt, ds.Reads); err == nil || err.Error() != "seed shard unreachable" {
		t.Fatalf("Query surfaced %v, want the resolver error", err)
	}
	qopt.SeedResolver = &failingResolver{inner: &shardSetResolver{shards: shards}, after: 5}
	if _, err := ix.Query(context.Background(), 1, qopt, ds.Reads); err == nil || err.Error() != "seed shard unreachable" {
		t.Fatalf("one-worker Query surfaced %v, want the resolver error", err)
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
