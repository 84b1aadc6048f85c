package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/lbl-repro/meraligner/internal/genome"
)

// shardWorkload is a small multi-contig reference for shard producer tests.
func shardWorkload(t *testing.T) *genome.DataSet {
	t.Helper()
	p := genome.EColiLike()
	p.GenomeLen = 40_000
	p.Depth = 1
	p.ContigMean = 4_000
	p.InsertMean = 0
	p.Seed = 13
	ds, err := genome.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestShardRangesCoverAndBalance(t *testing.T) {
	ds := shardWorkload(t)
	const n = 3
	ranges, err := ShardRanges(ds.Contigs, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != n {
		t.Fatalf("%d ranges for %d shards", len(ranges), n)
	}
	// Contiguous cover of [0, len(targets)), no shard empty.
	at := 0
	for i, r := range ranges {
		if r[0] != at || r[1] <= r[0] {
			t.Fatalf("range %d = %v, want contiguous nonempty from %d", i, r, at)
		}
		at = r[1]
	}
	if at != len(ds.Contigs) {
		t.Fatalf("ranges end at %d, want %d", at, len(ds.Contigs))
	}
}

func TestShardRangesErrors(t *testing.T) {
	ds := shardWorkload(t)
	if _, err := ShardRanges(ds.Contigs, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := ShardRanges(ds.Contigs, -2); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := ShardRanges(ds.Contigs, len(ds.Contigs)+1); err == nil {
		t.Error("more shards than targets accepted")
	}
}

// TestSaveShardsFromSnapshot: a mapped whole-reference snapshot writes the
// shard files its built index writes, byte for byte, and a reference shard
// refuses to be cut again, into reference or seed shards.
func TestSaveShardsFromSnapshot(t *testing.T) {
	ds := shardWorkload(t)
	built, err := BuildIndex(2, DefaultIndexOptions(19), ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _ := saveLoad(t, built, 2)
	want, err := built.SaveShards(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.SaveShards(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for id := range want {
		if a, b := readBytes(t, got[id]), readBytes(t, want[id]); !bytes.Equal(a, b) {
			t.Errorf("shard %d from the snapshot differs from the built index's", id)
		}
		if filepath.Base(got[id]) != filepath.Base(want[id]) {
			t.Errorf("shard %d written as %s, want %s", id, got[id], want[id])
		}
	}

	shard, err := LoadIndex(1, want[0])
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	if _, err := shard.SaveShards(t.TempDir(), 2); err == nil {
		t.Error("a reference shard was sharded again")
	}
	if _, err := shard.SaveSeedShards(t.TempDir(), 2); err == nil {
		t.Error("a reference shard was seed-sharded")
	}
}

func readBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
