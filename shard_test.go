package meraligner_test

import (
	"fmt"
	"path/filepath"
	"testing"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/core"
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

// TestSaveShardsRoundTrip is the shard producer contract: every snapshot
// reopens as a normal aligner whose targets are exactly its slice of the
// global target list, stamped with a consistent fleet identity.
func TestSaveShardsRoundTrip(t *testing.T) {
	ds := shardWorkload(t)
	const n = 3
	iopt := meraligner.DefaultIndexOptions(19)
	dir := t.TempDir()

	paths, err := meraligner.SaveShards(2, iopt, ds.Contigs, n, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != n {
		t.Fatalf("%d paths for %d shards", len(paths), n)
	}
	ranges, err := core.ShardRanges(ds.Contigs, n)
	if err != nil {
		t.Fatal(err)
	}

	covered := 0
	lastFragBase := -1
	for id, path := range paths {
		if want := filepath.Join(dir, fmt.Sprintf("shard-%03d.merx", id)); path != want {
			t.Fatalf("shard %d path = %s, want %s", id, path, want)
		}
		sa, err := meraligner.Open(path)
		if err != nil {
			t.Fatalf("reopening shard %d: %v", id, err)
		}
		defer sa.Close()

		si := sa.ShardInfo()
		if si == nil {
			t.Fatalf("shard %d snapshot has no shard identity", id)
		}
		if si.ID != id || si.Count != n {
			t.Fatalf("shard %d identity = %+v", id, si)
		}
		if si.TargetBase != ranges[id][0] {
			t.Fatalf("shard %d TargetBase = %d, want %d", id, si.TargetBase, ranges[id][0])
		}
		if si.FragmentBase <= lastFragBase {
			t.Fatalf("shard %d FragmentBase %d not increasing past %d", id, si.FragmentBase, lastFragBase)
		}
		if id == 0 && (si.TargetBase != 0 || si.FragmentBase != 0) {
			t.Fatalf("shard 0 bases = %+v, want zero offsets", si)
		}
		lastFragBase = si.FragmentBase

		if sa.IndexOptions().K != iopt.K {
			t.Fatalf("shard %d K = %d, want %d", id, sa.IndexOptions().K, iopt.K)
		}
		slice := ds.Contigs[ranges[id][0]:ranges[id][1]]
		got := sa.Targets()
		if len(got) != len(slice) {
			t.Fatalf("shard %d serves %d targets, slice has %d", id, len(got), len(slice))
		}
		for i := range slice {
			if got[i].Name != slice[i].Name || got[i].Seq.Len() != slice[i].Seq.Len() {
				t.Fatalf("shard %d target %d = %s/%d, want %s/%d",
					id, i, got[i].Name, got[i].Seq.Len(), slice[i].Name, slice[i].Seq.Len())
			}
		}
		covered += len(got)
	}
	if covered != len(ds.Contigs) {
		t.Fatalf("fleet serves %d targets, reference has %d", covered, len(ds.Contigs))
	}

	// A whole-reference index carries no shard identity.
	whole, err := meraligner.Build(2, iopt, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	if whole.ShardInfo() != nil {
		t.Fatalf("unsharded index reports shard identity %+v", whole.ShardInfo())
	}
}

func TestSaveShardsRejectsImpossiblePartition(t *testing.T) {
	ds := shardWorkload(t)
	if _, err := meraligner.SaveShards(2, meraligner.DefaultIndexOptions(19), ds.Contigs, len(ds.Contigs)+5, t.TempDir()); err == nil {
		t.Fatal("SaveShards accepted more shards than targets")
	}
}
