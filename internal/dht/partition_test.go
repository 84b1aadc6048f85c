package dht

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/lbl-repro/meraligner/internal/kmer"
)

// TestOwnerGolden pins the seed→owner mapping with precomputed values: the
// djb2 hash, the internal shard for a 64-shard table, and the owner for
// fleets of 2, 3, and 4 nodes. These numbers are part of the on-disk
// contract — seed-shard snapshots saved under this mapping are queried by
// other processes computing the same mapping — so if this test fails, the
// change silently re-partitions every saved fleet: bump the snapshot
// format instead of updating the goldens.
func TestOwnerGolden(t *testing.T) {
	cases := []struct {
		seed                   string
		hash                   uint64
		shard64                int
		owner2, owner3, owner4 int
	}{
		{"ACGTACGTACGTACGTACGTA", 219215706704965625, 57, 1, 0, 1},
		{"TTTTTTTTTTTTTTTTTTTTT", 11365062924789256099, 35, 1, 2, 3},
		{"AAAAAAAAAAAAAAAAAAAAA", 2470524917658648325, 5, 1, 2, 1},
		{"GATTACAGATTACAGATTACA", 6610038376152527239, 7, 1, 1, 3},
		{"CCCCGGGGCCCCGGGGCCCCG", 7025357428163531450, 58, 0, 1, 2},
		{"ACACACACACACACACACACA", 1151827641630021849, 25, 1, 1, 1},
		{"TGCATGCATGCATGCATGCAT", 13616372135742938799, 47, 1, 2, 3},
		{"AGGTTGGAACCTTGGAACCTT", 17226463517800597614, 46, 0, 1, 2},
	}
	for _, c := range cases {
		km := kmer.MustFromString(c.seed)
		if h := km.Hash(); h != c.hash {
			t.Errorf("%s: Hash() = %d, golden %d", c.seed, h, c.hash)
		}
		if s := int(km.Hash() % 64); s != c.shard64 {
			t.Errorf("%s: shard = %d, golden %d", c.seed, s, c.shard64)
		}
		for _, oc := range []struct{ count, want int }{{2, c.owner2}, {3, c.owner3}, {4, c.owner4}} {
			if got := OwnerOf(km, 64, oc.count); got != oc.want {
				t.Errorf("%s: OwnerOf(shards=64, count=%d) = %d, golden %d", c.seed, oc.count, got, oc.want)
			}
			if got := ShardOwner(c.shard64, oc.count); got != oc.want {
				t.Errorf("%s: ShardOwner(%d, %d) = %d, golden %d", c.seed, c.shard64, oc.count, got, oc.want)
			}
		}
	}
}

// TestOwnerSkewBound checks the hash distributes seeds evenly enough across
// owners that no node carries a pathological share: over a large random
// seed set, every owner's load stays within 20% of the even split.
func TestOwnerSkewBound(t *testing.T) {
	es := randomEntries(7, 32, 400, 8000, 21)
	const shards, owners = 64, 4
	counts := make([]int, owners)
	for _, e := range es {
		counts[OwnerOf(e.Seed, shards, owners)]++
	}
	even := float64(len(es)) / owners
	for o, n := range counts {
		if ratio := float64(n) / even; ratio < 0.8 || ratio > 1.2 {
			t.Errorf("owner %d holds %d of %d seeds (%.2fx the even share)", o, n, len(es), ratio)
		}
	}
}

// TestPartitionCoversTable checks that partitioning a sealed table across N
// owners is exact: every seed resolves bit-identically at exactly its
// owner's partition and misses everywhere else, and the single-copy flags
// survive in every partition. Internal shard counts are drawn at random, and
// each is split every way Partition accepts up to one owner past it, so
// non-divisors, count == Shards and an owner with no shard are all covered.
func TestPartitionCoversTable(t *testing.T) {
	const numFrags = 16
	es := randomEntries(11, numFrags, 200, 600, 21)
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 6; trial++ {
		cfg := ShardedConfig{K: 21, S: 64, Shards: 1 + rng.Intn(40)}
		sx := buildSharded(t, cfg, es, numFrags, 3)
		sx.Seal()
		for count := 1; count <= cfg.Shards+1; count++ {
			checkPartition(t, sx, es, numFrags, count)
		}
	}
}

// checkPartition splits sx across count owners and checks every seed of es
// and every single-copy flag against the full table.
func checkPartition(t *testing.T, sx *Sharded, es []SeedEntry, numFrags, count int) {
	t.Helper()
	parts := make([]*Sharded, count)
	for id := range parts {
		p, err := sx.Partition(id, count)
		if err != nil {
			t.Fatalf("shards=%d: Partition(%d, %d): %v", sx.Shards(), id, count, err)
		}
		parts[id] = p
	}
	seen := map[kmer.Kmer]bool{}
	for _, e := range es {
		if seen[e.Seed] {
			continue
		}
		seen[e.Seed] = true
		want, ok := sx.Lookup(e.Seed)
		if !ok {
			t.Fatalf("seed missing from full table")
		}
		owner := OwnerOf(e.Seed, sx.Shards(), count)
		for id, p := range parts {
			got, ok := p.Lookup(e.Seed)
			if id == owner {
				if !ok {
					t.Fatalf("shards=%d count=%d: owner %d misses its own seed", sx.Shards(), count, id)
				}
				if got.Count != want.Count || !slices.Equal(resultLocs(got), resultLocs(want)) {
					t.Fatalf("shards=%d count=%d: owner %d result differs: %+v vs %+v", sx.Shards(), count, id, got, want)
				}
			} else if ok {
				t.Fatalf("shards=%d count=%d: non-owner %d answered for owner %d's seed", sx.Shards(), count, id, owner)
			}
		}
	}
	for id, p := range parts {
		for f := 0; f < numFrags; f++ {
			if p.SingleCopy(f) != sx.SingleCopy(f) {
				t.Fatalf("shards=%d count=%d: partition %d single-copy flag %d differs", sx.Shards(), count, id, f)
			}
		}
	}
}

// TestPartitionFingerprint checks the interop fingerprint: stable across
// partitions of one build, different across owner counts and across builds
// with different content shape.
func TestPartitionFingerprint(t *testing.T) {
	const numFrags = 8
	cfg := ShardedConfig{K: 21, S: 64, Shards: 16}
	es := randomEntries(3, numFrags, 100, 300, 21)
	sx := buildSharded(t, cfg, es, numFrags, 2)
	sx.Seal()

	fp3, err := sx.PartitionFingerprint(3)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := sx.PartitionFingerprint(3); again != fp3 {
		t.Fatalf("fingerprint not deterministic: %d vs %d", fp3, again)
	}
	if fp4, _ := sx.PartitionFingerprint(4); fp4 == fp3 {
		t.Fatalf("fingerprint ignores owner count")
	}

	other := buildSharded(t, cfg, randomEntries(4, numFrags, 100, 300, 21), numFrags, 2)
	other.Seal()
	if ofp, _ := other.PartitionFingerprint(3); ofp == fp3 {
		t.Fatalf("fingerprint ignores table content shape")
	}

	if _, err := sx.PartitionFingerprint(0); err == nil {
		t.Fatalf("fingerprint accepted count 0")
	}
}

// TestPartitionErrors checks range and seal validation.
func TestPartitionErrors(t *testing.T) {
	const numFrags = 4
	cfg := ShardedConfig{K: 21, S: 64, Shards: 16}
	es := randomEntries(5, numFrags, 50, 100, 21)
	sx := buildSharded(t, cfg, es, numFrags, 1)

	if _, err := sx.Partition(0, 1); err == nil {
		t.Fatalf("Partition accepted an unsealed index")
	}
	sx.Seal()
	for _, c := range []struct{ id, count int }{{-1, 2}, {2, 2}, {0, 0}, {0, -3}} {
		if _, err := sx.Partition(c.id, c.count); err == nil {
			t.Fatalf("Partition(%d, %d) accepted out-of-range arguments", c.id, c.count)
		}
	}
}

// TestPropertyRestrictMatchesOracle: over random entry sets with heavy
// repeats, seed lengths on both sides of the one-word key and several shard
// counts, carving a fragment range — empty at either edge, the full range,
// random ones between — must hold exactly the naive oracle filtered to the
// range: the whole table's stored locations inside it, rebased, under
// whole-table counts, with the range's slice of the single-copy flags. Some
// carved seeds keep one location under a larger whole count, the case that
// needs a count word. The full range must write the source table's bytes.
func TestPropertyRestrictMatchesOracle(t *testing.T) {
	const numFrags = 12
	rng := rand.New(rand.NewSource(31))
	carvedSingletons := 0
	for _, k := range []int{19, 31, 32, 33, 51} {
		for _, shards := range []int{1, 3, 16} {
			es := randomEntries(rng.Int63(), numFrags, 50+rng.Intn(100), 20+rng.Intn(200), k)
			sx := buildSharded(t, ShardedConfig{K: k, S: 7, Shards: shards}, es, numFrags, 2)
			sx.Seal()
			oracle := naiveOracle(es)
			misses := absentSeeds(rng, oracle, k, 20)
			ranges := [][2]int{{0, 0}, {numFrags, numFrags}, {0, numFrags}}
			for range 6 {
				lo := rng.Intn(numFrags + 1)
				ranges = append(ranges, [2]int{lo, lo + rng.Intn(numFrags-lo+1)})
			}
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				label := fmt.Sprintf("k=%d shards=%d range=[%d,%d)", k, shards, lo, hi)
				got, err := sx.Restrict(lo, hi)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := map[kmer.Kmer]oracleEntry{}
				absent := slices.Clone(misses)
				for seed, ent := range oracle {
					var locs []Loc
					for _, l := range ent.locs {
						if int(l.Frag) >= lo && int(l.Frag) < hi {
							l.Frag -= int32(lo)
							locs = append(locs, l)
						}
					}
					if locs == nil {
						absent = append(absent, seed)
						continue
					}
					if len(locs) == 1 && ent.count > 1 {
						carvedSingletons++
					}
					want[seed] = oracleEntry{locs: locs, count: ent.count}
				}
				checkAgainstOracle(t, label, got, want, absent, hi-lo)
				for f := lo; f < hi; f++ {
					if got.SingleCopy(f-lo) != sx.SingleCopy(f) {
						t.Fatalf("%s: single-copy flag of fragment %d differs from the whole table's", label, f)
					}
				}
			}
			full, err := sx.Restrict(0, numFrags)
			if err != nil {
				t.Fatal(err)
			}
			var a, b bytes.Buffer
			if _, err := sx.WriteTo(&a); err != nil {
				t.Fatal(err)
			}
			if _, err := full.WriteTo(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("k=%d shards=%d: the full-range carve writes different bytes from its source", k, shards)
			}
		}
	}
	if carvedSingletons == 0 {
		t.Fatal("no carve kept one location of a repeated seed; the workload misses the count-word case")
	}
}

// TestPartitionFingerprintPinned pins PartitionFingerprint on fixed tables —
// one-word and two-word seeds, and a carve with count words — to the values
// the 32-byte-slot layout computed: the fingerprint digests the table's
// shape, not its encoding, so a layout change must not alter it.
func TestPartitionFingerprintPinned(t *testing.T) {
	k21 := buildSharded(t, ShardedConfig{K: 21, S: 64, Shards: 16}, randomEntries(3, 8, 100, 300, 21), 8, 2)
	k21.Seal()
	k51 := buildSharded(t, ShardedConfig{K: 51, S: 64, Shards: 8}, randomEntries(5, 8, 100, 300, 51), 8, 2)
	k51.Seal()
	carve, err := k21.Restrict(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		sx    *Sharded
		count int
		want  uint64
	}{
		{"k=21", k21, 3, 10868917532370652846},
		{"k=51", k51, 2, 8240164603878771115},
		{"carve [2,6) of k=21", carve, 3, 13017478381129308212},
	} {
		if got, err := c.sx.PartitionFingerprint(c.count); err != nil || got != c.want {
			t.Errorf("%s: PartitionFingerprint(%d) = %d, %v; pinned %d", c.name, c.count, got, err, c.want)
		}
	}
}

// TestRestrictErrors checks seal and range validation.
func TestRestrictErrors(t *testing.T) {
	const numFrags = 4
	sx := buildSharded(t, ShardedConfig{K: 21, S: 64, Shards: 16}, randomEntries(5, numFrags, 50, 100, 21), numFrags, 1)
	if _, err := sx.Restrict(0, numFrags); err == nil {
		t.Fatalf("Restrict accepted an unsealed index")
	}
	sx.Seal()
	for _, r := range [][2]int{{-1, 2}, {3, 2}, {0, numFrags + 1}} {
		if _, err := sx.Restrict(r[0], r[1]); err == nil {
			t.Fatalf("Restrict(%d, %d) accepted an out-of-range argument", r[0], r[1])
		}
	}
}
