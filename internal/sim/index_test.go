package sim

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/upc"
)

// buildFromFragments builds an index over the given fragments using the real
// phase structure: extract+stage, barrier, drain, barrier, mark.
func buildFromFragments(t testing.TB, mach upc.MachineConfig, cfg IndexConfig, frags []dna.Packed) (*Index, *upc.Machine) {
	if t != nil {
		t.Helper()
	}
	m := upc.MustNewMachine(mach)
	ix, err := NewIndex(mach, cfg, len(frags))
	if err != nil {
		if t != nil {
			t.Fatal(err)
		}
		panic(err)
	}
	m.RunPhase("stage", func(th *upc.Thread) {
		b := ix.NewBuilder(th)
		lo, hi := mach.PartitionRange(len(frags), th.ID)
		for f := lo; f < hi; f++ {
			for off, s := range kmer.Extract(frags[f], cfg.K, nil) {
				b.Add(dht.SeedEntry{Seed: s, Loc: dht.Loc{Frag: int32(f), Off: int32(off)}})
			}
		}
		b.Flush()
	})
	m.RunPhase("drain", func(th *upc.Thread) { ix.Drain(th) })
	m.RunPhase("mark", func(th *upc.Thread) { ix.MarkSingleCopy(th) })
	return ix, m
}

// oracle builds the expected seed->locations multimap with a plain Go map.
func oracle(frags []dna.Packed, k int) map[kmer.Kmer][]dht.Loc {
	want := make(map[kmer.Kmer][]dht.Loc)
	for f, frag := range frags {
		for off, s := range kmer.Extract(frag, k, nil) {
			want[s] = append(want[s], dht.Loc{Frag: int32(f), Off: int32(off)})
		}
	}
	return want
}

func randFrags(seed int64, n, minLen, maxLen int) []dna.Packed {
	rng := rand.New(rand.NewSource(seed))
	frags := make([]dna.Packed, n)
	for i := range frags {
		frags[i] = dna.Random(rng, minLen+rng.Intn(maxLen-minLen+1))
	}
	return frags
}

func TestBuildMatchesOracleBothModes(t *testing.T) {
	frags := randFrags(1, 40, 60, 300)
	for _, mode := range []BuildMode{Aggregating, FineGrained} {
		cfg := IndexConfig{K: 21, Mode: mode, S: 64}
		ix, _ := buildFromFragments(t, testMach(48), cfg, frags)
		want := oracle(frags, 21)

		st := ix.Stats()
		if st.DistinctSeeds != len(want) {
			t.Fatalf("%v: distinct seeds = %d, want %d", mode, st.DistinctSeeds, len(want))
		}
		for s, locs := range want {
			res, ok := ix.LookupNoCharge(s)
			if !ok {
				t.Fatalf("%v: seed missing from index", mode)
			}
			if int(res.Count) != len(locs) {
				t.Fatalf("%v: count = %d, want %d", mode, res.Count, len(locs))
			}
			got := map[dht.Loc]bool{}
			for _, l := range res.Locs {
				got[l] = true
			}
			for _, l := range locs {
				if !got[l] {
					t.Fatalf("%v: location %+v missing", mode, l)
				}
			}
		}
		if ix.PendingStackEntries() != 0 {
			t.Errorf("%v: %d entries left undrained", mode, ix.PendingStackEntries())
		}
	}
}

func TestModesProduceIdenticalTables(t *testing.T) {
	frags := randFrags(2, 30, 80, 200)
	agg, _ := buildFromFragments(t, testMach(24), IndexConfig{K: 19, Mode: Aggregating, S: 32}, frags)
	fine, _ := buildFromFragments(t, testMach(24), IndexConfig{K: 19, Mode: FineGrained}, frags)
	sa, sf := agg.Stats(), fine.Stats()
	if sa.DistinctSeeds != sf.DistinctSeeds || sa.TotalLocs != sf.TotalLocs || sa.RepeatSeeds != sf.RepeatSeeds {
		t.Errorf("mode disagreement: agg %+v vs fine %+v", sa, sf)
	}
}

func TestAggregatingReducesMessagesAndAtomics(t *testing.T) {
	frags := randFrags(3, 60, 100, 400)
	const S = 100
	_, mAgg := buildFromFragments(t, testMach(48), IndexConfig{K: 21, Mode: Aggregating, S: S}, frags)
	_, mFine := buildFromFragments(t, testMach(48), IndexConfig{K: 21, Mode: FineGrained}, frags)

	ca, cf := mAgg.TotalCounters(), mFine.TotalCounters()
	if ca.Atomics*2 >= cf.Atomics {
		t.Errorf("aggregation did not cut atomics: %d vs %d", ca.Atomics, cf.Atomics)
	}
	msgsAgg := ca.MsgsRemote + ca.MsgsNode
	msgsFine := cf.MsgsRemote + cf.MsgsNode
	if msgsAgg*2 >= msgsFine {
		t.Errorf("aggregation did not cut messages: %d vs %d", msgsAgg, msgsFine)
	}

	// And simulated construction time must drop substantially (Fig 8 shape).
	wallAgg := mAgg.TotalWall()
	wallFine := mFine.TotalWall()
	if wallFine/wallAgg < 2 {
		t.Errorf("aggregating stores speedup = %.2fx, want >= 2x", wallFine/wallAgg)
	}
}

func TestFlushShipsPartialBuffers(t *testing.T) {
	mach := testMach(8)
	m := upc.MustNewMachine(mach)
	ix, _ := NewIndex(mach, IndexConfig{K: 11, Mode: Aggregating, S: 1000000}, 1)
	frag := dna.Random(rand.New(rand.NewSource(4)), 500)
	m.RunPhase("stage", func(th *upc.Thread) {
		if th.ID != 0 {
			return
		}
		b := ix.NewBuilder(th)
		for off, s := range kmer.Extract(frag, 11, nil) {
			b.Add(dht.SeedEntry{Seed: s, Loc: dht.Loc{Frag: 0, Off: int32(off)}})
		}
		if b.Flushes != 0 {
			t.Errorf("premature flush with huge S")
		}
		b.Flush()
		if b.Flushes == 0 {
			t.Errorf("Flush() shipped nothing")
		}
	})
	m.RunPhase("drain", func(th *upc.Thread) { ix.Drain(th) })
	if got := ix.Stats().TotalLocs; got != 490 {
		t.Errorf("TotalLocs = %d, want 490", got)
	}
}

func TestSingleCopyFlags(t *testing.T) {
	// Fragment 0: all unique seeds. Fragment 1 and 2 share a seed.
	// Use distinct low-complexity-free sequences.
	f0 := dna.MustPack("ACGTTGCAACGGATCC")  // unique 8-mers
	shared := "GATTACAG"                    // 8-mer present in both f1 and f2
	f1 := dna.MustPack("TTTTAACC" + shared) // contains shared
	f2 := dna.MustPack(shared + "CCGGAATT") // contains shared
	frags := []dna.Packed{f0, f1, f2}
	ix, _ := buildFromFragments(t, testMach(8), IndexConfig{K: 8, Mode: Aggregating, S: 16}, frags)

	if !ix.SingleCopy(0) {
		t.Error("fragment 0 should keep single-copy flag")
	}
	if ix.SingleCopy(1) || ix.SingleCopy(2) {
		t.Error("fragments sharing a seed kept single-copy flag")
	}
	if got := ix.SingleCopyCount(); got != 1 {
		t.Errorf("SingleCopyCount = %d, want 1", got)
	}
}

func TestSingleCopyWithinFragmentRepeat(t *testing.T) {
	// A fragment whose own seed repeats internally must lose the flag.
	rep := dna.MustPack("ACGTACGTACGT") // 4-mer ACGT occurs at 0,4,8
	ix, _ := buildFromFragments(t, testMach(4), IndexConfig{K: 4, Mode: Aggregating, S: 8}, []dna.Packed{rep})
	if ix.SingleCopy(0) {
		t.Error("internally repetitive fragment kept single-copy flag")
	}
}

func TestMaxLocListCapsListButCounts(t *testing.T) {
	// One seed repeated 10 times across fragments; cap the list at 3.
	frag := dna.MustPack("AAAAAAAAAAAAA") // 13 bases, 4-mer AAAA x10
	mach := testMach(4)
	m := upc.MustNewMachine(mach)
	ix, _ := NewIndex(mach, IndexConfig{K: 4, Mode: Aggregating, S: 4, MaxLocList: 3}, 1)
	m.RunPhase("stage", func(th *upc.Thread) {
		if th.ID != 0 {
			return
		}
		b := ix.NewBuilder(th)
		for off, s := range kmer.Extract(frag, 4, nil) {
			b.Add(dht.SeedEntry{Seed: s, Loc: dht.Loc{Frag: 0, Off: int32(off)}})
		}
		b.Flush()
	})
	m.RunPhase("drain", func(th *upc.Thread) { ix.Drain(th) })
	res, ok := ix.LookupNoCharge(kmer.MustFromString("AAAA"))
	if !ok {
		t.Fatal("seed missing")
	}
	if len(res.Locs) != 3 {
		t.Errorf("capped list length = %d, want 3", len(res.Locs))
	}
	if res.Count != 10 {
		t.Errorf("count = %d, want 10", res.Count)
	}
}

func TestLookupChargesCommunication(t *testing.T) {
	frags := randFrags(5, 10, 100, 200)
	mach := testMach(48)
	ix, _ := buildFromFragments(t, testMach(48), IndexConfig{K: 15, Mode: Aggregating, S: 50}, frags)
	seeds := kmer.Extract(frags[0], 15, nil)

	m := upc.MustNewMachine(mach)
	stat := m.RunPhase("lookup", func(th *upc.Thread) {
		if th.ID != 0 {
			return
		}
		for _, s := range seeds {
			if _, ok := ix.Lookup(th, s); !ok {
				t.Errorf("indexed seed not found")
			}
		}
	})
	if stat.Counters.MsgsRemote == 0 {
		t.Error("no remote lookups charged — djb2 should spread owners off-node")
	}
	solo := upc.NewStandaloneThread(mach, 0)
	if _, ok := ix.Lookup(solo, kmer.Kmer{}); ok {
		// empty-Kmer lookup on a fresh thread: absent is fine, must not panic
		t.Log("empty seed unexpectedly present")
	}
}

func TestLookupMissingSeed(t *testing.T) {
	frags := randFrags(6, 5, 100, 150)
	ix, _ := buildFromFragments(t, testMach(8), IndexConfig{K: 31, Mode: Aggregating, S: 10}, frags)
	// A 31-mer of all A repeated is vanishingly unlikely in 750 random bases.
	if _, ok := ix.LookupNoCharge(kmer.MustFromString("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA")); ok {
		t.Skip("pathological random content; skip")
	}
}

func TestNewRejectsBadK(t *testing.T) {
	mach := testMach(4)
	if _, err := NewIndex(mach, IndexConfig{K: 0}, 1); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewIndex(mach, IndexConfig{K: 65}, 1); err == nil {
		t.Error("K=65 accepted")
	}
}

func TestOwnerDistribution(t *testing.T) {
	frags := randFrags(7, 50, 200, 400)
	ix, _ := buildFromFragments(t, testMach(48), IndexConfig{K: 21, Mode: Aggregating, S: 100}, frags)
	st := ix.Stats()
	if st.DistinctSeeds == 0 {
		t.Fatal("empty index")
	}
	mean := float64(st.DistinctSeeds) / 48
	if float64(st.MaxOwnerSeeds) > 2*mean {
		t.Errorf("max owner load %d vs mean %.0f — djb2 distribution too skewed", st.MaxOwnerSeeds, mean)
	}
}

func TestBuildModeString(t *testing.T) {
	if Aggregating.String() != "aggregating" || FineGrained.String() != "fine-grained" {
		t.Error("BuildMode.String broken")
	}
}

func BenchmarkBuildAggregating(b *testing.B) {
	frags := randFrags(8, 100, 500, 1000)
	mach := testMach(48)
	mach.Workers = 8
	for i := 0; i < b.N; i++ {
		m := upc.MustNewMachine(mach)
		ix, _ := NewIndex(mach, IndexConfig{K: 31, Mode: Aggregating, S: 1000}, len(frags))
		m.RunPhase("stage", func(th *upc.Thread) {
			bld := ix.NewBuilder(th)
			lo, hi := mach.PartitionRange(len(frags), th.ID)
			for f := lo; f < hi; f++ {
				for off, s := range kmer.Extract(frags[f], 31, nil) {
					bld.Add(dht.SeedEntry{Seed: s, Loc: dht.Loc{Frag: int32(f), Off: int32(off)}})
				}
			}
			bld.Flush()
		})
		m.RunPhase("drain", func(th *upc.Thread) { ix.Drain(th) })
	}
}

func BenchmarkLookup(b *testing.B) {
	frags := randFrags(9, 50, 500, 1000)
	ix, _ := buildFromFragments(nil, testMach(48), IndexConfig{K: 31, Mode: Aggregating, S: 1000}, frags)
	seeds := kmer.Extract(frags[0], 31, nil)
	th := upc.NewStandaloneThread(testMach(48), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup(th, seeds[i%len(seeds)])
	}
}

// randomEntries builds a deterministic entry set with repeats: numFrags
// fragments each contributing seedsPer seeds drawn from a pool small enough
// that collisions (repeat seeds) occur.
func randomEntries(seed int64, numFrags, seedsPer, pool, k int) []dht.SeedEntry {
	rng := rand.New(rand.NewSource(seed))
	poolSeeds := make([]kmer.Kmer, pool)
	for i := range poolSeeds {
		poolSeeds[i] = randomKmer(rng, k)
	}
	var es []dht.SeedEntry
	for f := 0; f < numFrags; f++ {
		for s := 0; s < seedsPer; s++ {
			es = append(es, dht.SeedEntry{
				Seed: poolSeeds[rng.Intn(pool)],
				Loc:  dht.Loc{Frag: int32(f), Off: int32(s), RC: rng.Intn(2) == 1},
			})
		}
	}
	return es
}

func randomKmer(rng *rand.Rand, k int) kmer.Kmer {
	codes := make([]byte, k)
	for i := range codes {
		codes[i] = byte(rng.Intn(4))
	}
	return kmer.FromPacked(dna.FromCodes(codes), 0, k)
}

// buildSharded stages entries through `workers` concurrent builders (each
// taking an interleaved slice), then drains and marks every shard.
func buildSharded(t *testing.T, cfg dht.ShardedConfig, es []dht.SeedEntry, numFrags, workers int) *dht.Sharded {
	t.Helper()
	sx, err := dht.NewSharded(cfg, numFrags, len(es), workers)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := sx.NewBuilder()
			for i := w; i < len(es); i += workers {
				b.Add(es[i])
			}
			b.Flush()
		}(w)
	}
	wg.Wait()
	for s := 0; s < sx.Shards(); s++ {
		sx.DrainShard(s)
	}
	for s := 0; s < sx.Shards(); s++ {
		sx.MarkShard(s)
	}
	return sx
}

// buildSim builds the simulated Aggregating index from the same entries on
// a single simulated thread.
func buildSim(t *testing.T, cfg IndexConfig, es []dht.SeedEntry, numFrags int) *Index {
	t.Helper()
	mach := upc.Edison(1)
	mach.PPN = 1
	ix, err := NewIndex(mach, cfg, numFrags)
	if err != nil {
		t.Fatal(err)
	}
	th := upc.NewStandaloneThread(mach, 0)
	b := ix.NewBuilder(th)
	for _, e := range es {
		b.Add(e)
	}
	b.Flush()
	ix.Drain(th)
	ix.MarkSingleCopy(th)
	return ix
}

// storedLocs collects a lookup result's stored locations through Len and At.
func storedLocs(r dht.LookupResult) []dht.Loc {
	locs := make([]dht.Loc, r.Len())
	for i := range locs {
		locs[i] = r.At(i)
	}
	return locs
}

// The servers' sharded index must agree with the simulated index entry for
// entry — two independent tables sharing only the dht.SortEntries order:
// same location lists (same order), same counts, same single-copy flags —
// this is what makes the two engines produce identical alignments.
func TestShardedMatchesSimulatedIndex(t *testing.T) {
	const k, numFrags = 21, 40
	es := randomEntries(7, numFrags, 50, 300, k)
	sx := buildSharded(t, dht.ShardedConfig{K: k, S: 16, Shards: 8}, es, numFrags, 4)
	ix := buildSim(t, IndexConfig{K: k, Mode: Aggregating, S: 16}, es, numFrags)

	seen := map[kmer.Kmer]bool{}
	for _, e := range es {
		if seen[e.Seed] {
			continue
		}
		seen[e.Seed] = true
		sr, sok := sx.Lookup(e.Seed)
		ir, iok := ix.LookupNoCharge(e.Seed)
		if sok != iok {
			t.Fatalf("presence disagrees for %v", e.Seed)
		}
		if sr.Count != ir.Count {
			t.Fatalf("count %d != %d for %v", sr.Count, ir.Count, e.Seed)
		}
		if sl, il := storedLocs(sr), storedLocs(ir); !reflect.DeepEqual(sl, il) {
			t.Fatalf("loc lists differ for %v:\n%v\n%v", e.Seed, sl, il)
		}
	}
	for f := 0; f < numFrags; f++ {
		if sx.SingleCopy(f) != ix.SingleCopy(f) {
			t.Fatalf("single-copy flag disagrees at frag %d", f)
		}
	}
	ss, is := sx.Stats(), ix.Stats()
	if ss.DistinctSeeds != is.DistinctSeeds || ss.TotalLocs != is.TotalLocs ||
		ss.RepeatSeeds != is.RepeatSeeds || ss.SingleCopyFrags != is.SingleCopyFrags {
		t.Fatalf("stats differ:\n%+v\n%+v", ss, is)
	}
}
