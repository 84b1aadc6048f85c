package sim

import (
	"math/rand"
	"testing"

	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/upc"
)

// stagedIndex constructs a small index for Group tests.
func stagedIndex(t testing.TB, mach upc.MachineConfig, k int, frags []dna.Packed) *Index {
	ix, err := NewIndex(mach, IndexConfig{K: k, Mode: Aggregating, S: 64}, len(frags))
	if err != nil {
		t.Fatal(err)
	}
	m := upc.MustNewMachine(mach)
	m.RunPhase("stage", func(th *upc.Thread) {
		b := ix.NewBuilder(th)
		lo, hi := mach.PartitionRange(len(frags), th.ID)
		for f := lo; f < hi; f++ {
			for off, s := range kmer.Extract(frags[f], k, nil) {
				b.Add(dht.SeedEntry{Seed: s, Loc: dht.Loc{Frag: int32(f), Off: int32(off)}})
			}
		}
		b.Flush()
	})
	m.RunPhase("drain", func(th *upc.Thread) { ix.Drain(th) })
	return ix
}

func TestGroupSeedCacheServesRepeatLookups(t *testing.T) {
	mach := upc.Edison(96)
	mach.Workers = 4
	rng := rand.New(rand.NewSource(3))
	frags := []dna.Packed{dna.Random(rng, 400)}
	ix := stagedIndex(t, mach, 21, frags)
	g := NewGroup(mach, 1<<20, 1<<20)
	seeds := kmer.Extract(frags[0], 21, nil)

	m := upc.MustNewMachine(mach)
	// Thread 0 looks every seed up twice; every off-node seed's second
	// lookup must be a cache hit.
	m.RunPhase("lookup", func(th *upc.Thread) {
		if th.ID != 0 {
			return
		}
		for pass := 0; pass < 2; pass++ {
			for _, s := range seeds {
				if _, ok := g.Lookup(th, ix, s); !ok {
					t.Errorf("seed missing")
				}
			}
		}
	})
	sc := g.SeedCounters()
	if sc.Hits == 0 {
		t.Fatal("no seed-cache hits on repeated lookups")
	}
	// Hits should be roughly the number of off-node seeds (second pass).
	if sc.Hits < int64(len(seeds))/2 {
		t.Errorf("seed cache hits = %d, want >= %d", sc.Hits, len(seeds)/2)
	}
}

func TestGroupCacheReducesCommunication(t *testing.T) {
	mach := upc.Edison(96)
	mach.Workers = 4
	rng := rand.New(rand.NewSource(4))
	frags := []dna.Packed{dna.Random(rng, 500)}
	ix := stagedIndex(t, mach, 21, frags)
	seeds := kmer.Extract(frags[0], 21, nil)

	run := func(seedBytes int64) float64 {
		g := NewGroup(mach, seedBytes, 0)
		m := upc.MustNewMachine(mach)
		stat := m.RunPhase("lookup", func(th *upc.Thread) {
			if th.ID != 0 {
				return
			}
			for pass := 0; pass < 5; pass++ {
				for _, s := range seeds {
					g.Lookup(th, ix, s)
				}
			}
		})
		return stat.MaxComm
	}
	withCache := run(1 << 20)
	noCache := run(0)
	if noCache/withCache < 2 {
		t.Errorf("cache reduced comm only %.2fx (no-cache %v, cache %v)", noCache/withCache, noCache, withCache)
	}
}

func TestGroupNegativeCaching(t *testing.T) {
	mach := upc.Edison(96)
	mach.Workers = 4
	rng := rand.New(rand.NewSource(5))
	frags := []dna.Packed{dna.Random(rng, 300)}
	ix := stagedIndex(t, mach, 31, frags)
	g := NewGroup(mach, 1<<20, 0)
	absent := kmer.MustFromString("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA")
	if ix.OwnerOf(absent) < 24 {
		t.Skip("absent seed owned on-node for thread 0; cache path not exercised")
	}

	m := upc.MustNewMachine(mach)
	m.RunPhase("lookup", func(th *upc.Thread) {
		if th.ID != 0 {
			return
		}
		for i := 0; i < 3; i++ {
			if _, ok := g.Lookup(th, ix, absent); ok {
				t.Error("absent seed reported found")
			}
		}
	})
	sc := g.SeedCounters()
	if sc.Hits != 2 {
		t.Errorf("negative cache hits = %d, want 2", sc.Hits)
	}
}

func TestGroupTargetCache(t *testing.T) {
	mach := upc.Edison(96)
	mach.Workers = 4
	g := NewGroup(mach, 0, 10_000)
	m := upc.MustNewMachine(mach)
	var firstHit, secondHit bool
	m.RunPhase("fetch", func(th *upc.Thread) {
		if th.ID != 0 {
			return
		}
		// Fragment owned by thread 50 (remote node).
		firstHit = g.FetchTarget(th, 7, 500, 50)
		secondHit = g.FetchTarget(th, 7, 500, 50)
	})
	if firstHit {
		t.Error("first fetch reported as hit")
	}
	if !secondHit {
		t.Error("second fetch missed the target cache")
	}
	tc := g.TargetCounters()
	if tc.Hits != 1 || tc.Misses != 1 {
		t.Errorf("target counters = %+v, want 1 hit 1 miss", tc)
	}
}

func TestGroupOnNodeFetchBypassesCache(t *testing.T) {
	mach := upc.Edison(96)
	mach.Workers = 4
	g := NewGroup(mach, 1<<20, 1<<20)
	m := upc.MustNewMachine(mach)
	m.RunPhase("fetch", func(th *upc.Thread) {
		if th.ID != 0 {
			return
		}
		g.FetchTarget(th, 3, 100, 5) // owner on same node
		g.FetchTarget(th, 3, 100, 5)
	})
	tc := g.TargetCounters()
	if tc.Hits != 0 || tc.Misses != 0 {
		t.Errorf("on-node fetches touched the cache: %+v", tc)
	}
}

func TestGroupCountersAggregateAcrossNodes(t *testing.T) {
	mach := upc.Edison(96)
	mach.Workers = 4
	g := NewGroup(mach, 1<<20, 1<<20)
	m := upc.MustNewMachine(mach)
	m.RunPhase("fetch", func(th *upc.Thread) {
		if th.ID%24 != 0 {
			return // one thread per node
		}
		owner := (th.ID + 48) % 96 // two nodes away
		g.FetchTarget(th, int32(th.Node), 100, owner)
		g.FetchTarget(th, int32(th.Node), 100, owner)
	})
	tc := g.TargetCounters()
	if tc.Hits != 4 || tc.Misses != 4 {
		t.Errorf("aggregated counters = %+v, want 4 hits 4 misses", tc)
	}
}

// Group's entry points must be safe under real concurrency: the simulated
// machine executes threads of the same node on concurrent worker
// goroutines, all hitting the node's shard locks and the per-thread comm
// attribution slices. Run under -race in CI's race job.
func TestGroupConcurrentLookupAndFetch(t *testing.T) {
	mach := upc.Edison(96)
	mach.Workers = 8
	rng := rand.New(rand.NewSource(9))
	frags := []dna.Packed{dna.Random(rng, 2000), dna.Random(rng, 2000)}
	ix := stagedIndex(t, mach, 21, frags)
	g := NewGroup(mach, 1<<20, 1<<20)
	seeds := kmer.Extract(frags[0], 21, nil)
	seeds = append(seeds, kmer.Extract(frags[1], 21, nil)...)

	m := upc.MustNewMachine(mach)
	m.RunPhase("concurrent", func(th *upc.Thread) {
		for pass := 0; pass < 2; pass++ {
			for i := th.ID % 7; i < len(seeds); i += 7 {
				if _, ok := g.Lookup(th, ix, seeds[i]); !ok {
					t.Errorf("staged seed missing")
					return
				}
				frag := int32(i % len(frags))
				g.FetchTarget(th, frag, 500, int(frag)%mach.Threads)
			}
		}
	})
	cs := g.SeedCounters()
	if cs.Hits+cs.Misses == 0 {
		t.Error("no cache traffic recorded")
	}
	if g.CommSeedMax() <= 0 || g.CommTargetMax() <= 0 {
		t.Error("comm attribution not recorded")
	}
}
