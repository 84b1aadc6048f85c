package dht

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/kmer"
)

// randomEntries builds a deterministic entry set with repeats: numFrags
// fragments each contributing seedsPer seeds drawn from a pool small enough
// that collisions (repeat seeds) occur.
func randomEntries(seed int64, numFrags, seedsPer, pool, k int) []SeedEntry {
	rng := rand.New(rand.NewSource(seed))
	poolSeeds := make([]kmer.Kmer, pool)
	for i := range poolSeeds {
		poolSeeds[i] = randomKmer(rng, k)
	}
	var es []SeedEntry
	for f := 0; f < numFrags; f++ {
		for s := 0; s < seedsPer; s++ {
			es = append(es, SeedEntry{
				Seed: poolSeeds[rng.Intn(pool)],
				Loc:  Loc{Frag: int32(f), Off: int32(s), RC: rng.Intn(2) == 1},
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

// buildSharded stages entries with stageSharded, then drains and marks every
// shard.
func buildSharded(t *testing.T, cfg ShardedConfig, es []SeedEntry, numFrags, workers int) *Sharded {
	t.Helper()
	sx := stageSharded(t, cfg, es, numFrags, workers)
	drainAndMark(sx)
	return sx
}

func drainAndMark(sx *Sharded) {
	for s := 0; s < sx.Shards(); s++ {
		sx.DrainShard(s)
	}
	for s := 0; s < sx.Shards(); s++ {
		sx.MarkShard(s)
	}
}

// stageSharded stages entries through `workers` concurrent builders (each
// taking an interleaved slice) up to the drain barrier.
func stageSharded(t *testing.T, cfg ShardedConfig, es []SeedEntry, numFrags, workers int) *Sharded {
	t.Helper()
	sx, err := NewSharded(cfg, numFrags, len(es), workers)
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
	return sx
}

// Table contents must not depend on how many workers staged the entries or
// on the shard count.
func TestShardedContentIndependentOfWorkersAndShards(t *testing.T) {
	const k, numFrags = 19, 30
	es := randomEntries(11, numFrags, 40, 200, k)
	ref := buildSharded(t, ShardedConfig{K: k, S: 8, Shards: 4}, es, numFrags, 1)
	for _, workers := range []int{2, 7} {
		for _, shards := range []int{4, 13} {
			got := buildSharded(t, ShardedConfig{K: k, S: 8, Shards: shards}, es, numFrags, workers)
			seen := map[kmer.Kmer]bool{}
			for _, e := range es {
				if seen[e.Seed] {
					continue
				}
				seen[e.Seed] = true
				rr, _ := ref.Lookup(e.Seed)
				gr, _ := got.Lookup(e.Seed)
				if !reflect.DeepEqual(rr, gr) {
					t.Fatalf("workers=%d shards=%d: table differs at %v", workers, shards, e.Seed)
				}
			}
		}
	}
}

// The arena and segment bounds must hold exactly when every staged batch is
// a partial flush (worst case for the segment count bound).
func TestShardedSegmentBoundPartialFlushes(t *testing.T) {
	const k = 15
	es := randomEntries(3, 10, 7, 50, k)
	// S much larger than per-shard staging: all ships happen at Flush.
	sx := buildSharded(t, ShardedConfig{K: k, S: 1 << 20, Shards: 32}, es, 10, 8)
	if got := sx.Stats().TotalLocs; got != len(es) {
		t.Fatalf("TotalLocs = %d, want %d", got, len(es))
	}
}

func TestShardedConfigValidation(t *testing.T) {
	if _, err := NewSharded(ShardedConfig{K: 0}, 1, 1, 1); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewSharded(ShardedConfig{K: 21}, 1, 1, 0); err == nil {
		t.Error("workers=0 accepted")
	}
	if _, err := NewSharded(ShardedConfig{K: 21}, 0, 0, 1); err != nil {
		t.Errorf("empty index rejected: %v", err)
	}
}

// Concurrent Lookup/SingleCopy after construction must be race-free (run
// under -race in CI's race job).
func TestShardedConcurrentLookup(t *testing.T) {
	const k, numFrags = 21, 20
	es := randomEntries(5, numFrags, 30, 100, k)
	sx := buildSharded(t, ShardedConfig{K: k, S: 16, Shards: 8}, es, numFrags, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(es); i += 8 {
				if _, ok := sx.Lookup(es[i].Seed); !ok {
					t.Errorf("staged seed missing: %v", es[i].Seed)
					return
				}
				sx.SingleCopy(int(es[i].Loc.Frag))
			}
		}(w)
	}
	wg.Wait()
}

func TestWireBytes(t *testing.T) {
	if WireBytes(51) != 13+9 {
		t.Errorf("WireBytes(51) = %d, want 22", WireBytes(51))
	}
	if WireBytes(19) != 5+9 {
		t.Errorf("WireBytes(19) = %d, want 14", WireBytes(19))
	}
}
