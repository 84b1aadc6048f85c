package dht

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"github.com/lbl-repro/meraligner/internal/kmer"
)

// oracleEntry is what the naive reference table holds for one seed.
type oracleEntry struct {
	locs  []Loc
	count int32
}

// naiveOracle is the test-only reference the flat table is checked against:
// a plain Go map filled one entry at a time from the entries in (seed, frag,
// off, strand) order — sorted here with its own reflection-based comparator,
// so it also pins the order SortEntries produces — with every occurrence
// stored and counted.
func naiveOracle(es []SeedEntry) map[kmer.Kmer]oracleEntry {
	sorted := append([]SeedEntry(nil), es...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Seed != b.Seed {
			return a.Seed.Less(b.Seed)
		}
		if a.Loc.Frag != b.Loc.Frag {
			return a.Loc.Frag < b.Loc.Frag
		}
		if a.Loc.Off != b.Loc.Off {
			return a.Loc.Off < b.Loc.Off
		}
		return !a.Loc.RC && b.Loc.RC
	})
	m := map[kmer.Kmer]oracleEntry{}
	for _, e := range sorted {
		ent := m[e.Seed]
		ent.count++
		ent.locs = append(ent.locs, e.Loc)
		m[e.Seed] = ent
	}
	return m
}

// oracleStats derives the Stats a table over oracle must report: per-shard
// seed counts from ShardOf, single-copy flags from the stored locations of
// repeated seeds (§IV-A).
func oracleStats(sx *Sharded, oracle map[kmer.Kmer]oracleEntry, numFrags int) Stats {
	st := Stats{Fragments: numFrags}
	perShard := make([]int, sx.Shards())
	repeated := make([]bool, numFrags)
	for seed, ent := range oracle {
		perShard[sx.ShardOf(seed)]++
		st.DistinctSeeds++
		st.TotalLocs += len(ent.locs)
		st.MaxListLen = max(st.MaxListLen, len(ent.locs))
		if ent.count > 1 {
			st.RepeatSeeds++
			for _, l := range ent.locs {
				repeated[l.Frag] = true
			}
		}
	}
	st.MaxOwnerSeeds, st.MinOwnerSeeds = slices.Max(perShard), slices.Min(perShard)
	for _, r := range repeated {
		if !r {
			st.SingleCopyFrags++
		}
	}
	return st
}

// resultLocs collects a lookup result's stored locations through Len and At.
func resultLocs(r LookupResult) []Loc {
	var locs []Loc
	for i := range r.Len() {
		locs = append(locs, r.At(i))
	}
	return locs
}

// checkAgainstOracle asserts that every oracle seed looks up to the oracle's
// list and count, that absent seeds miss, and that Stats agree.
func checkAgainstOracle(t *testing.T, label string, sx *Sharded, oracle map[kmer.Kmer]oracleEntry, misses []kmer.Kmer, numFrags int) {
	t.Helper()
	for s, w := range oracle {
		res, ok := sx.Lookup(s)
		if !ok {
			t.Fatalf("%s seed %v: staged seed missing", label, s)
		}
		if res.Count != w.count {
			t.Fatalf("%s seed %v: count=%d, oracle count=%d", label, s, res.Count, w.count)
		}
		if got := resultLocs(res); !slices.Equal(got, w.locs) {
			t.Fatalf("%s seed %v: locs %v, oracle locs %v", label, s, got, w.locs)
		}
	}
	for _, s := range misses {
		if _, ok := sx.Lookup(s); ok {
			t.Fatalf("%s seed %v: absent seed found", label, s)
		}
	}
	if got, want := sx.Stats(), oracleStats(sx, oracle, numFrags); got != want {
		t.Fatalf("%s stats diverged:\ntable:  %+v\noracle: %+v", label, got, want)
	}
}

// absentSeeds draws n seeds that are not keys of oracle.
func absentSeeds(rng *rand.Rand, oracle map[kmer.Kmer]oracleEntry, k, n int) []kmer.Kmer {
	var misses []kmer.Kmer
	for len(misses) < n {
		s := randomKmer(rng, k)
		if _, ok := oracle[s]; !ok {
			misses = append(misses, s)
		}
	}
	return misses
}

const sealedK, sealedFrags = 21, 60

// sealedWorkload builds a sharded index from a randomized entry set and
// returns it (drained and marked, not yet sealed) along with its oracle and a
// set of absent probe seeds.
func sealedWorkload(t *testing.T, seed int64) (*Sharded, map[kmer.Kmer]oracleEntry, []kmer.Kmer) {
	t.Helper()
	es := randomEntries(seed, sealedFrags, 40, 400, sealedK)
	sx := buildSharded(t, ShardedConfig{K: sealedK, S: 64, Shards: 16}, es, sealedFrags, 3)
	oracle := naiveOracle(es)
	return sx, oracle, absentSeeds(rand.New(rand.NewSource(seed+1)), oracle, sealedK, 200)
}

// TestSealedLookupMatchesBuckets is the table parity oracle: for every
// present seed and a batch of absent ones, the flat table must return exactly
// what the naive map holds — same location lists in the same order, same
// occurrence counts, same misses — both as the drain left it and after Seal.
func TestSealedLookupMatchesBuckets(t *testing.T) {
	sx, oracle, misses := sealedWorkload(t, 11)
	checkAgainstOracle(t, "drained", sx, oracle, misses, sealedFrags)
	sx.Seal()
	checkAgainstOracle(t, "sealed", sx, oracle, misses, sealedFrags)
}

// TestSealedLocsCapacityLimited: an append on a returned location list must
// not clobber the neighbouring entry in the shared arena.
func TestSealedLocsCapacityLimited(t *testing.T) {
	sx, oracle, _ := sealedWorkload(t, 13)
	sx.Seal()
	for s := range oracle {
		res, ok := sx.Lookup(s)
		if !ok {
			t.Fatal("present seed missing after seal")
		}
		if cap(res.Locs) != len(res.Locs) {
			t.Fatalf("sealed Locs cap %d > len %d: appends could overwrite the arena",
				cap(res.Locs), len(res.Locs))
		}
	}
}

// TestSealedStatsMatchBuckets: Stats scanned from the flat layout must equal
// the Stats derived from the naive map, and Seal must not change them.
func TestSealedStatsMatchBuckets(t *testing.T) {
	sx, oracle, _ := sealedWorkload(t, 17)
	want := oracleStats(sx, oracle, sealedFrags)
	if got := sx.Stats(); got != want {
		t.Fatalf("stats before Seal:\ntable:  %+v\noracle: %+v", got, want)
	}
	sx.Seal()
	if got := sx.Stats(); got != want {
		t.Fatalf("stats after Seal:\ntable:  %+v\noracle: %+v", got, want)
	}
}

// TestResidentBytesExact: the sealed ResidentBytes must equal, byte for
// byte, what the flat structures actually hold (slot arrays and Hi words at
// their allocated length, arenas at capacity, the single-copy flag array).
func TestResidentBytesExact(t *testing.T) {
	sx, _, _ := sealedWorkload(t, 19)
	sx.Seal()

	var want int64
	for i := range sx.flat {
		fs := &sx.flat[i]
		want += int64(len(fs.slots)) * int64(unsafe.Sizeof(flatSlot{}))
		want += int64(len(fs.hi)) * int64(unsafe.Sizeof(uint64(0)))
		want += int64(cap(fs.locs)) * int64(unsafe.Sizeof(Loc{}))
	}
	want += int64(len(sx.singleCopy)) * int64(unsafe.Sizeof(int32(0)))

	if got := sx.ResidentBytes(); got != want {
		t.Fatalf("ResidentBytes=%d, structures hold %d", got, want)
	}

	// Sanity-bound the number against the content: it must cover at
	// least the packed payload (a slot for every distinct seed, and every
	// stored location past a seed's first, which may be inline) and, with a
	// <= 0.75 load factor plus the power-of-two rounding, at most ~8x the
	// minimal slot bytes plus the arena (every location, and a count word
	// per seed at most).
	st := sx.Stats()
	slotBytes, locBytes := int64(unsafe.Sizeof(flatSlot{})), int64(unsafe.Sizeof(Loc{}))
	minBytes := int64(st.DistinctSeeds)*slotBytes + int64(st.TotalLocs-st.DistinctSeeds)*locBytes
	maxBytes := 8*int64(st.DistinctSeeds)*slotBytes + int64(st.TotalLocs+st.DistinctSeeds)*locBytes +
		int64(len(sx.singleCopy)*4) + int64(len(sx.flat))*(1<<minFlatBits)*slotBytes
	if got := sx.ResidentBytes(); got < minBytes || got > maxBytes {
		t.Fatalf("ResidentBytes=%d implausible for payload %d..%d", got, minBytes, maxBytes)
	}
}

// TestSealIdempotent: a second Seal must be a no-op.
func TestSealIdempotent(t *testing.T) {
	sx, oracle, misses := sealedWorkload(t, 23)
	sx.Seal()
	sx.Seal()
	checkAgainstOracle(t, "double Seal", sx, oracle, misses, sealedFrags)
}

// TestSealedEmptyShards: an index with no entries (or with empty shards)
// must seal and answer lookups with clean misses.
func TestSealedEmptyShards(t *testing.T) {
	sx, err := NewSharded(ShardedConfig{K: 21, Shards: 8}, 4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < sx.Shards(); s++ {
		sx.DrainShard(s)
	}
	sx.Seal()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		if _, ok := sx.Lookup(randomKmer(rng, 21)); ok {
			t.Fatal("lookup hit in an empty sealed index")
		}
	}
	if st := sx.Stats(); st.DistinctSeeds != 0 || st.TotalLocs != 0 {
		t.Fatalf("empty sealed index stats: %+v", st)
	}
}

// BenchmarkSealedLookup times the flat-table probe on a 50k-seed table with a
// 90%-hit probe mix.
func BenchmarkSealedLookup(b *testing.B) {
	const k, numFrags = 31, 80
	rng := rand.New(rand.NewSource(5))
	pool := make([]kmer.Kmer, 50_000)
	for i := range pool {
		pool[i] = randomKmer(rng, k)
	}
	sx, err := NewSharded(ShardedConfig{K: k, S: 1000, Shards: 16}, numFrags, 120_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	bd := sx.NewBuilder()
	for i := 0; i < 120_000; i++ {
		bd.Add(SeedEntry{
			Seed: pool[rng.Intn(len(pool))],
			Loc:  Loc{Frag: int32(i % numFrags), Off: int32(i), RC: i%2 == 0},
		})
	}
	bd.Flush()
	for s := 0; s < sx.Shards(); s++ {
		sx.DrainShard(s)
	}
	sx.Seal()
	probes := make([]kmer.Kmer, 4096)
	for i := range probes {
		if rng.Intn(10) == 0 {
			probes[i] = randomKmer(rng, k) // likely miss
		} else {
			probes[i] = pool[rng.Intn(len(pool))]
		}
	}
	b.ResetTimer()
	var locs int
	for i := 0; i < b.N; i++ {
		res, _ := sx.Lookup(probes[i%len(probes)])
		locs += res.Len()
	}
	_ = locs
}

// TestPropertyDrainMatchesOracle: over random entry sets with heavy repeats,
// seed lengths on both sides of the one-word key, every shard count and
// staging size, built by 1-4 concurrent builders shipping in shuffled order,
// the table must hold exactly what the naive map holds, report the exact
// footprint, respect the load factor, keep Hi words exactly when K > 32,
// and be the same bytes — slot by slot, location by location, padding
// included — whatever the builder count.
func TestPropertyDrainMatchesOracle(t *testing.T) {
	const numFrags = 12
	rng := rand.New(rand.NewSource(29))
	for _, k := range []int{19, 31, 32, 33, 51} {
		for _, shards := range []int{1, 3, 16} {
			for _, S := range []int{1, 7, 1000} {
				// A pool far smaller than the entry count: most seeds repeat.
				es := randomEntries(rng.Int63(), numFrags, 50+rng.Intn(100), 20+rng.Intn(200), k)
				oracle := naiveOracle(es)
				misses := absentSeeds(rng, oracle, k, 50)
				cfg := ShardedConfig{K: k, S: S, Shards: shards}
				var ref *Sharded
				for builders := 1; builders <= 4; builders++ {
					label := fmt.Sprintf("k=%d shards=%d S=%d builders=%d", k, shards, S, builders)
					rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
					sx := stageSharded(t, cfg, es, numFrags, builders)
					// Staged entries travel by memmove, so their padding holds
					// whatever the staging buffers held: make that worst case
					// deterministic.
					entryBytes := int(unsafe.Sizeof(SeedEntry{}))
					for j, raw := 0, rawBytes(sx.arena); j < len(raw); j++ {
						if j%entryBytes >= int(unsafe.Offsetof(SeedEntry{}.Loc))+9 {
							raw[j] = 0xA5
						}
					}
					drainAndMark(sx)
					checkAgainstOracle(t, label, sx, oracle, misses, numFrags)

					want := int64(4 * numFrags)
					for i := range sx.flat {
						fs := &sx.flat[i]
						want += int64(len(fs.slots))*FlatEntryWireBytes + int64(len(fs.hi))*8 + int64(cap(fs.locs))*LocWireBytes
						if (fs.hi != nil) != (k > 32) || (fs.hi != nil && len(fs.hi) != len(fs.slots)) {
							t.Fatalf("%s shard %d: %d Hi words for %d slots", label, i, len(fs.hi), len(fs.slots))
						}
						occupied := 0
						for j := range fs.slots {
							if fs.slots[j].b != 0 {
								occupied++
							}
						}
						if 4*occupied > 3*len(fs.slots) {
							t.Fatalf("%s shard %d: %d of %d slots occupied, load factor > 0.75", label, i, occupied, len(fs.slots))
						}
						for j, b := range rawBytes(fs.locs) {
							if j%LocWireBytes >= 9 && b != 0 {
								t.Fatalf("%s shard %d: non-zero padding byte %d in location %d", label, i, j%LocWireBytes, j/LocWireBytes)
							}
						}
					}
					if got := sx.ResidentBytes(); got != want {
						t.Fatalf("%s: ResidentBytes=%d, structures hold %d", label, got, want)
					}

					if ref == nil {
						ref = sx
						continue
					}
					for i := range sx.flat {
						if sx.flat[i].shift != ref.flat[i].shift ||
							!bytes.Equal(rawBytes(sx.flat[i].slots), rawBytes(ref.flat[i].slots)) ||
							!slices.Equal(sx.flat[i].hi, ref.flat[i].hi) ||
							!bytes.Equal(rawBytes(sx.flat[i].locs), rawBytes(ref.flat[i].locs)) {
							t.Fatalf("%s: shard %d differs from the 1-builder table", label, i)
						}
					}
				}
			}
		}
	}
}

// TestUniqueSeedsNoArena: a table whose every seed occurs once keeps every
// location in its slot — no shard has a location arena — and its footprint
// is the slot arrays at 16 bytes a slot plus the single-copy flags.
func TestUniqueSeedsNoArena(t *testing.T) {
	const k, numFrags = 31, 20
	rng := rand.New(rand.NewSource(37))
	seen := map[kmer.Kmer]bool{}
	var es []SeedEntry
	for len(es) < 3000 {
		s := randomKmer(rng, k)
		if seen[s] {
			continue
		}
		seen[s] = true
		n := len(es)
		es = append(es, SeedEntry{Seed: s, Loc: Loc{Frag: int32(n % numFrags), Off: int32(n), RC: n%3 == 0}})
	}
	sx := buildSharded(t, ShardedConfig{K: k, S: 64, Shards: 8}, es, numFrags, 2)
	sx.Seal()
	checkAgainstOracle(t, "unique", sx, naiveOracle(es), absentSeeds(rng, naiveOracle(es), k, 50), numFrags)
	want := int64(numFrags) * 4
	for i := range sx.flat {
		fs := &sx.flat[i]
		if len(fs.locs) != 0 || fs.hi != nil {
			t.Fatalf("shard %d: %d arena entries and %d Hi words in a table of unique seeds", i, len(fs.locs), len(fs.hi))
		}
		want += int64(len(fs.slots)) * 16
	}
	if got := sx.ResidentBytes(); got != want {
		t.Fatalf("ResidentBytes=%d, want slots x 16 + flags = %d", got, want)
	}
}

// TestShardCountsGuard: a shard whose stored locations would wrap the int32
// slot fields must panic naming the shard and the count, and the largest
// representable shard must not.
func TestShardCountsGuard(t *testing.T) {
	checkShardCounts(0, math.MaxInt32)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "arena overflow") || !strings.Contains(msg, "shard 7") || !strings.Contains(msg, "2147483648") {
			t.Errorf("checkShardCounts(7, 2147483648) panicked with %q", msg)
		}
	}()
	checkShardCounts(7, math.MaxInt32+1)
}

// TestSlotFieldGuard: a location offset past the slot's 30-bit field must
// panic at drain naming the shard, and the largest representable offset
// must be stored and read back inline.
func TestSlotFieldGuard(t *testing.T) {
	s := randomKmer(rand.New(rand.NewSource(1)), 21)
	fs := newFlatShard(3, 21, []SeedEntry{{Seed: s, Loc: Loc{Frag: 2, Off: maxSlotField, RC: true}}}, nil)
	if res, ok := fs.lookup(s, s.Hash()); !ok || res.Len() != 1 || res.At(0) != (Loc{Frag: 2, Off: maxSlotField, RC: true}) {
		t.Fatalf("largest offset: lookup %+v, %v", res, ok)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "location offset 1073741824") || !strings.Contains(msg, "shard 3") {
			t.Errorf("offset 2^30 panicked with %q", msg)
		}
	}()
	newFlatShard(3, 21, []SeedEntry{{Seed: s, Loc: Loc{Off: maxSlotField + 1}}}, nil)
}
