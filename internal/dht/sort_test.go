package dht

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/kmer"
)

// oracleLess is the order SortEntries must produce, written out on its own
// as the tests' oracle: slot key, then seed by kmer.Kmer.Less, then
// fragment, offset and strand, forward first.
func oracleLess(a, b SeedEntry) int {
	switch {
	case a.key != b.key:
		return cmp.Compare(a.key, b.key)
	case a.Seed != b.Seed:
		if a.Seed.Less(b.Seed) {
			return -1
		}
		return 1
	case a.Loc.Frag != b.Loc.Frag:
		return cmp.Compare(a.Loc.Frag, b.Loc.Frag)
	case a.Loc.Off != b.Loc.Off:
		return cmp.Compare(a.Loc.Off, b.Loc.Off)
	case a.Loc.RC == b.Loc.RC:
		return 0
	case b.Loc.RC:
		return -1
	}
	return 1
}

// keyed sets each entry's slot key from its seed, as ShardedBuilder.Add
// does.
func keyed(es []SeedEntry) []SeedEntry {
	for i := range es {
		es[i].key = slotKey(es[i].Seed.Hash())
	}
	return es
}

// withKey is the test hook for keys no real seed set would produce: it sets
// the slot key of every entry of es to key(i) for entry i, so distinct seeds
// can share one key, or keys can differ in one chosen byte.
func withKey(es []SeedEntry, key func(i int) uint32) []SeedEntry {
	for i := range es {
		es[i].key = key(i)
	}
	return es
}

// checkSortOrder sorts es, whose slot keys are set, with the oracle and with
// sortEntries over es cut into parts as a drain's segments are, and fails
// unless the orders agree. When the keys are the seeds' own (natural), it
// also checks SortEntries in place, which derives them itself.
func checkSortOrder(t *testing.T, label string, es []SeedEntry, cuts []int, natural bool) {
	t.Helper()
	want := slices.Clone(es)
	slices.SortFunc(want, oracleLess)
	if natural {
		got := slices.Clone(es)
		for i := range got {
			got[i].key = 0
		}
		SortEntries(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: SortEntries order differs from the oracle's (%d entries)", label, len(es))
		}
	}
	var parts [][]SeedEntry
	rest := slices.Clone(es)
	for _, c := range cuts {
		c = min(c, len(rest))
		parts, rest = append(parts, rest[:c]), rest[c:]
	}
	parts = append(parts, rest)
	dst := make([]SeedEntry, len(es))
	var scratch []SeedEntry
	sortEntries(parts, dst, &scratch)
	if !slices.Equal(dst, want) {
		t.Fatalf("%s: sortEntries over %d parts differs from the oracle's order (%d entries)", label, len(parts), len(es))
	}
}

// withLocs gives each seed a location drawn from a few fragments and
// offsets, so equal seeds carry locations in shuffled order and some carry
// the same (fragment, offset) on both strands.
func withLocs(rng *rand.Rand, seeds []kmer.Kmer) []SeedEntry {
	es := make([]SeedEntry, len(seeds))
	for i, s := range seeds {
		es[i] = SeedEntry{Seed: s, Loc: Loc{Frag: int32(rng.Intn(4)), Off: int32(rng.Intn(50)), RC: rng.Intn(2) == 1}}
	}
	return es
}

// TestSortEntriesMatchesComparator holds the radix sort to the oracle's
// order on the inputs where it goes wrong: long runs of one seed, split
// across many parts; input sizes on both sides of smallBucket and of each
// step in the number of key bytes radixed (keyBytes); distinct seeds that
// share one key, or agree on the radixed key bytes and differ below them;
// keys that differ in one byte only (each byte in turn, so every pass is at
// some point the only one that orders); buckets of the first pass on both
// sides of smallBucket; and random and repeat-heavy seeds at k on both
// sides of the one-word seed.
func TestSortEntriesMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	cuts := func(n int) []int {
		var cs []int
		for n > 0 {
			c := 1 + rng.Intn(max(1, n/3))
			cs, n = append(cs, c), n-c
		}
		return cs
	}
	check := func(label string, seeds []kmer.Kmer) {
		t.Helper()
		checkSortOrder(t, label, keyed(withLocs(rng, seeds)), cuts(len(seeds)), true)
	}
	checkKeys := func(label string, seeds []kmer.Kmer, key func(i int) uint32) {
		t.Helper()
		checkSortOrder(t, label, withKey(withLocs(rng, seeds), key), cuts(len(seeds)), false)
	}
	repeat := func(s kmer.Kmer, n int) []kmer.Kmer {
		out := make([]kmer.Kmer, n)
		for i := range out {
			out[i] = s
		}
		return out
	}
	randomSeeds := func(n, k int) []kmer.Kmer {
		out := make([]kmer.Kmer, n)
		for i := range out {
			out[i] = randomKmer(rng, k)
		}
		return out
	}

	check("empty", nil)
	for _, n := range []int{1, 2, smallBucket, smallBucket + 1, 1000} {
		check(fmt.Sprintf("all-equal n=%d", n), repeat(randomKmer(rng, 31), n))
	}
	many := append(repeat(randomKmer(rng, 51), 999), randomSeeds(500, 51)...)
	rng.Shuffle(len(many), func(i, j int) { many[i], many[j] = many[j], many[i] })
	check("one seed 999 times among 500", many)

	for _, n := range []int{smallBucket - 1, smallBucket, smallBucket + 1, 256, 257,
		256*smallBucket - 1, 256*smallBucket + 1, 1 << 16, 1<<16 + 1} {
		check(fmt.Sprintf("random n=%d", n), randomSeeds(n, 19))
	}

	// Distinct seeds sharing a key: the radix passes leave them tied, and
	// only the tie pass orders them — in a run of smallBucket or fewer, and
	// in longer ones.
	for _, n := range []int{2, smallBucket, smallBucket + 1, 300} {
		seeds := randomSeeds(n, 31)
		seeds = append(seeds, seeds[:n/2]...)
		key := rng.Uint32()
		checkKeys(fmt.Sprintf("%d distinct seeds, one key", n), seeds, func(int) uint32 { return key })
	}
	// Keys that agree on every radixed byte of a 5,000-entry input (the top
	// two) and differ below: tied runs that the tie pass must order by the
	// whole key before the seed.
	seeds := randomSeeds(5000, 33)
	top := make([]uint32, 40)
	for i := range top {
		top[i] = rng.Uint32() &^ 0xffff
	}
	checkKeys("keys tied on the radixed bytes", seeds, func(i int) uint32 { return top[i%len(top)] | uint32(rng.Intn(1<<16)) })
	for byteIx := range 4 {
		base := rng.Uint32()
		for _, n := range []int{300, 70_000} {
			checkKeys(fmt.Sprintf("keys differ only in byte %d, n=%d", byteIx, n), randomSeeds(n, 21), func(int) uint32 {
				return base&^(0xff<<(8*byteIx)) | uint32(rng.Intn(256))<<(8*byteIx)
			})
		}
	}

	// Buckets of the first pass on both sides of smallBucket: three top
	// bytes, each with size, size+1 and size+2 entries over 50 seeds.
	for _, size := range []int{smallBucket - 1, smallBucket, smallBucket + 1} {
		var keys []uint32
		for b := range 3 {
			for range size + b {
				keys = append(keys, uint32(b)<<24|uint32(rng.Intn(1<<24)))
			}
		}
		pool := randomSeeds(50, 19)
		bucketSeeds := make([]kmer.Kmer, len(keys))
		for i := range bucketSeeds {
			bucketSeeds[i] = pool[rng.Intn(len(pool))]
		}
		checkKeys(fmt.Sprintf("buckets of %d..%d", size, size+2), bucketSeeds, func(i int) uint32 { return keys[i] })
	}

	// One seed's run split across many parts and sharing its first-pass
	// bucket with other seeds (one top key byte for all), so the run is
	// gathered by the scatter, kept together by the LSD passes, and ordered
	// by location in the tie pass; then the same entries under their own keys.
	one := randomKmer(rng, 51)
	split := append(repeat(one, 400), randomSeeds(600, 51)...)
	rng.Shuffle(len(split), func(i, j int) { split[i], split[j] = split[j], split[i] })
	es := keyed(withLocs(rng, split))
	oneKey := slotKey(one.Hash())
	for i := range es {
		if es[i].Seed != one {
			es[i].key = oneKey&0xff000000 | uint32(rng.Intn(1<<24))
		}
	}
	checkSortOrder(t, "one seed's run split across parts, shared bucket", es, cuts(len(es)), false)
	checkSortOrder(t, "one seed's run split across parts, natural keys", keyed(withLocs(rng, split)), cuts(len(split)), true)

	for _, k := range []int{19, 31, 32, 33, 51} {
		es := keyed(randomEntries(int64(k), 20, 300, 400, k))
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		checkSortOrder(t, fmt.Sprintf("k=%d repeats", k), es, cuts(len(es)), true)
		check(fmt.Sprintf("k=%d distinct", k), randomSeeds(5000, k))
	}
}

// FuzzSortEntries: for any entries, SortEntries and a drain's multi-part
// sortEntries must produce the oracle's order. Each 4-byte group of data is
// one entry: a byte value v placed at one of the 16 byte positions of a
// fixed seed (so entries share most bytes, vary in few, and repeat), a
// fragment, an offset and a strand. When the position byte's bit 6 is set
// the entry's key is forced to one of four values picked by v, so distinct
// seeds share keys; cut splits the entries into parts.
func FuzzSortEntries(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 1, 2, 3, 5, 1, 2, 4, 4, 9, 15, 0, 0, 9, 15, 0, 128}, uint8(2))
	f.Add(make([]byte, 4*(smallBucket+1)), uint8(7))
	f.Add([]byte{1, 0x42, 3, 4, 2, 0x42, 3, 5, 5, 0x41, 4, 4, 9, 15, 0, 0, 9, 0x4f, 0, 128}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		const lo, hi = 0x9E3779B97F4A7C15, 0x0123456789ABCDEF
		var es []SeedEntry
		natural := true
		for ; len(data) >= 4; data = data[4:] {
			v, pos, frag, off := data[0], data[1], data[2], data[3]
			var raw [16]byte
			binary.LittleEndian.PutUint64(raw[:8], lo)
			binary.LittleEndian.PutUint64(raw[8:], hi)
			raw[pos%16] = v
			e := SeedEntry{
				Seed: kmer.Kmer{Lo: binary.LittleEndian.Uint64(raw[:8]), Hi: binary.LittleEndian.Uint64(raw[8:])},
				Loc:  Loc{Frag: int32(frag % 8), Off: int32(off % 16), RC: pos&0x80 != 0},
			}
			e.key = slotKey(e.Seed.Hash())
			if pos&0x40 != 0 {
				e.key, natural = 0x01010101*uint32(v%4), false
			}
			es = append(es, e)
		}
		var cuts []int
		if cut > 0 {
			for n := len(es); n > 0; n -= int(cut) {
				cuts = append(cuts, int(cut))
			}
		}
		checkSortOrder(t, "fuzz", es, cuts, natural)
	})
}

// BenchmarkSortEntries times SortEntries against a comparator sort into the
// same order, on distinct k = 31 seeds, from inputs of up to smallBucket
// entries (sorted by insertion: at 32 entries it costs what the comparator
// does, at 64 about twice as much, which is where smallBucket comes from)
// through sizes where the radix passes' fixed cost of 256-way histograms
// shows to a shard's size.
func BenchmarkSortEntries(b *testing.B) {
	for _, n := range []int{8, 32, 64, 512, 65536} {
		rng := rand.New(rand.NewSource(int64(n)))
		es := make([]SeedEntry, n)
		for i := range es {
			es[i] = SeedEntry{Seed: randomKmer(rng, 31), Loc: Loc{Frag: int32(i)}}
		}
		work := make([]SeedEntry, n)
		for _, sorter := range []struct {
			name string
			sort func([]SeedEntry)
		}{
			{"radix", SortEntries},
			{"comparator", func(es []SeedEntry) { slices.SortFunc(keyed(es), oracleLess) }},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, sorter.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(work, es)
					sorter.sort(work)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/entry")
			})
		}
	}
}

// drainBenchEntries is one shard's staged entries in the shape of a build
// over a real reference: the canonical seeds of frags fragments of fragLen
// random bases, every tenth fragment a copy of an earlier one (so repeated
// seeds form runs of two or more), in (fragment, offset) order.
func drainBenchEntries(seed int64, k, frags, fragLen int) []SeedEntry {
	rng := rand.New(rand.NewSource(seed))
	seqs := make([]dna.Packed, frags)
	for f := range seqs {
		if f >= 10 && f%10 == 0 {
			seqs[f] = seqs[rng.Intn(f)]
			continue
		}
		codes := make([]byte, fragLen+k-1)
		for i := range codes {
			codes[i] = byte(rng.Intn(4))
		}
		seqs[f] = dna.FromCodes(codes)
	}
	es := make([]SeedEntry, 0, frags*fragLen)
	var sc kmer.Scanner
	for f, p := range seqs {
		sc.Reset(p, k)
		for sc.Next() {
			canon, rc := sc.Canonical()
			es = append(es, SeedEntry{Seed: canon, Loc: Loc{Frag: int32(f), Off: int32(sc.Offset()), RC: rc}})
		}
	}
	return es
}

// BenchmarkDrainShard times one shard's drain — sort plus flat-table write —
// at the size a shard of the oneshot_build workload drains (~62 k entries),
// staged by two builders taking alternate fragments as BuildIndex's pool
// does, so the shard arrives as interleaved 1000-entry segments.
func BenchmarkDrainShard(b *testing.B) {
	const frags, fragLen, workers = 62, 1000, 2
	for _, k := range []int{19, 31, 51} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			es := drainBenchEntries(int64(k), k, frags, fragLen)
			sx, err := NewSharded(ShardedConfig{K: k, Shards: 1}, frags, len(es), workers)
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					bd := sx.NewBuilder()
					for _, e := range es {
						if int(e.Loc.Frag)%workers == w {
							bd.Add(e)
						}
					}
					bd.Flush()
				}(w)
			}
			wg.Wait()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sx.DrainShard(0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(es)), "ns/entry")
		})
	}
}
