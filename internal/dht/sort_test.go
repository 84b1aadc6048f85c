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

// compareEntries is the order SortEntries must produce, as a comparator:
// (seed by kmer.Kmer.Less, fragment, offset, strand forward first). The
// sort it replaced used it; the tests keep it as their oracle.
func compareEntries(a, b SeedEntry) int {
	if a.Seed != b.Seed {
		if a.Seed.Less(b.Seed) {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.Loc.Frag, b.Loc.Frag); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Loc.Off, b.Loc.Off); c != 0 {
		return c
	}
	if a.Loc.RC == b.Loc.RC {
		return 0
	}
	if b.Loc.RC {
		return -1
	}
	return 1
}

// checkSortOrder sorts es with the comparator and both radix entry points —
// SortEntries in place, and sortEntries over es cut into parts as a drain's
// segments are — and fails unless all three orders agree.
func checkSortOrder(t *testing.T, label string, es []SeedEntry, cuts []int) {
	t.Helper()
	want := slices.Clone(es)
	slices.SortFunc(want, compareEntries)
	got := slices.Clone(es)
	SortEntries(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: SortEntries order differs from the comparator's (%d entries)", label, len(es))
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
		t.Fatalf("%s: sortEntries over %d parts differs from the comparator's order (%d entries)", label, len(parts), len(es))
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

// TestSortEntriesMatchesComparator holds the radix sort to the comparator's
// order on the inputs where a radix sort goes wrong: no varying byte at all,
// long runs of one seed, keys that differ only in Hi or only in one byte
// (each byte in turn, so every digit is at some point the only pass, and the
// most significant one), buckets and whole inputs on both sides of
// smallBucket, and random and repeat-heavy seeds at k on both sides of the
// one-word key.
func TestSortEntriesMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
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
		es := withLocs(rng, seeds)
		checkSortOrder(t, label, es, cuts(len(es)))
	}
	repeat := func(s kmer.Kmer, n int) []kmer.Kmer {
		out := make([]kmer.Kmer, n)
		for i := range out {
			out[i] = s
		}
		return out
	}

	check("empty", nil)
	for _, n := range []int{1, 2, smallBucket, smallBucket + 1, 1000} {
		check(fmt.Sprintf("all-equal n=%d", n), repeat(randomKmer(rng, 31), n))
	}
	many := repeat(randomKmer(rng, 51), 999)
	for range 500 {
		many = append(many, randomKmer(rng, 51))
	}
	rng.Shuffle(len(many), func(i, j int) { many[i], many[j] = many[j], many[i] })
	check("one seed 999 times among 500", many)

	base := kmer.Kmer{Lo: rng.Uint64(), Hi: rng.Uint64()}
	hiOnly := make([]kmer.Kmer, 600)
	for i := range hiOnly {
		hiOnly[i] = kmer.Kmer{Lo: base.Lo, Hi: rng.Uint64() >> uint(rng.Intn(64))}
	}
	check("differ only in Hi", hiOnly)
	for byteIx := range 16 {
		seeds := make([]kmer.Kmer, 300)
		for i := range seeds {
			var raw [16]byte
			binary.LittleEndian.PutUint64(raw[:8], base.Lo)
			binary.LittleEndian.PutUint64(raw[8:], base.Hi)
			raw[byteIx] = byte(rng.Intn(256))
			seeds[i] = kmer.Kmer{Lo: binary.LittleEndian.Uint64(raw[:8]), Hi: binary.LittleEndian.Uint64(raw[8:])}
		}
		check(fmt.Sprintf("differ only in byte %d", byteIx), seeds)
	}

	// Two varying bytes: byte 1 picks the bucket, byte 0 orders within it.
	for _, size := range []int{smallBucket - 1, smallBucket, smallBucket + 1} {
		var seeds []kmer.Kmer
		for b := range 3 {
			for range size + b {
				seeds = append(seeds, kmer.Kmer{Lo: uint64(b)<<8 | uint64(rng.Intn(256)), Hi: base.Hi})
			}
		}
		check(fmt.Sprintf("buckets of %d..%d", size, size+2), seeds)
	}
	for _, n := range []int{smallBucket - 1, smallBucket, smallBucket + 1, 256*smallBucket - 1, 256*smallBucket + 1} {
		seeds := make([]kmer.Kmer, n)
		for i := range seeds {
			seeds[i] = randomKmer(rng, 19)
		}
		check(fmt.Sprintf("random n=%d", n), seeds)
	}

	for _, k := range []int{19, 31, 32, 33, 51} {
		es := randomEntries(int64(k), 20, 300, 400, k)
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		checkSortOrder(t, fmt.Sprintf("k=%d repeats", k), es, cuts(len(es)))
		seeds := make([]kmer.Kmer, 5000)
		for i := range seeds {
			seeds[i] = randomKmer(rng, k)
		}
		check(fmt.Sprintf("k=%d distinct", k), seeds)
	}
}

// FuzzSortEntries: for any entries, SortEntries and a drain's multi-part
// sortEntries must produce the comparator's order. Each 4-byte group of
// data is one entry: a byte value v placed at one of the 16 byte positions
// of a fixed key (so entries share most bytes, vary in few, and repeat), a
// fragment, an offset and a strand; cut splits the entries into parts.
func FuzzSortEntries(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 1, 2, 3, 5, 1, 2, 4, 4, 9, 15, 0, 0, 9, 15, 0, 128}, uint8(2))
	f.Add(make([]byte, 4*(smallBucket+1)), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		const lo, hi = 0x9E3779B97F4A7C15, 0x0123456789ABCDEF
		var es []SeedEntry
		for ; len(data) >= 4; data = data[4:] {
			v, pos, frag, off := data[0], data[1], data[2], data[3]
			var raw [16]byte
			binary.LittleEndian.PutUint64(raw[:8], lo)
			binary.LittleEndian.PutUint64(raw[8:], hi)
			raw[pos%16] = v
			es = append(es, SeedEntry{
				Seed: kmer.Kmer{Lo: binary.LittleEndian.Uint64(raw[:8]), Hi: binary.LittleEndian.Uint64(raw[8:])},
				Loc:  Loc{Frag: int32(frag % 8), Off: int32(off % 16), RC: pos&0x80 != 0},
			})
		}
		var cuts []int
		if cut > 0 {
			for n := len(es); n > 0; n -= int(cut) {
				cuts = append(cuts, int(cut))
			}
		}
		checkSortOrder(t, "fuzz", es, cuts)
	})
}

// BenchmarkSortEntries times SortEntries against the comparator sort it
// replaced, on distinct k = 31 seeds, from inputs of up to smallBucket
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
			{"comparator", func(es []SeedEntry) { slices.SortFunc(es, compareEntries) }},
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
