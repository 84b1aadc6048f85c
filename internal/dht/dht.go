// Package dht implements the seed index the servers link (§II-B, §III): a
// hash table mapping each seed to the list of (fragment, offset) locations
// it was extracted from, built with the paper's two-stage aggregating-stores
// scheme on real goroutines (Sharded), drained into one flat open-addressing
// table per shard (flat.go), persisted as a snapshot section (snapshot.go) and
// hash-partitioned over seed-shard nodes (partition.go).
//
// The table also counts seed occurrences during the drain — the "cheap and
// local operation" of §IV-A — and derives the single_copy_seeds flag per
// target fragment that powers the exact-match optimization.
//
// The simulated PGAS realization of the same index — one partition per UPC
// thread, with the cost model charged on every put, get and atomic — lives
// in internal/sim. It shares this package's entry types and SortEntries —
// the radix sort on the seed words, then by location within a run — and
// nothing else: it keeps its own table, which is what makes it an
// independent reference for the flat table in the parity tests.
package dht

import (
	"cmp"
	"slices"

	"github.com/lbl-repro/meraligner/internal/kmer"
)

// Loc is one occurrence of a seed: the fragment it was extracted from, the
// offset of the seed's first base within that fragment, and whether the
// fragment carries the reverse complement of the canonical seed (indexes
// store canonical seeds so queries match either strand).
type Loc struct {
	Frag int32
	Off  int32
	RC   bool
}

// SeedEntry is the wire format of one staged seed: the seed plus its
// location. WireBytes(k) gives its size for the cost model.
type SeedEntry struct {
	Seed kmer.Kmer
	Loc  Loc
}

// WireBytes returns the on-the-wire size of a SeedEntry for seeds of
// length k: the 2-bit packed seed, two 32-bit integers and a strand byte.
func WireBytes(k int) int { return kmer.PackedBytes(k) + 9 }

// SortEntries sorts staged entries into (seed, fragment, offset, strand)
// order, so a partition's contents are independent of ship interleaving:
// a radix sort on the seed words, then by location within each run of equal
// seeds. Every build path — Sharded here, the simulated index in
// internal/sim — sorts into this order, which is what makes their tables,
// and therefore the alignments, byte-identical for the same input.
func SortEntries(es []SeedEntry) {
	var scratch []SeedEntry
	sortEntries([][]SeedEntry{slices.Clone(es)}, es, &scratch)
}

// digit is one byte of a seed's words: bits shift..shift+7 of Lo, or of Hi
// when hi is set.
type digit struct {
	hi    bool
	shift uint
}

// of returns the digit's byte of seed s.
func (d digit) of(s *kmer.Kmer) uint8 {
	if d.hi {
		return uint8(s.Hi >> d.shift)
	}
	return uint8(s.Lo >> d.shift)
}

// smallBucket is the size up to which sortEntries sorts an input, or one
// bucket of its first pass, by insertion rather than by radix passes, whose
// 256-way histograms cost more than so few entries
// (BenchmarkSortEntries).
const smallBucket = 32

// sortEntries sorts the entries of the parts of src, taken together, into
// SortEntries order in dst, which holds their total length and must not
// overlap them. *scratch is grown to the largest bucket of the first pass
// and may be reused from call to call.
//
// The seeds are sorted by their bytes, Hi's above Lo's since Hi is the more
// significant word (the order of kmer.Kmer.Less). A byte that every key
// shares would leave the order as it is, so it gets no pass: k = 19 sorts on
// the five bytes that hold its 38 bits, and a shard's keys rarely share any
// other. The first pass scatters src straight into dst by the most
// significant varying byte, so the parts are never gathered first. Each of
// its buckets — 1/256 of the entries, or 1/64 when that byte holds only 6
// varying bits as at k = 19 — then goes through LSD radix passes on the
// remaining bytes while it sits in cache, ping-ponging with scratch and
// ending back in dst. Every pass is stable, so a run of equal seeds keeps
// src order; sorting each run by location completes the order.
func sortEntries(src [][]SeedEntry, dst []SeedEntry, scratch *[]SeedEntry) {
	var digits []digit
	if len(dst) > smallBucket {
		digits = varyingDigits(src, make([]digit, 0, 16))
	}
	if len(digits) == 0 {
		out := dst[:0]
		for _, part := range src {
			out = append(out, part...)
		}
		insertionSort(dst)
	} else {
		top, rest := digits[len(digits)-1], digits[:len(digits)-1]
		var counts [256]int
		for _, part := range src {
			for i := range part {
				counts[top.of(&part[i].Seed)]++
			}
		}
		next := starts(&counts)
		for _, part := range src {
			scatter(dst, part, top, &next)
		}
		// next[b] is now the end of bucket b.
		var tallies [16][256]int
		for b, lo := 0, 0; b < 256; b++ {
			hi := next[b]
			sortBucket(dst[lo:hi], rest, scratch, &tallies)
			lo = hi
		}
	}
	for i := 0; i < len(dst); {
		n := runLen(dst[i:])
		if n > 1 {
			slices.SortFunc(dst[i:i+n], compareLocs)
		}
		i += n
	}
}

// varyingDigits appends to digits the bytes of the seed words on which the
// entries of src do not all agree, least significant first.
func varyingDigits(src [][]SeedEntry, digits []digit) []digit {
	and, or := kmer.Kmer{Lo: ^uint64(0), Hi: ^uint64(0)}, kmer.Kmer{}
	for _, part := range src {
		for i := range part {
			s := &part[i].Seed
			and.Lo, or.Lo = and.Lo&s.Lo, or.Lo|s.Lo
			and.Hi, or.Hi = and.Hi&s.Hi, or.Hi|s.Hi
		}
	}
	for _, hi := range []bool{false, true} {
		for shift := uint(0); shift < 64; shift += 8 {
			if d := (digit{hi, shift}); d.of(&and) != d.of(&or) {
				digits = append(digits, d)
			}
		}
	}
	return digits
}

// sortBucket sorts es in place by the given digits, least significant
// first, ping-ponging with *scratch, which it grows to len(es) if need be.
// counts is scratch for the digits' histograms.
func sortBucket(es []SeedEntry, digits []digit, scratch *[]SeedEntry, counts *[16][256]int) {
	if len(es) <= smallBucket {
		insertionSort(es)
		return
	}
	if cap(*scratch) < len(es) {
		*scratch = make([]SeedEntry, len(es))
	}
	tmp := (*scratch)[:len(es)]
	cs := counts[:len(digits)]
	clear(cs)
	for i := range es {
		for j, d := range digits {
			cs[j][d.of(&es[i].Seed)]++
		}
	}
	from, to := es, tmp
	if len(digits)%2 == 1 {
		// Start from tmp, so an odd number of passes ends in es.
		copy(tmp, es)
		from, to = tmp, es
	}
	for j, d := range digits {
		next := starts(&cs[j])
		scatter(to, from, d, &next)
		from, to = to, from
	}
}

// insertionSort sorts es by seed, stably.
func insertionSort(es []SeedEntry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Seed.Less(es[j-1].Seed); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// starts returns where each of 256 buckets with the given sizes starts when
// they are laid out in order.
func starts(counts *[256]int) (next [256]int) {
	sum := 0
	for b, n := range counts {
		next[b], sum = sum, sum+n
	}
	return next
}

// scatter moves each entry of in to the next free index of its bucket of
// out — the bucket of its seed's byte d — advancing that index.
func scatter(out, in []SeedEntry, d digit, next *[256]int) {
	for i := range in {
		b := d.of(&in[i].Seed)
		out[next[b]] = in[i]
		next[b]++
	}
}

// compareLocs orders entries of one seed by (fragment, offset, strand), the
// strand forward before reverse.
func compareLocs(a, b SeedEntry) int {
	if c := cmp.Compare(a.Loc.Frag, b.Loc.Frag); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Loc.Off, b.Loc.Off); c != 0 {
		return c
	}
	switch {
	case a.Loc.RC == b.Loc.RC:
		return 0
	case b.Loc.RC:
		return -1
	}
	return 1
}

// LookupResult is the outcome of a seed lookup: the seed's stored
// locations and its total occurrence count. A seed the table stores once,
// with count 1, carries that location inline — no arena slice, no
// allocation — so read the locations through Len and At: Locs alone holds
// only a list-stored seed's.
type LookupResult struct {
	Locs  []Loc  // a list-stored seed's locations, shared: callers must not modify; nil when inline
	Count int32  // total occurrences (> Len() on a Restrict carve or in the simulator's capped lists)
	frag  int32  // the inline location's fragment
	word  uint32 // the inline location's Off<<2 | RC<<1 | 1, as its slot stores it; 0 when none is inline
}

// Len returns the number of stored locations.
func (r LookupResult) Len() int {
	if r.word != 0 {
		return 1
	}
	return len(r.Locs)
}

// At returns stored location i, 0 <= i < Len(), in stored order.
func (r LookupResult) At(i int) Loc {
	if r.word != 0 && i == 0 {
		return Loc{Frag: r.frag, Off: int32(r.word >> 2), RC: r.word&slotRC != 0}
	}
	return r.Locs[i]
}

// Stats summarizes the constructed index.
type Stats struct {
	DistinctSeeds   int
	TotalLocs       int
	MaxListLen      int
	MaxOwnerSeeds   int
	MinOwnerSeeds   int
	RepeatSeeds     int // distinct seeds with count > 1
	SingleCopyFrags int
	Fragments       int
}
