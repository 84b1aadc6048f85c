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
// the radix sort on each seed's home-slot key, then by seed and location
// within a tie — and nothing else: it keeps its own table, which is what
// makes it an independent reference for the flat table in the parity tests.
package dht

import (
	"cmp"
	"slices"
	"unsafe"

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
	key  uint32 // slotKey(Seed.Hash()): set by ShardedBuilder.Add or SortEntries
}

// SeedEntry is 32 bytes on every platform: the slot key sits in what would
// otherwise be the struct's tail padding, so staging a seed moves no more
// bytes than it did without one.
var _ [0]struct{} = [unsafe.Sizeof(SeedEntry{}) - 32]struct{}{}

// WireBytes returns the on-the-wire size of a SeedEntry for seeds of
// length k: the 2-bit packed seed, two 32-bit integers and a strand byte.
func WireBytes(k int) int { return kmer.PackedBytes(k) + 9 }

// slotKey is the top 32 bits of h·fibMix for a seed of hash h. A shard's
// table of 2^bits slots homes the seed at slot key >> (32 - bits): the slot
// lookup computes from the whole product, without hashing the seed again.
func slotKey(h uint64) uint32 { return uint32(h * fibMix >> 32) }

// SortEntries sorts staged entries into (slot key, seed, fragment, offset,
// strand) order — the order newFlatShard writes a table in, home slot by
// home slot — so a partition's contents are independent of ship
// interleaving. Equal seeds share a key, so they are adjacent, their
// locations in (fragment, offset, strand) order. It sets each entry's slot
// key from its seed first. Every build path — Sharded here, the simulated
// index in internal/sim — sorts into this order, which is what makes their
// location lists, and therefore the alignments, byte-identical for the same
// input.
func SortEntries(es []SeedEntry) {
	for i := range es {
		es[i].key = slotKey(es[i].Seed.Hash())
	}
	var scratch []SeedEntry
	sortEntries([][]SeedEntry{slices.Clone(es)}, es, &scratch)
}

// smallBucket is the size up to which sortEntries sorts an input, or one
// bucket of its first pass, by insertion rather than by radix passes, whose
// 256-way histograms cost more than so few entries
// (BenchmarkSortEntries).
const smallBucket = 32

// sortEntries sorts the entries of the parts of src, taken together, into
// SortEntries order in dst, which holds their total length and must not
// overlap them. Their slot keys must be set. *scratch is grown to the
// largest bucket of the first pass and may be reused from call to call.
//
// The entries are radix-sorted on the top bytes of their slot keys: as many
// bytes as it takes to tell len(dst) keys apart (keyBytes), so the sort
// costs the same at every k. The first pass scatters src straight into dst
// by the key's top byte, so the parts are never gathered first. Each of its
// buckets — 1/256 of the entries — then goes through LSD radix passes on the
// remaining bytes while it sits in cache, ping-ponging with scratch and
// ending back in dst, and a last pass sorts each run of entries that the
// radixed bytes leave tied — mostly one seed's occurrences, or none — by
// the whole order (compareEntries).
func sortEntries(src [][]SeedEntry, dst []SeedEntry, scratch *[]SeedEntry) {
	if len(dst) <= smallBucket {
		out := dst[:0]
		for _, part := range src {
			out = append(out, part...)
		}
		insertionSort(dst)
		return
	}
	var counts [256]int
	for _, part := range src {
		for i := range part {
			counts[part[i].key>>24]++
		}
	}
	next := starts(&counts)
	for _, part := range src {
		scatter(dst, part, 24, &next)
	}
	// next[b] is now the end of bucket b.
	lsd := keyBytes(len(dst)) - 1
	var tallies [3][256]int
	for b, lo := 0, 0; b < 256; b++ {
		hi := next[b]
		sortBucket(dst[lo:hi], lsd, scratch, &tallies)
		lo = hi
	}
}

// keyBytes returns how many top bytes of the slot keys sortEntries radixes
// for n entries: the fewest, 1 to 4, with at least as many values as there
// are entries, so the runs they leave tied are a few entries long.
func keyBytes(n int) int {
	b := 1
	for b < 4 && n > 1<<(8*b) {
		b++
	}
	return b
}

// sortBucket sorts es, one bucket of the first pass, in place: LSD passes on
// the lsd key bytes below the top one, ping-ponging with *scratch, which it
// grows to len(es) if need be, then sortTies. counts is scratch for the
// bytes' histograms.
func sortBucket(es []SeedEntry, lsd int, scratch *[]SeedEntry, counts *[3][256]int) {
	if len(es) <= smallBucket {
		insertionSort(es)
		return
	}
	if lsd > 0 {
		if cap(*scratch) < len(es) {
			*scratch = make([]SeedEntry, len(es))
		}
		tmp := (*scratch)[:len(es)]
		cs := counts[:lsd]
		clear(cs)
		// Pass j sorts on the key byte at bits shift(j)..shift(j)+7, from
		// the lowest radixed byte up to the one below the top.
		shift := func(j int) uint { return uint(24 - 8*(lsd-j)) }
		for i := range es {
			for j := range cs {
				cs[j][uint8(es[i].key>>shift(j))]++
			}
		}
		from, to := es, tmp
		if lsd%2 == 1 {
			// Start from tmp, so an odd number of passes ends in es.
			copy(tmp, es)
			from, to = tmp, es
		}
		for j := range cs {
			next := starts(&cs[j])
			scatter(to, from, shift(j), &next)
			from, to = to, from
		}
	}
	sortTies(es, uint(24-8*lsd))
}

// sortTies sorts each run of es whose keys agree above bit shift — the bits
// the radix passes sorted on — by compareEntries.
func sortTies(es []SeedEntry, shift uint) {
	for i := 0; i < len(es); {
		n, top := 1, es[i].key>>shift
		for i+n < len(es) && es[i+n].key>>shift == top {
			n++
		}
		switch {
		case n <= 1:
		case n <= smallBucket:
			insertionSort(es[i : i+n])
		default:
			slices.SortFunc(es[i:i+n], func(a, b SeedEntry) int { return compareEntries(&a, &b) })
		}
		i += n
	}
}

// insertionSort sorts es by compareEntries.
func insertionSort(es []SeedEntry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && compareEntries(&es[j], &es[j-1]) < 0; j-- {
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
// out — the bucket of its key's byte at bits shift..shift+7 — advancing that
// index.
func scatter(out, in []SeedEntry, shift uint, next *[256]int) {
	for i := range in {
		b := uint8(in[i].key >> shift)
		out[next[b]] = in[i]
		next[b]++
	}
}

// compareEntries is SortEntries order: slot key, then seed (kmer.Kmer.Less),
// then (fragment, offset, strand), the strand forward before reverse.
func compareEntries(a, b *SeedEntry) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
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
