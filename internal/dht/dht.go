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
// in internal/sim. It shares this package's entry types and the SortEntries
// comparator, and nothing else: it keeps its own table, which is what makes
// it an independent reference for the flat table in the parity tests.
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

// SortEntries orders staged entries by (seed, fragment, offset, strand) so a
// partition's contents are independent of ship interleaving. Every build
// path — Sharded here, the simulated index in internal/sim — sorts with this
// comparator, which is what makes their tables, and therefore the
// alignments, byte-identical for the same input.
func SortEntries(es []SeedEntry) {
	slices.SortFunc(es, func(a, b SeedEntry) int {
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
	})
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
