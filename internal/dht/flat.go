package dht

import (
	"fmt"
	"math"
	"unsafe"

	"github.com/lbl-repro/meraligner/internal/kmer"
)

// This file implements the one form of a shard's seed table: an
// open-addressing flat table over one contiguous location arena, written
// once by the shard's drain (newFlatShard) and read-only from then on.
// Lookups cost one hash, a short linear probe over densely packed 32-byte
// slots, and a bounds-checked slice of the arena — no map probes, no
// per-entry pointer chasing, no slice headers scattered across the heap. The
// layout is the SNAP-style cache-friendly seed table; the contents (location
// lists, their order, and occurrence counts) are checked against a naive
// map oracle and against the simulated index in the parity tests.

// flatEntry is one occupied slot of the table. n == 0 marks an empty
// slot: every present seed stores at least one location.
type flatEntry struct {
	seed kmer.Kmer
	off  int32 // first location in the shard's arena
	n    int32 // stored locations (list length)
	cnt  int32 // total occurrences: n, or the whole reference's count on a Restrict carve
}

// flatShard is one partition of the index: a power-of-two
// open-addressing slot array plus the shard's packed location arena.
type flatShard struct {
	shift uint // 64 - log2(len(slots)); slot of hash h is (h*fibMix)>>shift
	slots []flatEntry
	locs  []Loc
}

// fibMix redistributes the djb2 hash before taking the top bits for the
// slot index. The shard id already consumed h mod Shards, so raw low (or
// high) bits of h cluster within a shard; the Fibonacci multiply decorrelates
// the two uses of the one hash value.
const fibMix = 0x9E3779B97F4A7C15

// minFlatBits keeps even tiny shards at a sane table size.
const minFlatBits = 4

// newFlatShard builds shard id's table from its staged entries, which must
// be in SortEntries order. Equal seeds are then adjacent, so one counting
// pass sizes the slot array and the arena exactly and one run-length pass
// fills them, storing every location of each run. Seeds are placed in
// sorted order, so the layout is a function of the table content alone.
// Slots and locations are written field by field into zeroed memory: the
// in-record padding a snapshot dumps is zero by construction, whatever the
// staging buffers held.
func newFlatShard(id int, es []SeedEntry) flatShard {
	distinct := 0
	for i := 0; i < len(es); i += runLen(es[i:]) {
		distinct++
	}
	checkShardCounts(id, int64(len(es)))

	bits := uint(minFlatBits)
	// Load factor <= 0.75: distinct <= 0.75 * 2^bits.
	for 4*distinct > 3*(1<<bits) {
		bits++
	}
	fs := flatShard{
		shift: 64 - bits,
		slots: make([]flatEntry, 1<<bits),
		locs:  make([]Loc, len(es)),
	}
	mask := 1<<bits - 1
	off := 0
	for i := 0; i < len(es); {
		n := runLen(es[i:])
		for j := 0; j < n; j++ {
			src, dst := &es[i+j].Loc, &fs.locs[off+j]
			dst.Frag, dst.Off, dst.RC = src.Frag, src.Off, src.RC
		}
		seed := es[i].Seed
		p := int(seed.Hash() * fibMix >> fs.shift)
		for fs.slots[p].n != 0 {
			p = (p + 1) & mask
		}
		e := &fs.slots[p]
		e.seed, e.off, e.n, e.cnt = seed, int32(off), int32(n), int32(n)
		off += n
		i += n
	}
	return fs
}

// runLen returns how many leading entries of the non-empty es share es[0]'s
// seed.
func runLen(es []SeedEntry) int {
	n := 1
	for n < len(es) && es[n].Seed == es[0].Seed {
		n++
	}
	return n
}

// checkShardCounts panics when one shard's contents outgrow the int32 fields
// of flatEntry: off and n index the location arena, and cnt, a run length,
// never exceeds the stored locations of the table it was counted in.
func checkShardCounts(shard int, stored int64) {
	if stored > math.MaxInt32 {
		panic(fmt.Sprintf("dht: sharded location arena overflow (shard %d: %d stored locations, limit %d): too few shards",
			shard, stored, math.MaxInt32))
	}
}

// lookup probes the shard. h must be s.Hash(), computed once by the
// caller (which also derived the shard id from it). The returned Locs slice
// is capacity-limited so a caller's append cannot clobber the neighbouring
// entry's locations in the shared arena.
func (fs *flatShard) lookup(s kmer.Kmer, h uint64) (LookupResult, bool) {
	if len(fs.slots) == 0 {
		return LookupResult{}, false
	}
	mask := len(fs.slots) - 1
	i := int(h * fibMix >> fs.shift)
	for {
		e := &fs.slots[i]
		if e.n == 0 {
			return LookupResult{}, false
		}
		if e.seed == s {
			end := e.off + e.n
			return LookupResult{Locs: fs.locs[e.off:end:end], Count: e.cnt}, true
		}
		i = (i + 1) & mask
	}
}

// Exact per-element sizes of the flat layout, used by ResidentBytes.
const (
	flatEntryBytes = int64(unsafe.Sizeof(flatEntry{}))
	locBytes       = int64(unsafe.Sizeof(Loc{}))
)

// residentBytes is the exact footprint of this shard's structures:
// the slot array plus the location arena (allocated at exact capacity).
func (fs *flatShard) residentBytes() int64 {
	return int64(len(fs.slots))*flatEntryBytes + int64(cap(fs.locs))*locBytes
}
