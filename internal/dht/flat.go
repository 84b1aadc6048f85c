package dht

import (
	"unsafe"

	"github.com/lbl-repro/meraligner/internal/kmer"
)

// This file implements the sealed, read-only form of the sharded seed index:
// at Seal each shard's build structures (a Go map plus per-entry location
// slices) are compacted into an open-addressing flat table over one
// contiguous location arena. Lookups then cost one hash, a short linear
// probe over densely packed 32-byte slots, and a bounds-checked slice of the
// arena — no map probes, no per-entry pointer chasing, no slice headers
// scattered across the heap. The layout is the SNAP-style cache-friendly
// seed table; the contents (location lists, their order, and occurrence
// counts) are bit-identical to the pre-compaction buckets, which the parity
// tests assert directly.

// flatEntry is one occupied slot of the sealed table. n == 0 marks an empty
// slot: every present seed stores at least one location, even when the list
// was capped by MaxLocList.
type flatEntry struct {
	seed kmer.Kmer
	off  int32 // first location in the shard's arena
	n    int32 // stored locations (list length)
	cnt  int32 // total occurrences (>= n when the list was capped)
}

// flatShard is one partition of the sealed index: a power-of-two
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

// buildFlat compacts one shard's buckets. Entries are placed in insertion
// order (the drain's sorted order), so the sealed layout is deterministic
// for a given table content. The order is reconstructed from the map's
// seed→index pairs (index IS insertion order), so the build phase carries
// no extra bookkeeping.
func buildFlat(bt *buckets) flatShard {
	n := len(bt.e)
	totalLocs := 0
	for i := range bt.e {
		totalLocs += len(bt.e[i].locs)
	}
	keys := make([]kmer.Kmer, n)
	for seed, idx := range bt.m {
		keys[idx] = seed
	}
	bits := uint(minFlatBits)
	// Load factor <= 0.75: n <= 0.75 * 2^bits.
	for 4*n > 3*(1<<bits) {
		bits++
	}
	fs := flatShard{
		shift: 64 - bits,
		slots: make([]flatEntry, 1<<bits),
		locs:  make([]Loc, 0, totalLocs),
	}
	mask := 1<<bits - 1
	for idx, seed := range keys {
		ent := &bt.e[idx]
		off := int32(len(fs.locs))
		fs.locs = append(fs.locs, ent.locs...)
		i := int(seed.Hash() * fibMix >> fs.shift)
		for fs.slots[i].n != 0 {
			i = (i + 1) & mask
		}
		fs.slots[i] = flatEntry{seed: seed, off: off, n: int32(len(ent.locs)), cnt: ent.count}
	}
	return fs
}

// lookup probes the sealed shard. h must be s.Hash(), computed once by the
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

// Exact per-element sizes of the sealed layout, used by ResidentBytes.
const (
	flatEntryBytes = int64(unsafe.Sizeof(flatEntry{}))
	locBytes       = int64(unsafe.Sizeof(Loc{}))
)

// residentBytes is the exact footprint of this shard's sealed structures:
// the slot array plus the location arena (allocated at exact capacity).
func (fs *flatShard) residentBytes() int64 {
	return int64(len(fs.slots))*flatEntryBytes + int64(cap(fs.locs))*locBytes
}
