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
// Lookups cost one hash and a short linear probe over densely packed 16-byte
// slots; a seed stored once keeps its location in its slot, so its lookup
// touches nothing else, and only a seed stored as a list reads the arena —
// no map probes, no per-entry pointer chasing, no slice headers scattered
// across the heap. The layout is the SNAP-style cache-friendly seed table;
// the contents (location lists, their order, and occurrence counts) are
// checked against a naive map oracle and against the simulated index in the
// parity tests.

// flatSlot is one slot of the table. b == 0 marks an empty slot; otherwise
// bit 0 of b tells the two forms apart:
//
//   - one stored location, count 1: a is its fragment, b is
//     Off<<2 | RC<<1 | 1, and the arena holds nothing for the seed;
//   - a list: a is the arena offset, b is n<<2 | c<<1 for n stored
//     locations, and when c is set a count word — a Loc whose Off holds the
//     whole-reference count, above n on a Restrict carve — precedes the list.
type flatSlot struct {
	key uint64 // the seed's Lo word (bases 0..31)
	a   uint32
	b   uint32
}

// Bits of a slot's b word.
const (
	slotOne     = 1 // the slot holds its seed's one location
	slotRC      = 2 // one location: its strand
	slotCounted = 2 // a list: a count word precedes it
)

// maxSlotField bounds the 30-bit fields of b: a stored location's offset and
// a list's length.
const maxSlotField = 1<<30 - 1

// flatShard is one partition of the index: a power-of-two open-addressing
// slot array, the seeds' Hi words when K > 32, and the shard's packed
// location arena.
type flatShard struct {
	shift  uint // 64 - log2(len(slots)); slot of hash h is (h*fibMix)>>shift
	slots  []flatSlot
	hi     []uint64 // hi[i] is slot i's seed Hi word (bases 32..63); nil when K <= 32
	locs   []Loc    // the lists, each after its count word if it has one
	stored int      // stored locations, inline and listed (count words excluded)
}

// fibMix redistributes the djb2 hash before taking the top bits for the
// slot index. The shard id already consumed h mod Shards, so raw low (or
// high) bits of h cluster within a shard; the Fibonacci multiply decorrelates
// the two uses of the one hash value.
const fibMix = 0x9E3779B97F4A7C15

// minFlatBits keeps even tiny shards at a sane table size.
const minFlatBits = 4

// newFlatShard builds shard id's table for seeds of length k from its staged
// entries, which must be in SortEntries order. Equal seeds are then
// adjacent, so one counting pass sizes the slot array and the arena exactly
// and one run-length pass fills them, storing every location of each run.
// whole, when non-nil, holds each run's whole-reference count in run order
// (a Restrict carve); otherwise a run's count is its length. Seeds are
// placed in sorted order, so the layout is a function of the table content
// alone. Slots and locations are written field by field into zeroed memory:
// the in-record padding a snapshot dumps is zero by construction, whatever
// the staging buffers held.
func newFlatShard(id, k int, es []SeedEntry, whole []int32) flatShard {
	distinct, arena := 0, int64(0)
	for i := 0; i < len(es); {
		n := runLen(es[i:])
		if cnt := runCount(whole, distinct, n); cnt > 1 {
			arena += int64(n)
			if int(cnt) > n {
				arena++
			}
		}
		distinct++
		i += n
	}
	checkShardCounts(id, arena)

	bits := uint(minFlatBits)
	// Load factor <= 0.75: distinct <= 0.75 * 2^bits.
	for 4*distinct > 3*(1<<bits) {
		bits++
	}
	fs := flatShard{
		shift:  64 - bits,
		slots:  make([]flatSlot, 1<<bits),
		locs:   make([]Loc, arena),
		stored: len(es),
	}
	if k > 32 {
		fs.hi = make([]uint64, 1<<bits)
	}
	mask := 1<<bits - 1
	off := 0
	for i, run := 0, 0; i < len(es); run++ {
		n := runLen(es[i:])
		seed := es[i].Seed
		p := int(seed.Hash() * fibMix >> fs.shift)
		for fs.slots[p].b != 0 {
			p = (p + 1) & mask
		}
		e := &fs.slots[p]
		e.key = seed.Lo
		if fs.hi != nil {
			fs.hi[p] = seed.Hi
		}
		if cnt := runCount(whole, run, n); cnt == 1 {
			l := &es[i].Loc
			checkSlotField(id, "location offset", int64(l.Off))
			e.a, e.b = uint32(l.Frag), uint32(l.Off)<<2|slotOne
			if l.RC {
				e.b |= slotRC
			}
		} else {
			checkSlotField(id, "location list length", int64(n))
			e.a, e.b = uint32(off), uint32(n)<<2
			if int(cnt) > n {
				e.b |= slotCounted
				fs.locs[off].Off = cnt
				off++
			}
			for j := 0; j < n; j++ {
				src, dst := &es[i+j].Loc, &fs.locs[off+j]
				dst.Frag, dst.Off, dst.RC = src.Frag, src.Off, src.RC
			}
			off += n
		}
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

// runCount is the count newFlatShard stores for run number run of length n.
func runCount(whole []int32, run, n int) int32 {
	if whole != nil {
		return whole[run]
	}
	return int32(n)
}

// checkShardCounts panics when one shard's location arena outgrows the
// 32-bit arena offsets of its slots.
func checkShardCounts(shard int, stored int64) {
	if stored > math.MaxInt32 {
		panic(fmt.Sprintf("dht: sharded location arena overflow (shard %d: %d arena records, limit %d): too few shards",
			shard, stored, math.MaxInt32))
	}
}

// checkSlotField panics when a value outgrows its 30-bit field of a slot.
func checkSlotField(shard int, what string, v int64) {
	if v < 0 || v > maxSlotField {
		panic(fmt.Sprintf("dht: %s %d in shard %d outside the slot's 30-bit field (limit %d)", what, v, shard, maxSlotField))
	}
}

// lookup probes the shard. h must be s.Hash(), computed once by the
// caller (which also derived the shard id from it). A table without Hi
// words holds only seeds whose Hi word is zero.
func (fs *flatShard) lookup(s kmer.Kmer, h uint64) (LookupResult, bool) {
	if len(fs.slots) == 0 || (fs.hi == nil && s.Hi != 0) {
		return LookupResult{}, false
	}
	mask := len(fs.slots) - 1
	i := int(h * fibMix >> fs.shift)
	for {
		e := &fs.slots[i]
		if e.b == 0 {
			return LookupResult{}, false
		}
		if e.key == s.Lo && (fs.hi == nil || fs.hi[i] == s.Hi) {
			return fs.result(e), true
		}
		i = (i + 1) & mask
	}
}

// result decodes the occupied slot e: every reader of the table, lookup and
// the whole-table scans, decodes slots through it. A list's Locs slice is
// capacity-limited so a caller's append cannot clobber the neighbouring
// list in the shared arena.
func (fs *flatShard) result(e *flatSlot) LookupResult {
	if e.b&slotOne != 0 {
		return LookupResult{Count: 1, frag: int32(e.a), word: e.b}
	}
	off, n := e.a, e.b>>2
	cnt := int32(n)
	if e.b&slotCounted != 0 {
		cnt = fs.locs[off].Off
		off++
	}
	end := off + n
	return LookupResult{Locs: fs.locs[off:end:end], Count: cnt}
}

// seed returns the seed of occupied slot i.
func (fs *flatShard) seed(i int) kmer.Kmer {
	s := kmer.Kmer{Lo: fs.slots[i].key}
	if fs.hi != nil {
		s.Hi = fs.hi[i]
	}
	return s
}

// Exact per-element sizes of the flat layout, used by ResidentBytes.
const (
	flatSlotBytes = int64(unsafe.Sizeof(flatSlot{}))
	locBytes      = int64(unsafe.Sizeof(Loc{}))
)

// residentBytes is the exact footprint of this shard's structures: the slot
// array, the Hi words and the location arena (allocated at exact capacity).
func (fs *flatShard) residentBytes() int64 {
	return int64(len(fs.slots))*flatSlotBytes + int64(len(fs.hi))*8 + int64(cap(fs.locs))*locBytes
}
