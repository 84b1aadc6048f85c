package dht

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/lbl-repro/meraligner/internal/kmer"
)

// This file implements the shared-memory realization of the paper's
// seed-index construction (§III-A): the two-stage aggregating-stores scheme
// with real goroutines and real atomics.
//
// Stage 1 (Add/Flush, concurrent): each worker stages seeds into S-entry
// per-shard buffers; a full buffer is shipped with ONE reservation on a
// global atomic cursor into a pre-sized arena — the shared-memory analogue
// of the UPC code's atomic_fetchadd on the destination stack pointer
// followed by an aggregate transfer. No locks are taken anywhere on the
// build path.
//
// Stage 2 (DrainShard, shard-parallel): after a barrier, each shard's
// segments are sorted into SortEntries order — a radix sort on the home-slot
// key each entry carries from staging (Add hashes a seed once, for its shard
// and its slot), then by seed and location within a tie, whose first pass
// reads the segments where they lie in the arena — and run-length encoded
// straight into the shard's flat table (flat.go) home slot by home slot, so
// the slot array, the Hi words and the location arena are each written front
// to back, tallying the shard's Stats share on the way, by exactly one
// goroutine — lock-free local work, as in the paper. There is no
// intermediate build form: what the drain writes is what lookups probe and
// what a snapshot dumps. The sort makes the table bytes (and therefore
// downstream alignments) independent of worker count and scheduling.

// ShardedConfig parameterizes a concurrent build.
type ShardedConfig struct {
	K      int // seed length
	S      int // staging buffer size per (worker, shard); 0 = the paper's 1000
	Shards int // table partitions; 0 picks a default from the worker count
}

// segment records one shipped batch: arena[Off:Off+N] belongs to Shard.
type segment struct {
	Shard int32
	Off   int64
	N     int32
}

// Sharded is the in-memory seed index.
type Sharded struct {
	cfg ShardedConfig

	// Build state. arena is sized to the exact total seed count, segs to the
	// worst-case ship count, so atomic reservations can never overflow.
	arena  []SeedEntry
	cursor atomic.Int64 // next free arena slot
	segs   []segment
	segCur atomic.Int64 // next free segs slot

	// groupOnce buckets published segments by shard exactly once, at the
	// start of the drain phase, so each DrainShard touches only its own
	// segments instead of filtering the global list.
	groupOnce   sync.Once
	segsByShard [][]segment

	// sortBufs recycles the drains' sort buffers (*drainBufs): they are
	// garbage once a shard's table is written, so there are only as many as
	// shards draining at once.
	sortBufs sync.Pool

	// flat[s] is shard s's table, written once by DrainShard(s) (or aliasing
	// a snapshot, see OpenMapped) and read-only from then on. Publication is
	// ordinary (non-atomic): the drain barrier happens-before every
	// concurrent Lookup.
	flat []flatShard

	// singleCopy[frag] is 1 while every seed of the fragment is uniquely
	// located in it; cleared with atomic stores during MarkShard.
	singleCopy   []int32
	numFragments int

	// sealed is set by Seal once construction completes; from then on the
	// table is immutable and safe for unsynchronized concurrent lookups.
	sealed atomic.Bool
}

// DefaultShards picks a shard count for a worker count: enough partitions
// that drain/mark parallelize well past the worker count, independent of it
// only in spirit — the table CONTENTS never depend on the shard count.
func DefaultShards(workers int) int {
	s := 4 * workers
	if s < 16 {
		s = 16
	}
	return s
}

// NewSharded allocates a concurrent index for exactly totalSeeds staged
// entries produced by at most workers concurrent builders.
func NewSharded(cfg ShardedConfig, numFragments, totalSeeds, workers int) (*Sharded, error) {
	if cfg.K <= 0 || cfg.K > kmer.MaxK {
		return nil, fmt.Errorf("dht: seed length %d out of range", cfg.K)
	}
	if totalSeeds < 0 || workers <= 0 {
		return nil, fmt.Errorf("dht: need totalSeeds >= 0 and workers > 0, got %d/%d", totalSeeds, workers)
	}
	if cfg.S <= 0 {
		cfg.S = 1000
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards(workers)
	}
	sx := &Sharded{
		cfg:   cfg,
		arena: make([]SeedEntry, totalSeeds),
		// Every builder ships ceil(staged/S) full buffers plus at most one
		// partial per shard at Flush: totalSeeds/S + workers*Shards bounds
		// the segment count.
		segs:         make([]segment, totalSeeds/cfg.S+workers*cfg.Shards),
		flat:         make([]flatShard, cfg.Shards),
		singleCopy:   make([]int32, numFragments),
		numFragments: numFragments,
	}
	for i := range sx.singleCopy {
		sx.singleCopy[i] = 1
	}
	return sx, nil
}

// K returns the seed length the index was built with.
func (sx *Sharded) K() int { return sx.cfg.K }

// Shards returns the number of table partitions (DrainShard/MarkShard ids).
func (sx *Sharded) Shards() int { return sx.cfg.Shards }

// ShardOf returns the partition owning a seed (djb2 hash, as in Index).
func (sx *Sharded) ShardOf(s kmer.Kmer) int {
	return int(s.Hash() % uint64(sx.cfg.Shards))
}

// ShardedBuilder stages one worker's seed insertions. Each concurrent
// worker must use its own builder; builders share only the atomic arena.
type ShardedBuilder struct {
	sx   *Sharded
	bufs [][]SeedEntry // per shard

	// Ships counts aggregate transfers issued (for tests and stats).
	Ships int64
}

// NewBuilder returns a staging builder for one worker goroutine.
func (sx *Sharded) NewBuilder() *ShardedBuilder {
	sx.mustBeMutable("NewBuilder")
	return &ShardedBuilder{sx: sx, bufs: make([][]SeedEntry, sx.cfg.Shards)}
}

// Add stages one seed occurrence, shipping the destination buffer when it
// reaches S entries. It hashes the seed once: the hash picks the shard, as
// ShardOf does, and gives the entry its slot key.
func (b *ShardedBuilder) Add(e SeedEntry) {
	h := e.Seed.Hash()
	dst := int(h % uint64(b.sx.cfg.Shards))
	e.key = slotKey(h)
	buf := append(b.bufs[dst], e)
	if len(buf) >= b.sx.cfg.S {
		b.ship(dst, buf)
		buf = buf[:0]
	}
	b.bufs[dst] = buf
}

// ship reserves a range of the arena with one atomic fetch-add, copies the
// batch in, and publishes the segment — the real counterpart of the
// simulated Builder.ship.
func (b *ShardedBuilder) ship(dst int, batch []SeedEntry) {
	if len(batch) == 0 {
		return
	}
	b.sx.mustBeMutable("ShardedBuilder ship")
	sx := b.sx
	n := int64(len(batch))
	off := sx.cursor.Add(n) - n
	if off+n > int64(len(sx.arena)) {
		panic(fmt.Sprintf("dht: sharded arena overflow (%d+%d > %d): totalSeeds undercounted",
			off, n, len(sx.arena)))
	}
	copy(sx.arena[off:off+n], batch)
	si := sx.segCur.Add(1) - 1
	sx.segs[si] = segment{Shard: int32(dst), Off: off, N: int32(n)}
	b.Ships++
}

// Flush ships every non-empty staging buffer; every worker must call it
// before the drain barrier.
func (b *ShardedBuilder) Flush() {
	for dst, buf := range b.bufs {
		if len(buf) > 0 {
			b.ship(dst, buf)
			b.bufs[dst] = buf[:0]
		}
	}
}

// groupSegments buckets the published segments by shard — two linear passes
// (count, then place into one backing array), shared by all DrainShard calls
// via groupOnce. All ships happen-before the drain barrier, so the segment
// array is immutable here.
func (sx *Sharded) groupSegments() {
	segs := sx.segs[:sx.segCur.Load()]
	counts := make([]int, sx.cfg.Shards)
	for _, sg := range segs {
		counts[sg.Shard]++
	}
	backing := make([]segment, len(segs))
	sx.segsByShard = make([][]segment, sx.cfg.Shards)
	for s, n := range counts {
		sx.segsByShard[s], backing = backing[:0:n], backing[n:]
	}
	for _, sg := range segs {
		sx.segsByShard[sg.Shard] = append(sx.segsByShard[sg.Shard], sg)
	}
}

// DrainShard sorts shard s's segments of the arena into SortEntries order —
// the first radix pass scatters straight out of the segments, so they are
// never gathered first — and writes the shard's flat table from the sorted
// runs (newFlatShard). Exactly one goroutine may drain a given shard;
// different shards drain concurrently with no coordination beyond the
// one-time segment grouping and the sort-buffer pool.
func (sx *Sharded) DrainShard(s int) {
	sx.mustBeMutable("DrainShard")
	sx.groupOnce.Do(sx.groupSegments)
	segs := sx.segsByShard[s]
	src := make([][]SeedEntry, len(segs))
	n := 0
	for i, sg := range segs {
		src[i] = sx.arena[sg.Off : sg.Off+int64(sg.N)]
		n += int(sg.N)
	}
	bufs, _ := sx.sortBufs.Get().(*drainBufs)
	if bufs == nil {
		bufs = new(drainBufs)
	}
	if cap(bufs.es) < n {
		bufs.es = make([]SeedEntry, n)
	}
	es := bufs.es[:n]
	sortEntries(src, es, &bufs.scratch)
	sx.flat[s] = newFlatShard(s, sx.cfg.K, es, nil)
	sx.sortBufs.Put(bufs)
}

// drainBufs is one drain's sort buffers: the shard's sorted entries and the
// radix sort's bucket scratch.
type drainBufs struct{ es, scratch []SeedEntry }

// Seal marks construction complete: the staging arena and the drains' sort
// buffers are released and the table — already in its final flat form, shard by shard, since the drain —
// becomes immutable: any number of goroutines may Lookup without
// synchronization for the rest of the index's life. Further builder or
// drain activity is a bug; NewBuilder, builder ships (Add on a full
// buffer, Flush), DrainShard, and MarkShard panic after Seal. Seal is
// idempotent: once sealed, further calls are no-ops.
func (sx *Sharded) Seal() {
	if sx.sealed.Load() {
		return
	}
	sx.arena = nil
	sx.segs = nil
	sx.segsByShard = nil
	sx.sortBufs = sync.Pool{}
	sx.sealed.Store(true)
}

// Sealed reports whether Seal has been called.
func (sx *Sharded) Sealed() bool { return sx.sealed.Load() }

func (sx *Sharded) mustBeMutable(op string) {
	if sx.sealed.Load() {
		panic("dht: " + op + " on a sealed index")
	}
}

// ResidentBytes reports the steady-state memory footprint of the index,
// EXACT for the structures the index owns: the flat slot arrays, the Hi
// word arrays (K > 32 only), the location arenas (allocated at exact
// capacity), and the single-copy flags — the number a serving process
// should budget per resident index. The staging arena, which Seal
// releases, is not part of it.
func (sx *Sharded) ResidentBytes() int64 {
	n := int64(len(sx.singleCopy)) * 4
	for i := range sx.flat {
		n += sx.flat[i].residentBytes()
	}
	return n
}

// MarkShard implements §IV-A for shard s: every seed occurring more than
// once clears the single_copy flag of each fragment it appears in. Flag
// writes are idempotent atomic stores, so shards mark concurrently.
func (sx *Sharded) MarkShard(s int) {
	sx.mustBeMutable("MarkShard")
	fs := &sx.flat[s]
	for i := range fs.slots {
		// Only list slots can mark: one location means count 1, and every
		// list a build writes has count > 1. A list's b is even and
		// nonzero, the only b whose lowest set bit is above bit 0 — one
		// test, so the branch predicts on a table of mostly empty and
		// one-location slots.
		e := &fs.slots[i]
		if e.b&-e.b < 2 {
			continue
		}
		res := fs.result(e)
		for j := range res.Len() {
			atomic.StoreInt32(&sx.singleCopy[res.At(j).Frag], 0)
		}
	}
}

// Lookup probes the table. Safe for concurrent use once construction (all
// DrainShard/MarkShard calls) has completed; the table is immutable from
// then on. The seed is hashed exactly once, shared between shard selection
// and the in-shard slot index.
func (sx *Sharded) Lookup(s kmer.Kmer) (LookupResult, bool) {
	h := s.Hash()
	return sx.flat[h%uint64(sx.cfg.Shards)].lookup(s, h)
}

// SingleCopy reports whether every seed of fragment frag is uniquely
// located in it. Valid after all MarkShard calls.
func (sx *Sharded) SingleCopy(frag int) bool {
	return atomic.LoadInt32(&sx.singleCopy[frag]) != 0
}

// SingleCopyCount returns how many fragments kept the flag.
func (sx *Sharded) SingleCopyCount() int {
	n := 0
	for i := range sx.singleCopy {
		if atomic.LoadInt32(&sx.singleCopy[i]) != 0 {
			n++
		}
	}
	return n
}

// Stats sums the shards' tallies (shardStats), taken as each shard's table
// was written or opened, and counts the single-copy flags.
func (sx *Sharded) Stats() Stats {
	st := Stats{SingleCopyFrags: sx.SingleCopyCount(), Fragments: sx.numFragments}
	for i := range sx.flat {
		t := &sx.flat[i].st
		st.DistinctSeeds += t.seeds
		st.TotalLocs += t.locs
		st.MaxListLen = max(st.MaxListLen, t.maxList)
		st.RepeatSeeds += t.repeats
		st.MaxOwnerSeeds = max(st.MaxOwnerSeeds, t.seeds)
		if i == 0 || t.seeds < st.MinOwnerSeeds {
			st.MinOwnerSeeds = t.seeds
		}
	}
	return st
}
