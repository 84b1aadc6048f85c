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
// segments are collected, sorted with SortEntries, and inserted into the
// shard's private buckets by exactly one goroutine — lock-free local work,
// as in the paper. The sort makes the table contents (and therefore
// downstream alignments) independent of worker count and scheduling.

// ShardedConfig parameterizes a concurrent build.
type ShardedConfig struct {
	K          int // seed length
	S          int // staging buffer size per (worker, shard); paper uses 1000
	MaxLocList int // cap on stored locations per seed; 0 = unlimited
	Shards     int // table partitions; 0 picks a default from the worker count
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

	shards []buckets

	// flat holds the sealed, read-only form of each shard — built by Seal,
	// after which shards' build structures are released. Publication is
	// ordinary (non-atomic): Seal happens-before every concurrent Lookup,
	// because unsynchronized lookups are only legal on a sealed index.
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
		shards:       make([]buckets, cfg.Shards),
		singleCopy:   make([]int32, numFragments),
		numFragments: numFragments,
	}
	for i := range sx.shards {
		sx.shards[i].m = make(map[kmer.Kmer]int32)
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
// reaches S entries.
func (b *ShardedBuilder) Add(e SeedEntry) {
	dst := b.sx.ShardOf(e.Seed)
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

// groupSegments buckets the published segments by shard — one linear pass,
// shared by all DrainShard calls via groupOnce. All ships happen-before the
// drain barrier, so the segment array is immutable here.
func (sx *Sharded) groupSegments() {
	sx.segsByShard = make([][]segment, sx.cfg.Shards)
	for i := 0; i < int(sx.segCur.Load()); i++ {
		sg := sx.segs[i]
		sx.segsByShard[sg.Shard] = append(sx.segsByShard[sg.Shard], sg)
	}
}

// DrainShard collects shard s's segments from the arena, sorts them, and
// inserts them into the shard's buckets. Exactly one goroutine may drain a
// given shard; different shards drain concurrently with no coordination
// beyond the one-time segment grouping.
func (sx *Sharded) DrainShard(s int) {
	sx.mustBeMutable("DrainShard")
	sx.groupOnce.Do(sx.groupSegments)
	var es []SeedEntry
	for _, sg := range sx.segsByShard[s] {
		es = append(es, sx.arena[sg.Off:sg.Off+int64(sg.N)]...)
	}
	SortEntries(es)
	bt := &sx.shards[s]
	for _, e := range es {
		bt.insert(e, sx.cfg.MaxLocList)
	}
}

// ReleaseArena frees the staging arena after every shard has drained.
func (sx *Sharded) ReleaseArena() {
	sx.arena = nil
	sx.segs = nil
	sx.segsByShard = nil
}

// Seal marks construction complete: the staging arena is released, each
// shard's map+bucket structure is compacted into its flat open-addressing
// form (see flat.go), the build-time buckets are freed, and the table
// becomes immutable — any number of goroutines may Lookup without
// synchronization for the rest of the index's life. Further builder or
// drain activity is a bug; NewBuilder, builder ships (Add on a full
// buffer, Flush), DrainShard, and MarkShard panic after Seal. Seal is
// idempotent: once sealed, further calls are no-ops (the build buckets are
// already gone, so recompacting would wipe the table).
func (sx *Sharded) Seal() {
	if sx.sealed.Load() {
		return
	}
	sx.ReleaseArena()
	flat := make([]flatShard, len(sx.shards))
	var wg sync.WaitGroup
	for i := range sx.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			flat[i] = buildFlat(&sx.shards[i])
			sx.shards[i] = buckets{} // release the build map and entry slices
		}(i)
	}
	wg.Wait()
	sx.flat = flat
	sx.sealed.Store(true)
}

// Sealed reports whether Seal has been called.
func (sx *Sharded) Sealed() bool { return sx.sealed.Load() }

func (sx *Sharded) mustBeMutable(op string) {
	if sx.sealed.Load() {
		panic("dht: " + op + " on a sealed index")
	}
}

// ResidentBytes reports the steady-state memory footprint of the index. On
// a sealed index it is EXACT for the structures the index owns: the flat
// slot arrays, the location arenas (allocated at exact capacity), and the
// single-copy flags — the number a serving process should budget per
// resident index. Before Seal it falls back to an estimate of the build-time
// buckets (entries, location slices, map overhead, and the key list).
func (sx *Sharded) ResidentBytes() int64 {
	n := int64(len(sx.singleCopy)) * 4
	if sx.flat != nil {
		for i := range sx.flat {
			n += sx.flat[i].residentBytes()
		}
		return n
	}
	const (
		entryBytes = 8 + 3*8 + 8 // kmer + locs slice header + count/padding
		mapBytes   = 24          // rough per-entry map overhead (key+value+meta)
	)
	for i := range sx.shards {
		bt := &sx.shards[i]
		n += int64(len(bt.e)) * entryBytes
		n += int64(len(bt.m)) * mapBytes
		for j := range bt.e {
			n += int64(len(bt.e[j].locs)) * locBytes
		}
	}
	return n
}

// MarkShard implements §IV-A for shard s: every seed occurring more than
// once clears the single_copy flag of each fragment it appears in. Flag
// writes are idempotent atomic stores, so shards mark concurrently.
func (sx *Sharded) MarkShard(s int) {
	sx.mustBeMutable("MarkShard")
	bt := &sx.shards[s]
	for i := range bt.e {
		ent := &bt.e[i]
		if ent.count <= 1 {
			continue
		}
		for _, loc := range ent.locs {
			atomic.StoreInt32(&sx.singleCopy[loc.Frag], 0)
		}
	}
}

// Lookup probes the table. Safe for concurrent use once construction (all
// DrainShard/MarkShard calls) has completed; the table is immutable from
// then on. On a sealed index the probe hits the flat compact layout and the
// seed is hashed exactly once, shared between shard selection and the
// in-shard slot index.
func (sx *Sharded) Lookup(s kmer.Kmer) (LookupResult, bool) {
	h := s.Hash()
	shard := h % uint64(sx.cfg.Shards)
	if sx.flat != nil {
		return sx.flat[shard].lookup(s, h)
	}
	return sx.shards[shard].lookup(s)
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

// Stats scans the whole table (host-side). It works on both forms: the
// build-time buckets before Seal and the flat compact layout after.
func (sx *Sharded) Stats() Stats {
	st := Stats{MinOwnerSeeds: -1, SingleCopyFrags: sx.SingleCopyCount(), Fragments: sx.numFragments}
	if sx.flat != nil {
		for i := range sx.flat {
			fs := &sx.flat[i]
			n := 0
			for j := range fs.slots {
				e := &fs.slots[j]
				if e.n == 0 {
					continue
				}
				n++
				st.TotalLocs += int(e.n)
				if int(e.n) > st.MaxListLen {
					st.MaxListLen = int(e.n)
				}
				if e.cnt > 1 {
					st.RepeatSeeds++
				}
			}
			st.DistinctSeeds += n
			if n > st.MaxOwnerSeeds {
				st.MaxOwnerSeeds = n
			}
			if st.MinOwnerSeeds < 0 || n < st.MinOwnerSeeds {
				st.MinOwnerSeeds = n
			}
		}
		if st.MinOwnerSeeds < 0 {
			st.MinOwnerSeeds = 0
		}
		return st
	}
	for i := range sx.shards {
		bt := &sx.shards[i]
		n := len(bt.e)
		st.DistinctSeeds += n
		if n > st.MaxOwnerSeeds {
			st.MaxOwnerSeeds = n
		}
		if st.MinOwnerSeeds < 0 || n < st.MinOwnerSeeds {
			st.MinOwnerSeeds = n
		}
		for j := range bt.e {
			st.TotalLocs += len(bt.e[j].locs)
			if len(bt.e[j].locs) > st.MaxListLen {
				st.MaxListLen = len(bt.e[j].locs)
			}
			if bt.e[j].count > 1 {
				st.RepeatSeeds++
			}
		}
	}
	if st.MinOwnerSeeds < 0 {
		st.MinOwnerSeeds = 0
	}
	return st
}
