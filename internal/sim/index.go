package sim

import (
	"fmt"
	"sync"

	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/upc"
)

// This file is the paper's distributed seed index (§II-B, §III) on the
// simulated machine: a hash table partitioned over all UPC threads, mapping
// each seed to the list of (fragment, offset) locations it was extracted
// from. It shares the entry types and the SortEntries order of package dht
// (by home-slot key, then seed, then location; equal seeds adjacent, each
// one's locations in (fragment, offset, strand) order) and nothing else —
// the table below is its own, so the engine parity tests compare the
// servers' flat table against an independent reference.
//
// Construction supports both modes measured in Fig 8:
//
//   - FineGrained: the straightforward algorithm — every seed incurs a
//     remote lock (global atomic) plus a small remote store into the owner's
//     bucket. Fine-grained communication and fine-grained locking.
//
//   - Aggregating: the paper's "aggregating stores" optimization — each
//     thread keeps an S-entry staging buffer per destination thread; a full
//     buffer is shipped with ONE remote aggregate transfer into the
//     destination's local-shared stack, whose write cursor is reserved with a
//     single atomic_fetchadd. After a barrier every owner drains its own
//     stack into its local buckets with zero communication and zero locks,
//     which is what makes the resulting table lock-free. Memory grows by
//     S x (n-1) staged entries per thread; messages and atomics shrink by S.

// BuildMode selects the construction algorithm.
type BuildMode int

const (
	// Aggregating is the optimized mode (aggregating stores, lock-free).
	Aggregating BuildMode = iota
	// FineGrained is the unoptimized baseline of Fig 8.
	FineGrained
)

func (m BuildMode) String() string {
	if m == Aggregating {
		return "aggregating"
	}
	return "fine-grained"
}

// seedList is the stored value for one distinct seed.
type seedList struct {
	locs  []dht.Loc
	count int32 // total occurrences, == len(locs) unless list was capped
}

// ownerTable is the local part of the distributed table on one thread: a
// map from seed to a dense list slice in insertion order (MarkSingleCopy
// and Stats walk it, so the order must be reproducible).
type ownerTable struct {
	mu   sync.Mutex // contended only in FineGrained mode
	idx  map[kmer.Kmer]int32
	list []seedList
}

// insert adds one occurrence, capping the stored location list at maxLoc
// entries (0 = unlimited) while still counting every occurrence. Caller
// holds ot.mu or is the exclusive owner.
func (ot *ownerTable) insert(e dht.SeedEntry, maxLoc int) {
	if i, ok := ot.idx[e.Seed]; ok {
		l := &ot.list[i]
		l.count++
		if maxLoc == 0 || len(l.locs) < maxLoc {
			l.locs = append(l.locs, e.Loc)
		}
		return
	}
	ot.idx[e.Seed] = int32(len(ot.list))
	ot.list = append(ot.list, seedList{locs: []dht.Loc{e.Loc}, count: 1})
}

// stack is one thread's pre-allocated local-shared stack: remote threads
// append aggregate batches; the owner drains it after the barrier.
type stack struct {
	mu      sync.Mutex
	entries []dht.SeedEntry
}

// IndexConfig parameterizes index construction.
type IndexConfig struct {
	K          int       // seed length
	Mode       BuildMode // Aggregating or FineGrained
	S          int       // aggregation buffer size (entries); paper uses 1000
	MaxLocList int       // cap on stored locations per seed; 0 = unlimited
}

// Index is the distributed seed index.
type Index struct {
	cfg  IndexConfig
	mach upc.MachineConfig

	owners []ownerTable
	stacks []stack

	// singleCopy[frag] is 1 while every seed of the fragment is uniquely
	// located in it (Lemma 1's precondition); cleared during MarkSingleCopy.
	singleCopy   []int32
	numFragments int
}

// NewIndex creates an index distributed over the machine's threads, indexing
// fragments 0..numFragments-1.
func NewIndex(mach upc.MachineConfig, cfg IndexConfig, numFragments int) (*Index, error) {
	if cfg.K <= 0 || cfg.K > kmer.MaxK {
		return nil, fmt.Errorf("sim: seed length %d out of range", cfg.K)
	}
	if cfg.S <= 0 {
		cfg.S = 1000 // the paper's setting
	}
	ix := &Index{
		cfg:          cfg,
		mach:         mach,
		owners:       make([]ownerTable, mach.Threads),
		stacks:       make([]stack, mach.Threads),
		singleCopy:   make([]int32, numFragments),
		numFragments: numFragments,
	}
	for i := range ix.owners {
		ix.owners[i].idx = make(map[kmer.Kmer]int32)
	}
	for i := range ix.singleCopy {
		ix.singleCopy[i] = 1
	}
	return ix, nil
}

// OwnerOf returns the thread owning a seed: djb2(seed) mod THREADS, the
// paper's seed-to-processor map.
func (ix *Index) OwnerOf(s kmer.Kmer) int {
	return int(s.Hash() % uint64(ix.mach.Threads))
}

// Builder stages seed insertions for one thread during construction.
type Builder struct {
	ix   *Index
	t    *upc.Thread
	bufs [][]dht.SeedEntry // per destination, Aggregating mode only

	// Flushes counts aggregate transfers issued (for tests and stats).
	Flushes int64
}

// NewBuilder returns a Builder bound to simulated thread t.
func (ix *Index) NewBuilder(t *upc.Thread) *Builder {
	b := &Builder{ix: ix, t: t}
	if ix.cfg.Mode == Aggregating {
		b.bufs = make([][]dht.SeedEntry, ix.mach.Threads)
	}
	return b
}

// Add inserts one seed occurrence. In Aggregating mode it is staged into
// the per-destination buffer and shipped when S entries accumulate; in
// FineGrained mode it is sent immediately with a lock + small message.
func (b *Builder) Add(e dht.SeedEntry) {
	ix, t := b.ix, b.t
	t.Compute(ix.mach.HashCost)
	dst := ix.OwnerOf(e.Seed)

	if ix.cfg.Mode == FineGrained {
		// Straightforward algorithm: remote lock, remote store, remote
		// unlock (unlock charged as part of the atomic pair), plus the
		// insertion executed under the owner's bucket lock.
		t.Atomic(dst)
		t.Put(dst, dht.WireBytes(ix.cfg.K))
		ot := &ix.owners[dst]
		ot.mu.Lock()
		ot.insert(e, ix.cfg.MaxLocList)
		ot.mu.Unlock()
		// The insert work is done by the initiating thread via RDMA+lock
		// in the unoptimized scheme; charge it the insert cost too.
		t.Compute(ix.mach.InsertCost)
		return
	}

	t.Compute(ix.mach.BufferCopyCost)
	buf := append(b.bufs[dst], e)
	if len(buf) >= ix.cfg.S {
		b.ship(dst, buf)
		buf = buf[:0]
	}
	b.bufs[dst] = buf
}

// ship performs one remote aggregate transfer of staged entries into dst's
// local-shared stack: an atomic_fetchadd reserving the range, then a single
// aggregate put.
func (b *Builder) ship(dst int, batch []dht.SeedEntry) {
	if len(batch) == 0 {
		return
	}
	ix, t := b.ix, b.t
	t.Atomic(dst) // reserve cur_pos .. cur_pos+S-1 on the stack_ptr
	t.Put(dst, len(batch)*dht.WireBytes(ix.cfg.K))
	st := &ix.stacks[dst]
	st.mu.Lock()
	st.entries = append(st.entries, batch...)
	st.mu.Unlock()
	b.Flushes++
}

// Flush ships every non-empty staging buffer; call before the barrier that
// precedes draining.
func (b *Builder) Flush() {
	if b.ix.cfg.Mode != Aggregating {
		return
	}
	for dst, buf := range b.bufs {
		if len(buf) > 0 {
			b.ship(dst, buf)
			b.bufs[dst] = buf[:0]
		}
	}
}

// Drain empties thread t's local-shared stack into its local buckets —
// purely local, lock-free work (§III-A). Entries are sorted first so the
// table contents are independent of flush interleaving; the sort is a
// simulation-reproducibility aid and is not charged to the cost model.
func (ix *Index) Drain(t *upc.Thread) {
	if ix.cfg.Mode != Aggregating {
		return
	}
	st := &ix.stacks[t.ID]
	es := st.entries
	dht.SortEntries(es)
	ot := &ix.owners[t.ID]
	for _, e := range es {
		ot.insert(e, ix.cfg.MaxLocList)
		t.Compute(ix.mach.InsertCost)
	}
	st.entries = nil
}

// MarkSingleCopy implements §IV-A: thread t visits its local seeds; every
// seed occurring more than once anywhere clears the single_copy_seeds flag
// of each fragment it appears in. Flag writes to fragments owned by other
// threads are one-sided remote puts of one byte.
func (ix *Index) MarkSingleCopy(t *upc.Thread) {
	ot := &ix.owners[t.ID]
	for i := range ot.list {
		ent := &ot.list[i]
		t.Compute(ix.mach.LookupCost) // visiting the local bucket
		if ent.count <= 1 {
			continue
		}
		for _, loc := range ent.locs {
			fragOwner := int(loc.Frag) % ix.mach.Threads
			t.Put(fragOwner, 1)
			ix.clearSingleCopy(int(loc.Frag))
		}
	}
}

var clearMu sync.Mutex

func (ix *Index) clearSingleCopy(frag int) {
	// Plain store under a global mutex: writes are idempotent (always 0),
	// the mutex only pacifies the race detector.
	clearMu.Lock()
	ix.singleCopy[frag] = 0
	clearMu.Unlock()
}

// SingleCopy reports whether every seed of fragment frag is uniquely located
// in it. Valid after MarkSingleCopy has run on all threads.
func (ix *Index) SingleCopy(frag int) bool { return ix.singleCopy[frag] != 0 }

// SingleCopyCount returns how many fragments kept the flag.
func (ix *Index) SingleCopyCount() int {
	n := 0
	for _, f := range ix.singleCopy {
		if f != 0 {
			n++
		}
	}
	return n
}

// lookupLocal probes the owner's table without charging communication.
func (ix *Index) lookupLocal(owner int, s kmer.Kmer) (dht.LookupResult, bool) {
	ot := &ix.owners[owner]
	i, ok := ot.idx[s]
	if !ok {
		return dht.LookupResult{}, false
	}
	return dht.LookupResult{Locs: ot.list[i].locs, Count: ot.list[i].count}, true
}

// Lookup performs a seed lookup from thread t, charging one local probe at
// the owner plus the transfer of the result back to t (self and on-node
// lookups are cheap; off-node ones pay remote latency). The seed-index
// software cache, when used, wraps this method — see Group.
func (ix *Index) Lookup(t *upc.Thread, s kmer.Kmer) (dht.LookupResult, bool) {
	t.Compute(ix.mach.LookupCost)
	owner := ix.OwnerOf(s)
	res, ok := ix.lookupLocal(owner, s)
	bytes := dht.WireBytes(ix.cfg.K)
	if ok {
		bytes += res.Len() * 9
	}
	t.Get(owner, bytes)
	return res, ok
}

// LookupBytes returns the wire size of a lookup response with n locations;
// exposed for the seed cache's cost accounting.
func (ix *Index) LookupBytes(n int) int { return dht.WireBytes(ix.cfg.K) + n*9 }

// LookupNoCharge probes the table without touching the cost model — used
// by oracles in tests and by the cache layer after it has charged costs.
func (ix *Index) LookupNoCharge(s kmer.Kmer) (dht.LookupResult, bool) {
	return ix.lookupLocal(ix.OwnerOf(s), s)
}

// Stats scans the whole table (host-side, not charged to the cost model).
func (ix *Index) Stats() dht.Stats {
	st := dht.Stats{MinOwnerSeeds: -1, SingleCopyFrags: ix.SingleCopyCount(), Fragments: ix.numFragments}
	for i := range ix.owners {
		ot := &ix.owners[i]
		n := len(ot.list)
		st.DistinctSeeds += n
		if n > st.MaxOwnerSeeds {
			st.MaxOwnerSeeds = n
		}
		if st.MinOwnerSeeds < 0 || n < st.MinOwnerSeeds {
			st.MinOwnerSeeds = n
		}
		for j := range ot.list {
			st.TotalLocs += len(ot.list[j].locs)
			if len(ot.list[j].locs) > st.MaxListLen {
				st.MaxListLen = len(ot.list[j].locs)
			}
			if ot.list[j].count > 1 {
				st.RepeatSeeds++
			}
		}
	}
	if st.MinOwnerSeeds < 0 {
		st.MinOwnerSeeds = 0
	}
	return st
}

// PendingStackEntries reports staged-but-undrained entries; must be zero
// after all threads Drain. Exposed for tests.
func (ix *Index) PendingStackEntries() int {
	n := 0
	for i := range ix.stacks {
		n += len(ix.stacks[i].entries)
	}
	return n
}
