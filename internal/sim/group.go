package sim

import (
	"github.com/lbl-repro/meraligner/internal/cache"
	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/upc"
)

// groupShards splits every per-node cache into independent LRU shards to
// relieve host-side lock contention when many worker goroutines simulate
// the threads of one node. Capacity is divided evenly, so the simulated
// per-node budget is preserved.
const groupShards = 16

// Group holds the per-node seed-index caches and target caches of one run,
// mirroring Fig 6: every node dedicates part of its shared memory to a seed
// cache and a target cache; threads consult their own node's caches before
// going over the network.
//
// A Group with zero budgets degenerates to the "no cache" ablation of Fig 9:
// every Lookup/FetchTarget pays the full remote cost.
type Group struct {
	mach upc.MachineConfig
	// seed[node*groupShards+shard], targ likewise.
	seed []*cache.LRU[kmer.Kmer, dht.LookupResult]
	targ []*cache.LRU[int32, struct{}]

	// Per-thread communication-time attribution (Fig 9's split of the
	// aligning phase into seed-lookup vs target-fetch communication).
	// Indexed by thread ID; no locking needed.
	commSeed   []float64
	commTarget []float64
}

// NewGroup allocates caches for every node of the machine. seedBytes and
// targetBytes are PER-NODE budgets (the paper used 16 GB and 6 GB per node
// for the human runs).
func NewGroup(mach upc.MachineConfig, seedBytes, targetBytes int64) *Group {
	n := mach.Nodes() * groupShards
	g := &Group{
		mach:       mach,
		seed:       make([]*cache.LRU[kmer.Kmer, dht.LookupResult], n),
		targ:       make([]*cache.LRU[int32, struct{}], n),
		commSeed:   make([]float64, mach.Threads),
		commTarget: make([]float64, mach.Threads),
	}
	for i := 0; i < n; i++ {
		g.seed[i] = cache.NewLRU[kmer.Kmer, dht.LookupResult](seedBytes / groupShards)
		g.targ[i] = cache.NewLRU[int32, struct{}](targetBytes / groupShards)
	}
	return g
}

// seedShard returns the node's seed-cache shard holding s.
func (g *Group) seedShard(node int, s kmer.Kmer) *cache.LRU[kmer.Kmer, dht.LookupResult] {
	return g.seed[node*groupShards+int(s.Hash()>>32)%groupShards]
}

// targShard returns the node's target-cache shard holding frag.
func (g *Group) targShard(node int, frag int32) *cache.LRU[int32, struct{}] {
	return g.targ[node*groupShards+int(uint32(frag)*2654435761)%groupShards]
}

// Lookup performs a seed-index lookup through the node's seed cache.
// Cache hit: one on-node shared-memory access. Miss: the full remote lookup
// via ix.Lookup, after which remote-owned results are cached on the node.
func (g *Group) Lookup(t *upc.Thread, ix *Index, s kmer.Kmer) (dht.LookupResult, bool) {
	before := t.Comm
	defer func() { g.commSeed[t.ID] += t.Comm - before }()
	owner := ix.OwnerOf(s)
	if t.SameNode(owner) {
		// The node owns the seed: the cache would only duplicate local
		// shared memory, so go straight to the table (cheap on-node probe).
		return ix.Lookup(t, s)
	}
	sc := g.seedShard(t.Node, s)
	if res, ok := sc.Get(s); ok {
		t.Compute(g.mach.LookupCost)
		t.Get(t.ID, 0) // served from the node's shared segment
		return res, res.Count > 0
	}
	res, found := ix.Lookup(t, s)
	if found {
		sc.Put(s, res, int64(ix.LookupBytes(res.Len())))
	} else {
		// Negative caching: absent seeds (error k-mers) are recorded with
		// Count == 0 so repeated misses of hot error seeds stay on-node.
		sc.Put(s, dht.LookupResult{}, int64(ix.LookupBytes(0)))
	}
	return res, found
}

// FetchTarget charges fetching fragment frag (of size fragBytes, owned by
// thread fragOwner) through the node's target cache. It returns true when
// the fetch was served by the cache. The caller supplies the real fragment
// data; only cost and residency are managed here.
func (g *Group) FetchTarget(t *upc.Thread, frag int32, fragBytes int, fragOwner int) bool {
	before := t.Comm
	defer func() { g.commTarget[t.ID] += t.Comm - before }()
	if t.SameNode(fragOwner) {
		t.Get(fragOwner, fragBytes)
		return false
	}
	tc := g.targShard(t.Node, frag)
	if _, ok := tc.Get(frag); ok {
		t.Get(t.ID, 0) // on-node shared-memory access to the cached copy
		return true
	}
	t.Get(fragOwner, fragBytes)
	tc.Put(frag, struct{}{}, int64(fragBytes))
	return false
}

// CommSeedMax returns the largest per-thread communication time spent on
// seed lookups (the red bars of Fig 9).
func (g *Group) CommSeedMax() float64 {
	var m float64
	for _, v := range g.commSeed {
		m = max(m, v)
	}
	return m
}

// CommTargetMax returns the largest per-thread communication time spent
// fetching target sequences (the blue bars of Fig 9).
func (g *Group) CommTargetMax() float64 {
	var m float64
	for _, v := range g.commTarget {
		m = max(m, v)
	}
	return m
}

// SeedCounters sums seed-cache statistics over all nodes.
func (g *Group) SeedCounters() cache.CounterSnapshot {
	var s cache.CounterSnapshot
	for _, c := range g.seed {
		cs := c.Counters()
		s.Hits += cs.Hits
		s.Misses += cs.Misses
		s.Evictions += cs.Evictions
	}
	return s
}

// TargetCounters sums target-cache statistics over all nodes.
func (g *Group) TargetCounters() cache.CounterSnapshot {
	var s cache.CounterSnapshot
	for _, c := range g.targ {
		cs := c.Counters()
		s.Hits += cs.Hits
		s.Misses += cs.Misses
		s.Evictions += cs.Evictions
	}
	return s
}
