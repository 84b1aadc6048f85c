package dht

import (
	"fmt"

	"github.com/lbl-repro/meraligner/internal/kmer"
)

// This file partitions a sealed index across owner nodes by seed hash — the
// network realization of the paper's distributed hash table. The unit of
// distribution is the internal shard: ShardOf already buckets seeds by
// s.Hash() % Shards, so assigning whole internal shards to owners keeps the
// owner computable from the seed alone (no directory service) while reusing
// the sealed flat tables verbatim. Owner o of count nodes holds exactly the
// internal shards with shard % count == o.
//
// The assignment is part of the on-disk contract: seed-shard snapshots are
// saved under one mapping and queried under another process's idea of the
// same mapping, so ShardOwner/OwnerOf are pinned by golden tests in
// partition_test.go — a refactor that changes them silently re-partitions
// every saved fleet. Restrict carves the same sealed table by fragment
// range instead, for reference shards.

// ShardOwner returns the owner of internal shard id among count owners.
func ShardOwner(shard, count int) int { return shard % count }

// OwnerOf returns the owner node of a seed, for a table with the given
// internal shard count partitioned across count owners. It is the
// query-side mirror of ShardOf followed by ShardOwner.
func OwnerOf(s kmer.Kmer, shards, count int) int {
	return ShardOwner(int(s.Hash()%uint64(shards)), count)
}

// emptyFlatShard is the sealed shape of an internal shard with no entries:
// the minimum-size all-empty slot array (every probe misses on the first
// slot), its Hi words when k > 32, and no location arena. Partition
// substitutes it for unowned shards; the snapshot writer and mapped loader
// both handle it like any other shard.
func emptyFlatShard(k int) flatShard {
	return newFlatShard(0, k, nil, nil)
}

// Partition carves owner id's slice out of a sealed index: a new sealed
// *Sharded with the same configuration whose owned internal shards alias
// the receiver's flat tables (zero copy) and whose unowned shards are
// empty. Lookups for owned seeds are bit-identical to the full table;
// lookups for unowned seeds miss. The single-copy flags are global
// reference properties (§IV-A), not seed-local ones, so every partition
// carries the full flag array and the exact-match fast path keeps working
// at whichever node evaluates it.
func (sx *Sharded) Partition(id, count int) (*Sharded, error) {
	if !sx.sealed.Load() {
		return nil, fmt.Errorf("dht: Partition on an unsealed index")
	}
	if count <= 0 || id < 0 || id >= count {
		return nil, fmt.Errorf("dht: partition %d/%d out of range", id, count)
	}
	p := &Sharded{
		cfg:          sx.cfg,
		singleCopy:   sx.singleCopy,
		numFragments: sx.numFragments,
		flat:         make([]flatShard, len(sx.flat)),
	}
	for s := range sx.flat {
		if ShardOwner(s, count) == id {
			p.flat[s] = sx.flat[s]
		} else {
			p.flat[s] = emptyFlatShard(sx.cfg.K)
		}
	}
	p.sealed.Store(true)
	return p, nil
}

// Restrict carves the fragment range [fragLo, fragHi) out of a sealed index:
// a new sealed *Sharded with the same configuration holding, for every seed
// with a stored location in the range, those locations in stored order with
// Frag rebased by -fragLo, under the seed's whole-table count. Seeds with no
// stored location in the range are absent. The single-copy flags are the
// range's slice of the receiver's, so the §IV-A gate and the §IV-C threshold
// decide as over the whole table. The full range reproduces the receiver.
func (sx *Sharded) Restrict(fragLo, fragHi int) (*Sharded, error) {
	if !sx.sealed.Load() {
		return nil, fmt.Errorf("dht: Restrict on an unsealed index")
	}
	if fragLo < 0 || fragLo > fragHi || fragHi > sx.numFragments {
		return nil, fmt.Errorf("dht: fragment range [%d,%d) outside 0..%d", fragLo, fragHi, sx.numFragments)
	}
	r := &Sharded{
		cfg:          sx.cfg,
		singleCopy:   sx.singleCopy[fragLo:fragHi:fragHi],
		numFragments: fragHi - fragLo,
		flat:         make([]flatShard, len(sx.flat)),
	}
	for s := range sx.flat {
		r.flat[s] = sx.flat[s].restrict(s, sx.cfg.K, int32(fragLo), int32(fragHi))
	}
	r.sealed.Store(true)
	return r, nil
}

// restrict is Restrict for one internal shard, for seeds of length k.
func (fs *flatShard) restrict(id, k int, lo, hi int32) flatShard {
	var es []SeedEntry
	for i := range fs.slots {
		e := &fs.slots[i]
		if e.b == 0 {
			continue
		}
		res := fs.result(e)
		for j := range res.Len() {
			if l := res.At(j); l.Frag >= lo && l.Frag < hi {
				es = append(es, SeedEntry{Seed: fs.seed(i), Loc: Loc{Frag: l.Frag - lo, Off: l.Off, RC: l.RC}})
			}
		}
	}
	SortEntries(es)
	var whole []int32
	for i := 0; i < len(es); i += runLen(es[i:]) {
		res, _ := fs.lookup(es[i].Seed, es[i].Seed.Hash())
		whole = append(whole, res.Count)
	}
	return newFlatShard(id, k, es, whole)
}

// PartitionFingerprint digests the partition-relevant shape of the FULL
// sealed table for a given owner count: seed length, internal shard count,
// owner count, fragment count, and each internal shard's slot count and
// stored-location count. Two seed-shard snapshots interoperate only if their
// fingerprints match — it is computed once at save time from the full
// table and stored in every partition's DHTP section, so a query node can
// reject a fleet mixing shards of different builds (a partition cannot
// recompute the full-table digest from its own slice).
func (sx *Sharded) PartitionFingerprint(count int) (uint64, error) {
	if !sx.sealed.Load() {
		return 0, fmt.Errorf("dht: PartitionFingerprint on an unsealed index")
	}
	if count <= 0 {
		return 0, fmt.Errorf("dht: partition count %d out of range", count)
	}
	// FNV-1a over the shape words; the offset basis and prime are the
	// standard 64-bit FNV constants.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(1) // fingerprint scheme version
	mix(uint64(sx.cfg.K))
	mix(uint64(sx.cfg.Shards))
	mix(uint64(count))
	mix(uint64(sx.numFragments))
	for s := range sx.flat {
		mix(uint64(len(sx.flat[s].slots)))
		mix(uint64(sx.flat[s].st.locs))
	}
	return h, nil
}
