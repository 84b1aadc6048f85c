package meraligner

import "github.com/lbl-repro/meraligner/internal/core"

// Fleet producers: the producer half of both distributed tiers, each
// carving the one sealed index into N self-contained .merx snapshots.
// Aligner.SaveShards cuts the reference into contiguous, base-balanced
// target slices, each a normal index over its slice (with whole-reference
// seed counts and single-copy flags) plus a SHRD section naming its place in
// the fleet; merserved serves each, and a router (internal/cluster,
// cmd/merrouted) merges their per-read results into the output of one
// whole-reference node. Aligner.SaveSeedShards cuts the seed table by hash:
// every snapshot carries the whole reference but only the seeds its owner
// position holds — the paper's distributed hash table as N files, served by
// `merserved -seed-shard` to a query node (meraligner -dht-nodes) that
// resolves seeds through internal/dhtnet. Both fleets' output is
// byte-identical to one node's; docs/INDEX_FORMAT.md specifies SHRD and DHTP.

// ShardInfo is one shard's identity within a sharded reference: its
// position, the fleet size, and the global target/fragment offsets of its
// slice (see the SHRD section spec in docs/INDEX_FORMAT.md).
type ShardInfo = core.ShardInfo

// ShardInfo returns the shard identity of the resident index, or nil when
// it covers a whole (unsharded) reference. Shard snapshots get their
// identity from `meraligner -shard-save` via SaveShards.
func (a *Aligner) ShardInfo() *ShardInfo {
	return a.ix.ShardInfo()
}

// SaveShards partitions the resident index's reference into n shards and
// writes one snapshot per shard under dir as shard-000.merx,
// shard-001.merx, ..., returning the written paths in shard order. Every
// shard carries the index's build options (a router refuses mixed-K
// fleets). A reference shard cannot be sharded again. Snapshot writes are
// atomic, but the set is not transactional: a failure partway leaves the
// already-written shards on disk for the caller to clean up or resume over.
func (a *Aligner) SaveShards(dir string, n int) ([]string, error) {
	if err := a.acquire(); err != nil {
		return nil, err
	}
	defer a.release()
	return a.ix.SaveShards(dir, n)
}

// SaveShards builds the index over targets once with opt on threads
// workers and writes its n reference shards under dir (Aligner.SaveShards).
func SaveShards(threads int, opt IndexOptions, targets []Seq, n int, dir string) ([]string, error) {
	a, err := Build(threads, opt, targets)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	return a.SaveShards(dir, n)
}

// SeedShardInfo is one seed shard's identity within a partitioned DHT:
// owner position, fleet size, seed length, internal shard count, and the
// partition fingerprint every sibling must share.
type SeedShardInfo = core.SeedShardInfo

// SeedShardPath names seed shard id within dir, the layout SaveSeedShards
// produces (seed-shard-000.merx, ...).
func SeedShardPath(dir string, id int) string { return core.SeedShardPath(dir, id) }

// SaveSeedShards hash-partitions the resident index's seed table across
// count owner nodes and writes one self-contained snapshot per owner under
// dir, returning the paths in owner order. Writes are atomic per file; a
// failure partway leaves the finished shards on disk.
func (a *Aligner) SaveSeedShards(dir string, count int) ([]string, error) {
	if err := a.acquire(); err != nil {
		return nil, err
	}
	defer a.release()
	return a.ix.SaveSeedShards(dir, count)
}

// SeedTableShards returns the internal shard count of the resident seed
// table — the routing input a seed-lookup client needs alongside K.
func (a *Aligner) SeedTableShards() int { return a.ix.SeedTableShards() }

// SeedPartitionFingerprint returns the fingerprint a count-way seed-shard
// fleet built from this index must report; a query node verifies it against
// every node before trusting remote answers.
func (a *Aligner) SeedPartitionFingerprint(count int) (uint64, error) {
	return a.ix.SeedPartitionFingerprint(count)
}
