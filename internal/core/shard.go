package core

import (
	"fmt"
	"path/filepath"

	"github.com/lbl-repro/meraligner/internal/seqio"
)

// Reference sharding: a whole reference partitioned into N contiguous
// target ranges, each written as a normal single-node index over its slice
// plus a ShardInfo recording its place in the fleet (persisted as the
// snapshot's "SHRD" section). Targets keep their global names, and SAM/wire
// coordinates are per-target, so a shard's alignments are already globally
// addressed — the bases fields exist so a router (or operator) can verify
// fleet consistency and reason about global target/fragment ids without
// opening every shard.

// ShardInfo is one shard's identity within a sharded reference.
type ShardInfo struct {
	// ID is this shard's position in the fleet, 0-based; shard order is
	// global target order.
	ID int `json:"id"`
	// Count is the number of shards the reference was partitioned into.
	Count int `json:"count"`
	// TargetBase is the global index of this shard's first target: the sum
	// of all earlier shards' target counts.
	TargetBase int `json:"target_base"`
	// FragmentBase is the global id of this shard's first fragment under
	// the whole-reference fragmentation (fragment ids are assigned in
	// target order, so a shard's local fragment f is global FragmentBase+f).
	FragmentBase int `json:"fragment_base"`
}

// Validate rejects impossible shard identities (a corrupt or hand-edited
// SHRD section).
func (si ShardInfo) Validate() error {
	if si.Count < 1 || si.ID < 0 || si.ID >= si.Count || si.TargetBase < 0 || si.FragmentBase < 0 {
		return fmt.Errorf("core: impossible shard identity %+v", si)
	}
	return nil
}

// ShardInfo returns the index's shard identity, or nil when the index
// covers a whole (unsharded) reference.
func (ix *ThreadedIndex) ShardInfo() *ShardInfo {
	if ix.shard == nil {
		return nil
	}
	si := *ix.shard
	return &si
}

// SaveShards cuts the reference into n contiguous, base-balanced target
// slices (ShardRanges) and writes one self-contained snapshot per slice
// into dir (shard-000.merx ...), returning the paths in shard order. Each
// shard's table is this index's carved to the slice (dht.Restrict), so a
// shard takes every §IV-A and §IV-C decision a whole-reference node takes.
func (ix *ThreadedIndex) SaveShards(dir string, n int) ([]string, error) {
	ranges, err := ShardRanges(ix.targets, n)
	if err != nil {
		return nil, err
	}
	return ix.saveFleet(dir, "shard", n, func(id int) (string, snapshotPart, error) {
		lo, hi := ranges[id][0], ranges[id][1]
		fragLo, _ := ix.ft.FragRange(int32(lo))
		_, fragHi := ix.ft.FragRange(int32(hi - 1))
		sx, err := ix.sx.Restrict(int(fragLo), int(fragHi))
		if err != nil {
			return "", snapshotPart{}, err
		}
		info := ShardInfo{ID: id, Count: n, TargetBase: lo, FragmentBase: int(fragLo)}
		path := filepath.Join(dir, fmt.Sprintf("shard-%03d.merx", id))
		return path, snapshotPart{targets: ix.targets[lo:hi], sx: sx, shard: &info}, nil
	})
}

// ShardRanges partitions targets into n contiguous ranges balanced by total
// bases (the same partition the build's read-targets phase uses) and
// returns, per shard, its [lo, hi) target range. It refuses partitions that
// would leave a shard empty — an empty shard serves nothing and usually
// means the operator asked for more shards than targets.
func ShardRanges(targets []seqio.Seq, n int) ([][2]int, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: shard count must be positive, got %d", n)
	}
	if n > len(targets) {
		return nil, fmt.Errorf("core: cannot partition %d target(s) into %d shards", len(targets), n)
	}
	ranges := PartitionTargetsByBases(targets, n)
	for i, r := range ranges {
		if r[0] == r[1] {
			return nil, fmt.Errorf("core: base-balanced partition leaves shard %d/%d empty (one target dominates); use fewer shards", i, n)
		}
	}
	return ranges, nil
}
