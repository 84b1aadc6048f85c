package core

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/merx"
)

// Seed-shard snapshots: the network DHT tier's on-disk unit. SaveSeedShards
// hash-partitions the sealed seed table across N owner nodes (whole internal
// shards per owner — see dht.Partition) and writes each partition as a
// self-contained .merx snapshot: the usual META/TARG/DHTS sections plus a
// "DHTP" identity section naming the partition (id, count, K, internal
// shard count, and the full-table fingerprint every sibling must share).
// TARG carries the complete reference in every seed shard, so any one file
// is enough to serve lookups AND to later open as a full query node — the
// seed table is the part that doesn't fit one machine, not the packed
// reference.
//
// LoadSeedShard is the serving side's light loader: it maps the partitioned
// table and reads the identities but skips the fragment-table rebuild —
// a lookup server resolves seeds, it never extends.

// SeedShardInfo is one seed shard's identity within a partitioned DHT,
// persisted as the snapshot's "DHTP" section.
type SeedShardInfo struct {
	// ID is this shard's owner position, 0-based; a seed with
	// dht.OwnerOf(seed, Shards, Count) == ID resolves here.
	ID int `json:"id"`
	// Count is the number of owner nodes the table was partitioned across.
	Count int `json:"count"`
	// K is the seed length of the partitioned table.
	K int `json:"k"`
	// Shards is the internal shard count of the table; owners are assigned
	// whole internal shards, so querying nodes need it to compute owners.
	Shards int `json:"shards"`
	// Fingerprint digests the full table's partition-relevant shape (see
	// dht.PartitionFingerprint); all shards of one fleet must agree, so a
	// query node can reject a fleet mixing shards of different builds.
	Fingerprint uint64 `json:"fingerprint"`
}

// Validate rejects impossible seed-shard identities (a corrupt or
// hand-edited DHTP section).
func (si SeedShardInfo) Validate() error {
	if si.Count < 1 || si.ID < 0 || si.ID >= si.Count || si.K < 1 || si.Shards < 1 {
		return fmt.Errorf("core: impossible seed-shard identity %+v", si)
	}
	return nil
}

// SeedShardPath names seed shard id of count within dir, the layout
// SaveSeedShards produces and the quickstarts reference.
func SeedShardPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("seed-shard-%03d.merx", id))
}

// SaveSeedShards hash-partitions the sealed seed table across count owner
// nodes and writes one self-contained snapshot per owner into dir
// (seed-shard-000.merx ...), returning the paths in owner order. Each
// snapshot passes the normal loaders too: LoadIndex opens it as a
// (partial-table) index, LoadSeedShard as a lookup shard.
func (ix *ThreadedIndex) SaveSeedShards(dir string, count int) ([]string, error) {
	fp, err := ix.sx.PartitionFingerprint(count) // refuses count < 1
	if err != nil {
		return nil, err
	}
	return ix.saveFleet(dir, "seed-shard", count, func(id int) (string, snapshotPart, error) {
		p, err := ix.sx.Partition(id, count)
		if err != nil {
			return "", snapshotPart{}, err
		}
		info := SeedShardInfo{ID: id, Count: count, K: ix.opt.K, Shards: p.Shards(), Fingerprint: fp}
		return SeedShardPath(dir, id), snapshotPart{targets: ix.targets, sx: p, seed: &info}, nil
	})
}

// SeedTableShards returns the internal shard count of the seed table: the
// routing input a query node needs alongside K to compute seed owners.
func (ix *ThreadedIndex) SeedTableShards() int { return ix.sx.Shards() }

// SeedPartitionFingerprint returns the fingerprint a count-way seed-shard
// fleet built from this table must report (see dht.PartitionFingerprint);
// a query node checks it against every node before trusting remote answers.
func (ix *ThreadedIndex) SeedPartitionFingerprint(count int) (uint64, error) {
	return ix.sx.PartitionFingerprint(count)
}

// SeedShard is a mapped seed-shard snapshot serving lookups for the seeds
// it owns. It holds only the partitioned table and the identities — no
// fragment table, no unpacked target codes — so a lookup server's resident
// cost is the mmap'd table plus page cache.
type SeedShard struct {
	info SeedShardInfo
	sx   *dht.Sharded
	snap *merx.File
}

// LoadSeedShard opens a snapshot written by SaveSeedShards. Failures are
// typed like LoadIndex's: damaged files match merx.ErrCorrupt, files this
// build cannot use (including snapshots without a DHTP section — a plain
// index is not a seed shard) match merx.ErrIncompatible.
func LoadSeedShard(path string) (*SeedShard, error) {
	f, err := merx.Open(path)
	if err != nil {
		return nil, err
	}
	sh, err := loadSeedShardFrom(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return sh, nil
}

func loadSeedShardFrom(f *merx.File) (*SeedShard, error) {
	if _, err := readMeta(f); err != nil {
		return nil, err
	}
	if !f.HasSection(sectionDHTPart) {
		return nil, &merx.IncompatibleError{Path: f.Path(), Reason: "snapshot has no DHTP section: a whole-index snapshot, not a seed shard (serve it with -index instead)"}
	}
	partBytes, err := f.SectionData(sectionDHTPart)
	if err != nil {
		return nil, err
	}
	var info SeedShardInfo
	if err := json.Unmarshal(partBytes, &info); err != nil {
		return nil, &merx.CorruptError{Path: f.Path(), Section: sectionDHTPart, Reason: fmt.Sprintf("undecodable seed-shard identity: %v", err)}
	}
	if err := info.Validate(); err != nil {
		return nil, &merx.CorruptError{Path: f.Path(), Section: sectionDHTPart, Reason: err.Error()}
	}
	sx, err := openTable(f)
	if err != nil {
		return nil, err
	}
	if sx.K() != info.K || sx.Shards() != info.Shards {
		return nil, &merx.CorruptError{Path: f.Path(), Section: sectionDHTPart, Reason: fmt.Sprintf(
			"seed table (K=%d, %d shards) disagrees with seed-shard identity (K=%d, %d shards)",
			sx.K(), sx.Shards(), info.K, info.Shards)}
	}
	return &SeedShard{info: info, sx: sx, snap: f}, nil
}

// Info returns the shard's identity.
func (sh *SeedShard) Info() SeedShardInfo { return sh.info }

// Path returns the backing snapshot's path.
func (sh *SeedShard) Path() string { return sh.snap.Path() }

// K returns the seed length of the shard's table.
func (sh *SeedShard) K() int { return sh.info.K }

// Owns reports whether this shard is the owner of a seed — the check a
// server uses to reject misrouted lookups instead of answering "absent".
func (sh *SeedShard) Owns(s kmer.Kmer) bool {
	return dht.OwnerOf(s, sh.info.Shards, sh.info.Count) == sh.info.ID
}

// Lookup resolves a seed against the mapped partition. Results for owned
// seeds are bit-identical to the full table's; unowned seeds always miss —
// callers must route by ownership first (see Owns).
func (sh *SeedShard) Lookup(s kmer.Kmer) (dht.LookupResult, bool) {
	return sh.sx.Lookup(s)
}

// ResidentBytes reports the mapped table's footprint (page cache, not heap).
func (sh *SeedShard) ResidentBytes() int64 { return sh.sx.ResidentBytes() }

// Close releases the snapshot mapping. The shard must not be used after.
func (sh *SeedShard) Close() error {
	if sh.snap == nil {
		return nil
	}
	f := sh.snap
	sh.snap = nil
	return f.Close()
}
