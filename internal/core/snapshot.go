package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/merx"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// This file persists a ThreadedIndex as a .merx snapshot and loads it back:
// Save writes three checksummed sections — the options/stats fingerprint
// ("META", JSON), the packed reference ("TARG"), and the sealed seed table
// ("DHTS", see dht.WriteTo) — plus, on shard snapshots only, the shard
// identity ("SHRD", JSON) — and LoadIndex memory-maps them, so a serving
// process cold-starts in milliseconds instead of re-extracting, draining,
// and sealing the whole index from FASTA. The byte-level layout of every
// section is specified in docs/INDEX_FORMAT.md.

// Section tags of an index snapshot. SHRD is optional: present only on
// snapshots produced by the reference-shard producer, carrying the
// ShardInfo JSON. DHTP is optional: present only on seed-shard snapshots
// produced by SaveSeedShards, carrying the SeedShardInfo JSON.
const (
	sectionMeta    = "META"
	sectionTargets = "TARG"
	sectionDHT     = "DHTS"
	sectionShard   = "SHRD"
	sectionDHTPart = "DHTP"
)

// snapLayout is the struct-size fingerprint stamped into every snapshot
// header; LoadIndex refuses files whose layout differs from this build's.
var snapLayout = merx.Layout{
	FlatEntryBytes: dht.FlatEntryWireBytes,
	LocBytes:       dht.LocWireBytes,
}

// snapshotMeta is the "META" section: everything about the index that is
// not bulk data, as JSON so the fingerprint stays debuggable with any
// inspection tool. Index carries the exact IndexOptions of the build —
// loading restores them verbatim, so a loaded index reports the options it
// was built with. Stats restores the seal-time statistics snapshot without
// rescanning the mapped table.
type snapshotMeta struct {
	Tool         string       `json:"tool"`
	Index        IndexOptions `json:"index_options"`
	Shards       int          `json:"shards"`
	NumTargets   int          `json:"num_targets"`
	NumFragments int          `json:"num_fragments"`
	Stats        dht.Stats    `json:"stats"`
}

// Save writes the sealed index as a .merx snapshot at path, atomically: the
// bytes go to a temporary file in the same directory that is renamed over
// path only after a successful sync, so a crashed or failed Save never
// leaves a half-written snapshot where a loader might find it.
func (ix *ThreadedIndex) Save(path string) error {
	return writeSnapshot(path, ix.opt, snapshotPart{targets: ix.targets, sx: ix.sx, shard: ix.shard})
}

// snapshotPart is what one snapshot holds besides the build options: the
// targets, the seed table over them, and at most one fleet identity.
type snapshotPart struct {
	targets []seqio.Seq
	sx      *dht.Sharded
	shard   *ShardInfo     // SHRD: one slice of a sharded reference
	seed    *SeedShardInfo // DHTP: one owner of a hash-partitioned table
}

// saveFleet is the one producer loop of SaveShards and SaveSeedShards: it
// refuses to cut a reference shard again, creates dir, and writes each
// part(id), id below count, to the path part names, returning the paths. A
// failure partway leaves the finished files on disk.
func (ix *ThreadedIndex) saveFleet(dir, kind string, count int, part func(id int) (string, snapshotPart, error)) ([]string, error) {
	if ix.shard != nil {
		return nil, fmt.Errorf("core: cannot %s a reference shard (%d/%d): partition the whole reference", kind, ix.shard.ID, ix.shard.Count)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: saving %ss: %w", kind, err)
	}
	paths := make([]string, count)
	for id := range paths {
		path, p, err := part(id)
		if err != nil {
			return nil, err
		}
		paths[id] = path
		if err := writeSnapshot(path, ix.opt, p); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// jsonSection writes v as indented JSON — the encoding of every metadata
// section (META, SHRD, DHTP), chosen so the fingerprints stay debuggable
// with any inspection tool.
func jsonSection(sw io.Writer, v any) error {
	enc, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	_, werr := sw.Write(append(enc, '\n'))
	return werr
}

// writeSnapshot is the shared section-writing path of every snapshot
// flavor: whole-index saves (Save) and the parts of both fleets (saveFleet)
// differ only in which targets and table they serialize and which optional
// identity section rides along. META describes the part's own table.
func writeSnapshot(path string, opt IndexOptions, p snapshotPart) (err error) {
	st := p.sx.Stats()
	meta := snapshotMeta{Tool: "meraligner", Index: opt, Shards: p.sx.Shards(), NumTargets: len(p.targets), NumFragments: st.Fragments, Stats: st}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".merx-tmp-*")
	if err != nil {
		return fmt.Errorf("core: saving index: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w, err := merx.NewWriter(tmp, snapLayout)
	if err != nil {
		return err
	}
	if err = w.Section(sectionMeta, func(sw io.Writer) error {
		return jsonSection(sw, meta)
	}); err != nil {
		return err
	}
	if err = w.Section(sectionTargets, func(sw io.Writer) error {
		return writeTargets(sw, p.targets)
	}); err != nil {
		return err
	}
	if err = w.Section(sectionDHT, func(sw io.Writer) error {
		_, werr := p.sx.WriteTo(sw)
		return werr
	}); err != nil {
		return err
	}
	if p.shard != nil {
		if err = w.Section(sectionShard, func(sw io.Writer) error {
			return jsonSection(sw, *p.shard)
		}); err != nil {
			return err
		}
	}
	if p.seed != nil {
		if err = w.Section(sectionDHTPart, func(sw io.Writer) error {
			return jsonSection(sw, *p.seed)
		}); err != nil {
			return err
		}
	}
	if err = w.Finish(); err != nil {
		return err
	}
	// CreateTemp opens mode 0600; widen to the usual artifact permissions so
	// replicas running as other users can map the snapshot.
	if err = tmp.Chmod(0o644); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadIndex opens a .merx snapshot written by Save and returns a resident,
// sealed ThreadedIndex whose seed table and target sequences alias the
// snapshot's read-only mapping — no rebuild, no rehash, and any number of
// processes loading the same file share one physical copy of the table
// through the page cache. workers sizes the fragment-table reconstruction
// (the only rebuilt structure: the unpacked per-target code slices used by
// Smith-Waterman stay heap-owned) and plays the role BuildIndex's workers
// plays for built indexes.
//
// Failures are typed: a damaged file (truncation, checksum mismatch,
// impossible offsets) returns an error matching merx.ErrCorrupt that names
// the failing section, and a file this build cannot use (not a snapshot,
// future format version, different struct layout, options that fail
// validation, or a seed table with capped location lists) returns one
// matching merx.ErrIncompatible. A loaded index must be released with Close
// when no longer needed.
func LoadIndex(workers int, path string) (*ThreadedIndex, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("core: threads must be positive, got %d", workers)
	}
	start := time.Now()
	f, err := merx.Open(path)
	if err != nil {
		return nil, err
	}
	ix, err := loadFrom(workers, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	ix.buildPhases = []Phase{{Name: PhaseLoad, RealWall: time.Since(start).Seconds()}}
	return ix, nil
}

// readMeta checks an opened snapshot's struct layout and decodes its META
// section: both loaders start here. A snapshot another tool wrote, or whose
// index options fail validation, is refused as incompatible.
func readMeta(f *merx.File) (snapshotMeta, error) {
	var meta snapshotMeta
	if err := f.CheckLayout(snapLayout); err != nil {
		return meta, err
	}
	metaBytes, err := f.SectionData(sectionMeta)
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return meta, &merx.CorruptError{Path: f.Path(), Section: sectionMeta, Reason: fmt.Sprintf("undecodable metadata: %v", err)}
	}
	if meta.Tool != "meraligner" {
		return meta, &merx.IncompatibleError{Path: f.Path(), Reason: fmt.Sprintf("snapshot written by %q, not meraligner", meta.Tool)}
	}
	if err := meta.Index.Validate(); err != nil {
		return meta, &merx.IncompatibleError{Path: f.Path(), Reason: fmt.Sprintf("snapshot index options rejected: %v", err)}
	}
	return meta, nil
}

// loadFrom assembles the index from an opened snapshot's verified sections.
func loadFrom(workers int, f *merx.File) (*ThreadedIndex, error) {
	meta, err := readMeta(f)
	if err != nil {
		return nil, err
	}

	targBytes, err := f.SectionData(sectionTargets)
	if err != nil {
		return nil, err
	}
	targets, err := readTargets(targBytes)
	if err != nil {
		return nil, &merx.CorruptError{Path: f.Path(), Section: sectionTargets, Reason: err.Error()}
	}
	if len(targets) != meta.NumTargets {
		return nil, &merx.CorruptError{Path: f.Path(), Section: sectionTargets, Reason: fmt.Sprintf("%d targets decoded, metadata says %d", len(targets), meta.NumTargets)}
	}

	sx, err := openTable(f)
	if err != nil {
		return nil, err
	}
	if sx.K() != meta.Index.K || sx.Shards() != meta.Shards {
		return nil, &merx.CorruptError{Path: f.Path(), Section: sectionDHT, Reason: fmt.Sprintf(
			"seed table (K=%d, %d shards) disagrees with metadata (K=%d, %d shards)",
			sx.K(), sx.Shards(), meta.Index.K, meta.Shards)}
	}

	// The fragment table is deterministic in (targets, K, FragmentLen), so
	// it is rebuilt rather than serialized; its unpacked code slices must
	// live on the heap anyway (they are byte-per-base working copies). A
	// fragment-count mismatch means the fragmentation algorithm changed
	// since the snapshot was written — the location lists would point into
	// the wrong fragments, so refuse the file.
	ft := BuildFragmentTable(targets, meta.Index.K, meta.Index.FragmentLen, workers)
	if ft.NumFragments() != meta.NumFragments {
		return nil, &merx.IncompatibleError{Path: f.Path(), Reason: fmt.Sprintf(
			"fragmentation of the stored targets yields %d fragments, snapshot expects %d (fragmentation algorithm changed since the snapshot was written)",
			ft.NumFragments(), meta.NumFragments)}
	}

	// The optional shard identity: absent on whole-reference snapshots.
	var shard *ShardInfo
	if f.HasSection(sectionShard) {
		shardBytes, err := f.SectionData(sectionShard)
		if err != nil {
			return nil, err
		}
		var si ShardInfo
		if err := json.Unmarshal(shardBytes, &si); err != nil {
			return nil, &merx.CorruptError{Path: f.Path(), Section: sectionShard, Reason: fmt.Sprintf("undecodable shard identity: %v", err)}
		}
		if err := si.Validate(); err != nil {
			return nil, &merx.CorruptError{Path: f.Path(), Section: sectionShard, Reason: err.Error()}
		}
		shard = &si
	}

	return &ThreadedIndex{
		opt:     meta.Index,
		targets: targets,
		ft:      ft,
		sx:      sx,
		stats:   meta.Stats,
		shard:   shard,
		snap:    f,
	}, nil
}

// openTable maps the snapshot's DHTS section as a sealed seed table. A
// table in another version's layout, or written with capped location lists
// (which cannot answer every threshold), is refused as incompatible; any
// other failure as corrupt.
func openTable(f *merx.File) (*dht.Sharded, error) {
	blob, err := f.SectionData(sectionDHT)
	if err != nil {
		return nil, err
	}
	sx, err := dht.OpenMapped(blob)
	if errors.Is(err, dht.ErrTableVersion) || errors.Is(err, dht.ErrCappedTable) {
		return nil, &merx.IncompatibleError{Path: f.Path(), Reason: err.Error()}
	}
	if err != nil {
		return nil, &merx.CorruptError{Path: f.Path(), Section: sectionDHT, Reason: err.Error()}
	}
	return sx, nil
}

// Mapped reports whether this index aliases a loaded snapshot (true after
// LoadIndex, false after BuildIndex). While true, the seed table and packed
// target bytes live in the snapshot's read-only mapping, not on the heap.
func (ix *ThreadedIndex) Mapped() bool { return ix.snap != nil }

// SnapshotPath returns the path of the backing snapshot for a loaded
// index, or "" for a built one.
func (ix *ThreadedIndex) SnapshotPath() string {
	if ix.snap == nil {
		return ""
	}
	return ix.snap.Path()
}

// Close releases the snapshot mapping backing a loaded index. The index —
// including Results previously returned by Query, if they alias target
// names — must not be used afterwards. Close on a built index is a no-op;
// Close is idempotent.
func (ix *ThreadedIndex) Close() error {
	if ix.snap == nil {
		return nil
	}
	f := ix.snap
	ix.snap = nil
	return f.Close()
}

// Target records of the "TARG" section: a u64 record count, then per
// record a 16-byte fixed part (u64 baseLen, u32 nameLen, u8 qualFlag, 3 B
// padding) followed by the name bytes, the quality bytes (baseLen of them,
// when qualFlag is 1), and the packed bases ((baseLen+3)/4 bytes, in the
// dna.Packed bit layout). Records abut with no padding.
const targRecordFixed = 16

// writeTargets serializes the reference sequences.
func writeTargets(w io.Writer, targets []seqio.Seq) error {
	bw := bufio.NewWriterSize(w, 1<<18)
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(targets)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var fixed [targRecordFixed]byte
	for _, t := range targets {
		binary.LittleEndian.PutUint64(fixed[0:], uint64(t.Seq.Len()))
		binary.LittleEndian.PutUint32(fixed[8:], uint32(len(t.Name)))
		qf := byte(0)
		if len(t.Qual) > 0 {
			if len(t.Qual) != t.Seq.Len() {
				return fmt.Errorf("target %q: %d quality values for %d bases", t.Name, len(t.Qual), t.Seq.Len())
			}
			qf = 1
		}
		fixed[12] = qf
		fixed[13], fixed[14], fixed[15] = 0, 0, 0
		if _, err := bw.Write(fixed[:]); err != nil {
			return err
		}
		if _, err := bw.WriteString(t.Name); err != nil {
			return err
		}
		if qf == 1 {
			if _, err := bw.Write(t.Qual); err != nil {
				return err
			}
		}
		if _, err := bw.Write(t.Seq.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readTargets decodes the "TARG" section. The packed base data and quality
// bytes of every sequence alias blob (zero-copy); names are materialized as
// strings.
func readTargets(blob []byte) ([]seqio.Seq, error) {
	if len(blob) < 8 {
		return nil, fmt.Errorf("section of %d bytes has no record count", len(blob))
	}
	count := binary.LittleEndian.Uint64(blob)
	// Each record costs at least its fixed part, which bounds the count a
	// section of this size can hold — and bounds the slice pre-allocation a
	// crafted count could otherwise inflate.
	if count > uint64(len(blob)-8)/targRecordFixed {
		return nil, fmt.Errorf("implausible target count %d for a %d-byte section", count, len(blob))
	}
	out := make([]seqio.Seq, 0, count)
	pos := 8
	for i := uint64(0); i < count; i++ {
		if len(blob)-pos < targRecordFixed {
			return nil, fmt.Errorf("target %d: truncated record header", i)
		}
		baseLen := binary.LittleEndian.Uint64(blob[pos:])
		nameLen := binary.LittleEndian.Uint32(blob[pos+8:])
		qualFlag := blob[pos+12]
		pos += targRecordFixed
		if qualFlag > 1 {
			return nil, fmt.Errorf("target %d: bad quality flag %d", i, qualFlag)
		}
		if baseLen > 4*uint64(len(blob)) {
			return nil, fmt.Errorf("target %d: implausible length %d bases", i, baseLen)
		}
		packedLen := (baseLen + 3) / 4
		need := uint64(nameLen) + packedLen
		if qualFlag == 1 {
			need += baseLen
		}
		if need > uint64(len(blob)-pos) {
			return nil, fmt.Errorf("target %d: record of %d bytes exceeds section", i, need)
		}
		name := string(blob[pos : pos+int(nameLen)])
		pos += int(nameLen)
		var qual []byte
		if qualFlag == 1 {
			qual = blob[pos : pos+int(baseLen) : pos+int(baseLen)]
			pos += int(baseLen)
		}
		packed, err := dna.FromPackedBytes(blob[pos:pos+int(packedLen):pos+int(packedLen)], int(baseLen))
		if err != nil {
			return nil, fmt.Errorf("target %d (%q): %v", i, name, err)
		}
		pos += int(packedLen)
		out = append(out, seqio.Seq{Name: name, Seq: packed, Qual: qual})
	}
	if pos != len(blob) {
		return nil, fmt.Errorf("%d trailing bytes after the last target record", len(blob)-pos)
	}
	return out, nil
}
