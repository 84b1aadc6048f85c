package dht

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"unsafe"

	"github.com/lbl-repro/meraligner/internal/kmer"
)

// This file serializes the sealed index. The flat table (flat.go) is
// already a serialization-ready memory image — per-shard slot arrays of
// fixed-size flatSlot structs over contiguous Loc arenas — so WriteTo dumps
// those arrays verbatim and OpenMapped reconstructs a sealed Sharded whose
// slices alias the snapshot bytes directly: zero copies, zero rehashing,
// and N processes mapping one snapshot share a single physical copy of the
// table through the page cache.
//
// The blob layout (the "DHTS" section payload of a .merx file; every
// integer little-endian, every array 64-byte aligned relative to the blob
// start) is specified field by field in docs/INDEX_FORMAT.md:
//
//	header (64 B): version, K, shards, reserved (0), numFragments,
//	               singleCopyOff, dirOff
//	singleCopy:    numFragments x i32
//	directory:     shards x 48 B {shift, slotsLen, slotsOff, locsLen, locsOff, hiOff}
//	per shard:     slots = slotsLen x flatSlot (16 B), locs = locsLen x Loc (12 B),
//	               hi = slotsLen x u64 when K > 32
//
// Raw struct dumps tie the format to the compiled struct layout, so the
// wire sizes are pinned by the exported *WireBytes constants and asserted
// at compile time below; a build whose layout differs cannot read or write
// snapshots silently (merx.Layout carries the fingerprint in the header).

// Wire sizes of the raw structs in a snapshot, asserted at compile time to
// match the in-memory layout this build serializes.
const (
	// FlatEntryWireBytes is the size of one sealed slot on disk: seed Lo
	// u64, then the u32 words a and b (flat.go gives their encoding).
	FlatEntryWireBytes = 16
	// LocWireBytes is the size of one location on disk: fragment i32,
	// offset i32, strand u8, 3 B padding.
	LocWireBytes = 12
)

// Compile-time layout assertions: index out of range if a struct size ever
// drifts from its documented wire size.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(flatSlot{})-FlatEntryWireBytes]
	_ = [1]struct{}{}[unsafe.Sizeof(Loc{})-LocWireBytes]
)

// ErrCappedTable is matched (via errors.Is) by OpenMapped's refusal of a
// table whose header word 12 is nonzero: it was written by a build that
// capped location lists, so it cannot answer every MaxSeedHits threshold.
var ErrCappedTable = errors.New("dht: snapshot table stores capped location lists")

// ErrTableVersion is matched (via errors.Is) by OpenMapped's refusal of a
// table whose version word is not the one this build reads: the table is
// intact but in a layout this build does not decode.
var ErrTableVersion = errors.New("dht: snapshot table version not readable by this build")

const (
	snapVersion    = 2
	snapHeaderSize = 64
	snapDirEntry   = 48
	snapAlign      = 64
	maxSnapShards  = 1 << 22 // sanity bound on the shard count of a snapshot
)

// rawBytes views a slice's backing array as bytes (struct dumps are only
// meaningful on the little-endian layouts the snapshot format requires).
func rawBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// viewSlice reinterprets count elements of T over b, verifying bounds and
// the natural alignment of T.
func viewSlice[T any](b []byte, count int) ([]T, error) {
	var zero T
	size, al := int(unsafe.Sizeof(zero)), uintptr(unsafe.Alignof(zero))
	if count == 0 {
		return nil, nil
	}
	if count < 0 || len(b)/size < count {
		return nil, fmt.Errorf("array of %d x %d bytes exceeds the %d available", count, size, len(b))
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%al != 0 {
		return nil, fmt.Errorf("array base misaligned for %d-byte alignment", al)
	}
	return unsafe.Slice((*T)(p), count), nil
}

func alignUp(x int64, a int64) int64 { return (x + a - 1) &^ (a - 1) }

// WriteTo serializes the sealed index as one self-contained blob (the
// "DHTS" section of a .merx snapshot). The index must be sealed: only the
// flat compact form is serialized. Offsets within the blob are relative to
// its start; the container is responsible for placing the blob at a
// 64-byte-aligned file offset so OpenMapped's zero-copy views stay aligned.
func (sx *Sharded) WriteTo(w io.Writer) (int64, error) {
	if !sx.sealed.Load() {
		return 0, fmt.Errorf("dht: WriteTo on an unsealed index")
	}
	shards := len(sx.flat)

	// Lay out the blob: header, singleCopy flags, directory, then each
	// shard's slot and location arrays, all 64-byte aligned.
	singleCopyOff := int64(snapHeaderSize)
	dirOff := alignUp(singleCopyOff+int64(len(sx.singleCopy))*4, snapAlign)
	off := alignUp(dirOff+int64(shards)*snapDirEntry, snapAlign)
	dir := make([]byte, shards*snapDirEntry)
	for i := range sx.flat {
		fs := &sx.flat[i]
		slotsOff := off
		off = alignUp(off+int64(len(fs.slots))*FlatEntryWireBytes, snapAlign)
		locsOff := off
		off = alignUp(off+int64(len(fs.locs))*LocWireBytes, snapAlign)
		hiOff := int64(0)
		if fs.hi != nil {
			hiOff = off
			off = alignUp(off+int64(len(fs.hi))*8, snapAlign)
		}
		e := dir[i*snapDirEntry:]
		binary.LittleEndian.PutUint32(e[0:], uint32(fs.shift))
		binary.LittleEndian.PutUint64(e[8:], uint64(len(fs.slots)))
		binary.LittleEndian.PutUint64(e[16:], uint64(slotsOff))
		binary.LittleEndian.PutUint64(e[24:], uint64(len(fs.locs)))
		binary.LittleEndian.PutUint64(e[32:], uint64(locsOff))
		binary.LittleEndian.PutUint64(e[40:], uint64(hiOff))
	}

	var hdr [snapHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], snapVersion)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(sx.cfg.K))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(shards))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(sx.numFragments))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(singleCopyOff))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(dirOff))

	cw := &countWriter{w: w}
	if _, err := cw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	if _, err := cw.Write(rawBytes(sx.singleCopy)); err != nil {
		return cw.n, err
	}
	if err := cw.padTo(dirOff); err != nil {
		return cw.n, err
	}
	if _, err := cw.Write(dir); err != nil {
		return cw.n, err
	}
	for i := range sx.flat {
		fs := &sx.flat[i]
		e := dir[i*snapDirEntry:]
		if err := cw.padTo(int64(binary.LittleEndian.Uint64(e[16:]))); err != nil {
			return cw.n, err
		}
		if _, err := cw.Write(rawBytes(fs.slots)); err != nil {
			return cw.n, err
		}
		if err := cw.padTo(int64(binary.LittleEndian.Uint64(e[32:]))); err != nil {
			return cw.n, err
		}
		if _, err := cw.Write(rawBytes(fs.locs)); err != nil {
			return cw.n, err
		}
		if fs.hi == nil {
			continue
		}
		if err := cw.padTo(int64(binary.LittleEndian.Uint64(e[40:]))); err != nil {
			return cw.n, err
		}
		if _, err := cw.Write(rawBytes(fs.hi)); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// countWriter tracks the blob offset and pads to absolute positions.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countWriter) padTo(off int64) error {
	if off < c.n {
		return fmt.Errorf("dht: snapshot layout error: writing at %d past target offset %d", c.n, off)
	}
	if off == c.n {
		return nil
	}
	_, err := c.Write(make([]byte, off-c.n))
	return err
}

// OpenMapped reconstructs a sealed index over a snapshot blob produced by
// WriteTo, without copying: the slot arrays, Hi words, location arenas,
// and single-copy flags alias blob directly, so blob must stay valid (and
// unmodified — it is typically a read-only mmap) for the index's lifetime.
// Every offset and length is bounds-checked before the aliasing views are
// taken; a damaged blob yields an error, never a panic. Checksum
// verification is the container's job (package merx) — by the time a .merx
// section reaches OpenMapped its bytes are already validated, so failures
// here mean format drift rather than bit rot.
func OpenMapped(blob []byte) (*Sharded, error) {
	if len(blob) < snapHeaderSize {
		return nil, fmt.Errorf("dht: snapshot blob of %d bytes is smaller than the %d-byte header", len(blob), snapHeaderSize)
	}
	if v := binary.LittleEndian.Uint32(blob[0:]); v != snapVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads version %d)", ErrTableVersion, v, snapVersion)
	}
	k := int(binary.LittleEndian.Uint32(blob[4:]))
	shards := int(binary.LittleEndian.Uint32(blob[8:]))
	numFragments := int64(binary.LittleEndian.Uint64(blob[16:]))
	singleCopyOff := int64(binary.LittleEndian.Uint64(blob[24:]))
	dirOff := int64(binary.LittleEndian.Uint64(blob[32:]))
	if k <= 0 || k > kmer.MaxK {
		return nil, fmt.Errorf("dht: snapshot seed length %d out of range 1..%d", k, kmer.MaxK)
	}
	if capped := binary.LittleEndian.Uint32(blob[12:]); capped != 0 {
		return nil, fmt.Errorf("%w (header word 12 is %d)", ErrCappedTable, capped)
	}
	if shards <= 0 || shards > maxSnapShards {
		return nil, fmt.Errorf("dht: snapshot shard count %d out of range", shards)
	}
	if numFragments < 0 || numFragments > int64(len(blob)) {
		return nil, fmt.Errorf("dht: snapshot fragment count %d out of range", numFragments)
	}
	singleCopy, err := viewAt[int32](blob, singleCopyOff, int(numFragments))
	if err != nil {
		return nil, fmt.Errorf("dht: snapshot single-copy flags: %w", err)
	}
	dirBytes, err := sliceAt(blob, dirOff, int64(shards)*snapDirEntry)
	if err != nil {
		return nil, fmt.Errorf("dht: snapshot shard directory: %w", err)
	}

	sx := &Sharded{
		cfg:          ShardedConfig{K: k, Shards: shards},
		flat:         make([]flatShard, shards),
		singleCopy:   singleCopy,
		numFragments: int(numFragments),
	}
	for i := 0; i < shards; i++ {
		e := dirBytes[i*snapDirEntry:]
		shift := uint(binary.LittleEndian.Uint32(e[0:]))
		slotsLen := int64(binary.LittleEndian.Uint64(e[8:]))
		slotsOff := int64(binary.LittleEndian.Uint64(e[16:]))
		locsLen := int64(binary.LittleEndian.Uint64(e[24:]))
		locsOff := int64(binary.LittleEndian.Uint64(e[32:]))
		hiOff := int64(binary.LittleEndian.Uint64(e[40:]))
		if slotsLen <= 0 || slotsLen&(slotsLen-1) != 0 {
			return nil, fmt.Errorf("dht: snapshot shard %d: slot count %d is not a power of two", i, slotsLen)
		}
		if want := uint(64 - bits.Len64(uint64(slotsLen)-1)); shift != want {
			return nil, fmt.Errorf("dht: snapshot shard %d: shift %d does not match %d slots", i, shift, slotsLen)
		}
		slots, err := viewAt[flatSlot](blob, slotsOff, int(slotsLen))
		if err != nil {
			return nil, fmt.Errorf("dht: snapshot shard %d slots: %w", i, err)
		}
		locs, err := viewAt[Loc](blob, locsOff, int(locsLen))
		if err != nil {
			return nil, fmt.Errorf("dht: snapshot shard %d locations: %w", i, err)
		}
		var hi []uint64
		if k > 32 {
			if hi, err = viewAt[uint64](blob, hiOff, int(slotsLen)); err != nil {
				return nil, fmt.Errorf("dht: snapshot shard %d seed Hi words: %w", i, err)
			}
		} else if hiOff != 0 {
			return nil, fmt.Errorf("dht: snapshot shard %d: seed Hi words at %d for K = %d", i, hiOff, k)
		}
		// Every slot's fragment, list and count word must stay inside this
		// shard's arena so sealed lookups can decode them unchecked — and
		// at least one slot must be empty, because lookup's linear probe
		// terminates only on an empty slot or a seed match (newFlatShard
		// guarantees load <= 0.75; a crafted full table would make lookups of
		// absent seeds spin forever).
		occupied, stored := int64(0), int64(0)
		for j := range slots {
			a, b := int64(slots[j].a), slots[j].b
			switch {
			case b == 0:
				continue
			case b&slotOne != 0:
				if a >= numFragments {
					return nil, fmt.Errorf("dht: snapshot shard %d slot %d: fragment %d outside 0..%d", i, j, a, numFragments-1)
				}
				stored++
			default:
				n, start := int64(b>>2), a
				if b&slotCounted != 0 {
					start++ // past the count word
				}
				if n == 0 || start+n > locsLen {
					return nil, fmt.Errorf("dht: snapshot shard %d slot %d: list of %d at %d outside arena of %d", i, j, n, start, locsLen)
				}
				if start > a && int64(locs[a].Off) < n {
					return nil, fmt.Errorf("dht: snapshot shard %d slot %d: count word %d below the list's %d locations", i, j, locs[a].Off, n)
				}
				stored += n
			}
			occupied++
		}
		if occupied == slotsLen {
			return nil, fmt.Errorf("dht: snapshot shard %d: table has no empty slot (%d of %d occupied)", i, occupied, slotsLen)
		}
		// Fragment IDs feed array indexing downstream (SingleCopy, the
		// aligner's fragment->target resolution), so a crafted arena must
		// not smuggle one past the open-time check. A count word's fragment
		// field is zero, so the same check covers it.
		for j := range locs {
			if f := int64(locs[j].Frag); f < 0 || f >= numFragments {
				return nil, fmt.Errorf("dht: snapshot shard %d location %d: fragment %d outside 0..%d", i, j, locs[j].Frag, numFragments-1)
			}
		}
		sx.flat[i] = flatShard{shift: shift, slots: slots, hi: hi, locs: locs, stored: int(stored)}
	}
	sx.sealed.Store(true)
	return sx, nil
}

// sliceAt bounds-checks blob[off:off+n].
func sliceAt(blob []byte, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off > int64(len(blob)) || n > int64(len(blob))-off {
		return nil, fmt.Errorf("range [%d,%d) outside blob of %d bytes", off, off+n, len(blob))
	}
	return blob[off : off+n], nil
}

// viewAt takes a bounds- and alignment-checked struct view at off.
func viewAt[T any](blob []byte, off int64, count int) ([]T, error) {
	var zero T
	b, err := sliceAt(blob, off, int64(count)*int64(unsafe.Sizeof(zero)))
	if err != nil {
		return nil, err
	}
	return viewSlice[T](b, count)
}
