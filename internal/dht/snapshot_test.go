package dht

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// alignedCopy copies b into a fresh 8-byte-aligned buffer, the alignment
// OpenMapped's struct views need (a .merx mapping provides 64).
func alignedCopy(b []byte) []byte {
	words := make([]uint64, (len(b)+7)/8+1) // +1 so &words[0] exists even for empty input
	out := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(b))
	copy(out, b)
	return out
}

// snapshotRoundTrip serializes a sealed index and reopens it mapped.
func snapshotRoundTrip(t *testing.T, sx *Sharded) *Sharded {
	t.Helper()
	var buf bytes.Buffer
	n, err := sx.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	m, err := OpenMapped(alignedCopy(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSnapshotRoundTrip: a mapped index must be indistinguishable from the
// sealed index it was serialized from — same lookups (lists, order, and
// counts), same single-copy flags, same stats, same exact resident size,
// same partition fingerprint —
// for every slot form: inline locations and lists (k = 21), lists behind a
// count word (a carve), and the Hi words of seeds longer than 32 bases
// (k = 51).
func TestSnapshotRoundTrip(t *testing.T) {
	const numFrags = 40
	for _, k := range []int{21, 51} {
		es := randomEntries(11, numFrags, 50, 300, k)
		sx := buildSharded(t, ShardedConfig{K: k, S: 16, Shards: 8}, es, numFrags, 4)
		sx.Seal()
		carve, err := sx.Restrict(10, 30)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []*Sharded{sx, carve} {
			m := snapshotRoundTrip(t, src)
			if m.K() != src.K() || m.Shards() != src.Shards() || !m.Sealed() {
				t.Fatalf("mapped index K=%d shards=%d sealed=%v, want K=%d shards=%d sealed", m.K(), m.Shards(), m.Sealed(), src.K(), src.Shards())
			}
			for _, e := range es {
				want, wok := src.Lookup(e.Seed)
				got, gok := m.Lookup(e.Seed)
				if wok != gok || !reflect.DeepEqual(want, got) {
					t.Fatalf("k=%d seed %v: mapped lookup %+v/%v, want %+v/%v", k, e.Seed, got, gok, want, wok)
				}
			}
			for f := 0; f < src.numFragments; f++ {
				if m.SingleCopy(f) != src.SingleCopy(f) {
					t.Fatalf("k=%d fragment %d: mapped SingleCopy %v, want %v", k, f, m.SingleCopy(f), src.SingleCopy(f))
				}
			}
			if got, want := m.Stats(), src.Stats(); got != want {
				t.Errorf("k=%d: mapped stats %+v, want %+v", k, got, want)
			}
			if got, want := m.ResidentBytes(), src.ResidentBytes(); got != want {
				t.Errorf("k=%d: mapped ResidentBytes %d, want %d", k, got, want)
			}
			got, _ := m.PartitionFingerprint(3)
			if want, _ := src.PartitionFingerprint(3); got != want {
				t.Errorf("k=%d: mapped PartitionFingerprint %d, want %d", k, got, want)
			}
		}
	}
}

// TestSnapshotMappedIsImmutable: builder and drain operations must panic on
// a mapped index exactly as they do on a sealed one.
func TestSnapshotMappedIsImmutable(t *testing.T) {
	const k, numFrags = 21, 10
	es := randomEntries(3, numFrags, 20, 100, k)
	sx := buildSharded(t, ShardedConfig{K: k, S: 16, Shards: 4}, es, numFrags, 2)
	sx.Seal()
	m := snapshotRoundTrip(t, sx)
	mustPanic(t, "NewBuilder", func() { m.NewBuilder() })
	mustPanic(t, "DrainShard", func() { m.DrainShard(0) })
	mustPanic(t, "MarkShard", func() { m.MarkShard(0) })
}

func mustPanic(t *testing.T, op string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a mapped index did not panic", op)
		}
	}()
	fn()
}

// TestWriteToRequiresSealed: an index still under construction is never
// serialized.
func TestWriteToRequiresSealed(t *testing.T) {
	const k, numFrags = 21, 10
	es := randomEntries(5, numFrags, 20, 100, k)
	sx := buildSharded(t, ShardedConfig{K: k, S: 16, Shards: 4}, es, numFrags, 2)
	if _, err := sx.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTo on an unsealed index succeeded")
	}
}

// TestOpenMappedRejectsDamage: a structurally damaged blob must error (with
// a message naming what failed), never panic. The checksummed container
// normally catches bit rot before OpenMapped runs; these are the
// format-drift defenses.
func TestOpenMappedRejectsDamage(t *testing.T) {
	const k, numFrags = 21, 10
	es := randomEntries(9, numFrags, 20, 100, k)
	sx := buildSharded(t, ShardedConfig{K: k, S: 16, Shards: 4}, es, numFrags, 2)
	sx.Seal()
	var buf bytes.Buffer
	if _, err := sx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name   string
		mangle func([]byte) []byte
		want   string // substring of the error
	}{
		{"empty", func(b []byte) []byte { return nil }, "smaller than"},
		{"truncated header", func(b []byte) []byte { return b[:32] }, "smaller than"},
		{"truncated body", func(b []byte) []byte { return b[:len(b)/2] }, ""},
		{"bad version", func(b []byte) []byte { b[0] = 99; return b }, "version"},
		{"version 1", func(b []byte) []byte { b[0] = 1; return b }, "version 1"},
		{"bad K", func(b []byte) []byte { b[4] = 0xFF; b[5] = 0xFF; return b }, "seed length"},
		{"bad shards", func(b []byte) []byte { b[8], b[9], b[10], b[11] = 0xFF, 0xFF, 0xFF, 0x7F; return b }, "shard count"},
		{"capped lists", func(b []byte) []byte { b[12] = 6; return b }, "capped"},
	}
	for _, tc := range cases {
		blob := tc.mangle(alignedCopy(good))
		m, err := OpenMapped(blob)
		if err == nil {
			t.Fatalf("%s: OpenMapped succeeded (%d shards)", tc.name, m.Shards())
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestOpenMappedRejectsFullTable: a crafted snapshot whose slot table has
// no empty slot must be rejected — lookup's linear probe terminates only on
// an empty slot or a match, so accepting it would let a lookup of an absent
// seed spin forever.
func TestOpenMappedRejectsFullTable(t *testing.T) {
	const k, numFrags = 21, 10
	es := randomEntries(13, numFrags, 40, 100, k)
	sx := buildSharded(t, ShardedConfig{K: k, S: 16, Shards: 2}, es, numFrags, 2)
	sx.Seal()
	var buf bytes.Buffer
	if _, err := sx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := alignedCopy(buf.Bytes())

	// Mark every empty slot of every shard occupied by one inline location
	// (fragment 0, offset 0), which passes every per-slot check, so only the
	// occupancy check can catch it.
	dirOff := binary.LittleEndian.Uint64(blob[32:])
	for i := 0; i < sx.Shards(); i++ {
		e := blob[dirOff+uint64(i)*snapDirEntry:]
		slotsLen := binary.LittleEndian.Uint64(e[8:])
		slotsOff := binary.LittleEndian.Uint64(e[16:])
		for j := uint64(0); j < slotsLen; j++ {
			slot := blob[slotsOff+j*FlatEntryWireBytes:]
			if binary.LittleEndian.Uint32(slot[12:]) == 0 {
				binary.LittleEndian.PutUint32(slot[8:], 0)  // a: fragment
				binary.LittleEndian.PutUint32(slot[12:], 1) // b: offset 0, one location
			}
		}
	}
	if _, err := OpenMapped(blob); err == nil || !strings.Contains(err.Error(), "no empty slot") {
		t.Fatalf("full slot table: got %v, want a 'no empty slot' rejection", err)
	}
}

// TestOpenMappedRejectsBadSlots: the version-2 slot checks — an inline
// fragment past the fragment count, a list or count word outside its arena,
// a count word below its list's length, and Hi words present for K <= 32 or
// missing for K > 32 — each refuse the blob with a message naming the fault.
func TestOpenMappedRejectsBadSlots(t *testing.T) {
	const numFrags = 12
	blobOf := func(k int) ([]byte, *Sharded) {
		es := randomEntries(9, numFrags, 60, 150, k)
		sx := buildSharded(t, ShardedConfig{K: k, S: 16, Shards: 4}, es, numFrags, 2)
		sx.Seal()
		carve, err := sx.Restrict(3, 9)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := carve.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), carve
	}
	// patchSlot finds the first slot whose b word satisfies pick and hands
	// fn the slot bytes and its shard's arena bytes.
	patchSlot := func(blob []byte, shards int, pick func(b uint32) bool, fn func(slot, arena []byte)) {
		t.Helper()
		dirOff := binary.LittleEndian.Uint64(blob[32:])
		for i := 0; i < shards; i++ {
			e := blob[dirOff+uint64(i)*snapDirEntry:]
			slotsLen, slotsOff := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
			locsLen, locsOff := binary.LittleEndian.Uint64(e[24:]), binary.LittleEndian.Uint64(e[32:])
			for j := uint64(0); j < slotsLen; j++ {
				slot := blob[slotsOff+j*FlatEntryWireBytes : slotsOff+(j+1)*FlatEntryWireBytes]
				if b := binary.LittleEndian.Uint32(slot[12:]); b != 0 && pick(b) {
					fn(slot, blob[locsOff:locsOff+locsLen*LocWireBytes])
					return
				}
			}
		}
		t.Fatal("no slot of the wanted form in the test table")
	}
	inline := func(b uint32) bool { return b&slotOne != 0 }
	counted := func(b uint32) bool { return b&slotOne == 0 && b&slotCounted != 0 }
	cases := []struct {
		name   string
		k      int
		mangle func(b []byte, shards int)
		want   string
	}{
		{"inline fragment", 21, func(b []byte, shards int) {
			patchSlot(b, shards, inline, func(slot, _ []byte) { binary.LittleEndian.PutUint32(slot[8:], 1<<20) })
		}, "fragment"},
		{"list past arena", 21, func(b []byte, shards int) {
			patchSlot(b, shards, counted, func(slot, arena []byte) {
				binary.LittleEndian.PutUint32(slot[8:], uint32(len(arena)/LocWireBytes))
			})
		}, "outside arena"},
		{"empty list", 21, func(b []byte, shards int) {
			patchSlot(b, shards, counted, func(slot, _ []byte) { binary.LittleEndian.PutUint32(slot[12:], slotCounted) })
		}, "outside arena"},
		{"count word below list", 21, func(b []byte, shards int) {
			patchSlot(b, shards, counted, func(slot, arena []byte) {
				a := binary.LittleEndian.Uint32(slot[8:])
				binary.LittleEndian.PutUint32(arena[a*LocWireBytes+4:], 0)
			})
		}, "count word"},
		{"Hi words for K <= 32", 21, func(b []byte, _ int) {
			dirOff := binary.LittleEndian.Uint64(b[32:])
			binary.LittleEndian.PutUint64(b[dirOff+40:], snapHeaderSize)
		}, "Hi words"},
		{"Hi words missing for K > 32", 51, func(b []byte, _ int) {
			dirOff := binary.LittleEndian.Uint64(b[32:])
			binary.LittleEndian.PutUint64(b[dirOff+40:], uint64(len(b)))
		}, "Hi words"},
	}
	for _, tc := range cases {
		good, sx := blobOf(tc.k)
		if _, err := OpenMapped(alignedCopy(good)); err != nil {
			t.Fatalf("%s: unmangled blob refused: %v", tc.name, err)
		}
		blob := alignedCopy(good)
		tc.mangle(blob, sx.Shards())
		if _, err := OpenMapped(blob); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestFuzzCorpusVersions: the corpus's valid_snapshot is a version-2 table
// that opens, and its v1_snapshot — the 32-byte-slot layout — is refused
// with ErrTableVersion, the error loaders report as incompatible.
func TestFuzzCorpusVersions(t *testing.T) {
	for _, c := range []struct {
		file    string
		version uint32
		want    error
	}{
		{"valid_snapshot", snapVersion, nil},
		{"v1_snapshot", 1, ErrTableVersion},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzOpenMapped", c.file))
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		lit = strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")")
		blob, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if v := binary.LittleEndian.Uint32([]byte(blob)); v != c.version {
			t.Fatalf("%s holds version %d, want %d", c.file, v, c.version)
		}
		if _, err := OpenMapped(alignedCopy([]byte(blob))); !errors.Is(err, c.want) {
			t.Errorf("%s: OpenMapped error %v, want %v", c.file, err, c.want)
		}
	}
}
