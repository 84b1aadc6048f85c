package dht

import (
	"bytes"
	"encoding/binary"
	"reflect"
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
// counts), same single-copy flags, same stats, same exact resident size.
func TestSnapshotRoundTrip(t *testing.T) {
	const k, numFrags = 21, 40
	es := randomEntries(11, numFrags, 50, 300, k)
	sx := buildSharded(t, ShardedConfig{K: k, S: 16, Shards: 8}, es, numFrags, 4)
	sx.Seal()
	m := snapshotRoundTrip(t, sx)

	if m.K() != sx.K() || m.Shards() != sx.Shards() || !m.Sealed() {
		t.Fatalf("mapped index K=%d shards=%d sealed=%v, want K=%d shards=%d sealed", m.K(), m.Shards(), m.Sealed(), sx.K(), sx.Shards())
	}
	for _, e := range es {
		want, wok := sx.Lookup(e.Seed)
		got, gok := m.Lookup(e.Seed)
		if wok != gok || want.Count != got.Count || !reflect.DeepEqual(want.Locs, got.Locs) {
			t.Fatalf("seed %v: mapped lookup %+v/%v, want %+v/%v", e.Seed, got, gok, want, wok)
		}
	}
	for f := 0; f < numFrags; f++ {
		if m.SingleCopy(f) != sx.SingleCopy(f) {
			t.Fatalf("fragment %d: mapped SingleCopy %v, want %v", f, m.SingleCopy(f), sx.SingleCopy(f))
		}
	}
	if got, want := m.Stats(), sx.Stats(); got != want {
		t.Errorf("mapped stats %+v, want %+v", got, want)
	}
	if got, want := m.ResidentBytes(), sx.ResidentBytes(); got != want {
		t.Errorf("mapped ResidentBytes %d, want %d", got, want)
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

	// Mark every empty slot of every shard occupied (n=1, off=0); each
	// shard stores at least one location here, so the per-slot arena range
	// check still passes and only the occupancy check can catch it.
	dirOff := binary.LittleEndian.Uint64(blob[32:])
	for i := 0; i < sx.Shards(); i++ {
		e := blob[dirOff+uint64(i)*snapDirEntry:]
		slotsLen := binary.LittleEndian.Uint64(e[8:])
		slotsOff := binary.LittleEndian.Uint64(e[16:])
		if binary.LittleEndian.Uint64(e[24:]) == 0 {
			t.Fatalf("shard %d stores no locations; pick a denser test workload", i)
		}
		for j := uint64(0); j < slotsLen; j++ {
			slot := blob[slotsOff+j*FlatEntryWireBytes:]
			if binary.LittleEndian.Uint32(slot[20:]) == 0 {
				binary.LittleEndian.PutUint32(slot[16:], 0) // off
				binary.LittleEndian.PutUint32(slot[20:], 1) // n
				binary.LittleEndian.PutUint32(slot[24:], 1) // cnt
			}
		}
	}
	if _, err := OpenMapped(blob); err == nil || !strings.Contains(err.Error(), "no empty slot") {
		t.Fatalf("full slot table: got %v, want a 'no empty slot' rejection", err)
	}
}
