package dht

import (
	"bytes"
	"testing"

	"github.com/lbl-repro/meraligner/internal/kmer"
)

// fuzzSeedBlob builds a small sealed index and serializes it: the valid
// snapshot every corpus mutation starts from.
func fuzzSeedBlob(f *testing.F) []byte {
	f.Helper()
	const k, numFrags = 21, 8
	es := randomEntries(7, numFrags, 12, 40, k)
	sx, err := NewSharded(ShardedConfig{K: k, S: 16, Shards: 4}, numFrags, len(es), 1)
	if err != nil {
		f.Fatal(err)
	}
	b := sx.NewBuilder()
	for _, e := range es {
		b.Add(e)
	}
	b.Flush()
	for s := 0; s < sx.Shards(); s++ {
		sx.DrainShard(s)
	}
	for s := 0; s < sx.Shards(); s++ {
		sx.MarkShard(s)
	}
	sx.Seal()
	var buf bytes.Buffer
	if _, err := sx.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzOpenMapped: arbitrary DHTS-section bytes must either parse into a
// servable table or fail with an error — never panic, never index out of
// bounds, and never hand back a table whose read paths can walk outside the
// blob. Input alignment is a documented precondition (merx maps sections
// 64-byte aligned), so the harness re-aligns the fuzzer's bytes first.
func FuzzOpenMapped(f *testing.F) {
	seed := fuzzSeedBlob(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:snapHeaderSize])
	f.Add([]byte{})
	// Flip one byte in each header field so the fuzzer starts next to the
	// validation boundaries (version, k, shards, counts, offsets).
	for off := 0; off < snapHeaderSize && off < len(seed); off += 4 {
		mut := append([]byte(nil), seed...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := OpenMapped(alignedCopy(data))
		if err != nil {
			return
		}
		// A blob that parses must be fully servable. Stats walks every slot
		// and every location list; lookups probe the hash path. Both must
		// stay in bounds for whatever the fuzzer got past validation.
		if !m.Sealed() {
			t.Fatal("OpenMapped returned an unsealed index")
		}
		st := m.Stats()
		if st.DistinctSeeds < 0 || st.TotalLocs < 0 {
			t.Fatalf("negative stats from mapped table: %+v", st)
		}
		if m.ResidentBytes() < 0 {
			t.Fatal("negative ResidentBytes from mapped table")
		}
		probes := []kmer.Kmer{
			{},
			{Lo: 0x5555555555555555},
			{Lo: ^uint64(0), Hi: ^uint64(0)},
		}
		if len(data) >= 16 {
			probes = append(probes, kmer.Kmer{
				Lo: le64(data[0:]),
				Hi: le64(data[8:]),
			})
		}
		for _, km := range probes {
			res, ok := m.Lookup(km)
			if !ok {
				continue
			}
			if int(res.Count) < res.Len() {
				t.Fatalf("lookup count %d < %d returned locations", res.Count, res.Len())
			}
			for i := range res.Len() {
				_ = m.SingleCopy(int(res.At(i).Frag))
			}
		}
	})
}

// le64 decodes little-endian without pulling encoding/binary into the fuzz
// hot loop's corpus-visible surface.
func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
