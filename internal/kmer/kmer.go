// Package kmer implements fixed-length DNA seeds ("k-mers", the paper's
// seeds) for seed lengths up to 64, and the djb2 hash the paper uses for its
// seed-to-processor map.
//
// A target sequence of length L contains L-k+1 distinct seed positions
// (§II-A); Extract enumerates them. Seeds are value types packed two bits
// per base into a [2]uint64 so they can be stored directly in hash-table
// entries and shipped between simulated processors without indirection.
package kmer

import (
	"fmt"

	"github.com/lbl-repro/meraligner/internal/dna"
)

// MaxK is the largest supported seed length; 2 bits x 64 bases fills the
// 128-bit payload. The paper uses k=51 for human/wheat and k=19 for E. coli.
const MaxK = 64

// Kmer is a packed seed of up to MaxK bases. Base 0 occupies the two least
// significant bits of Lo; bases 32..63 continue in Hi. Length is carried
// externally (by the index that owns the seeds), keeping the value 16 bytes.
type Kmer struct {
	Lo, Hi uint64
}

// FromPacked extracts the k-length seed starting at offset off of sequence p.
func FromPacked(p dna.Packed, off, k int) Kmer {
	if k <= 0 || k > MaxK {
		panic(fmt.Sprintf("kmer: k=%d out of range (1..%d)", k, MaxK))
	}
	if off < 0 || off+k > p.Len() {
		panic(fmt.Sprintf("kmer: seed [%d,%d) out of sequence of %d bases", off, off+k, p.Len()))
	}
	if k <= 32 {
		return Kmer{Lo: p.Word(off) & lowBases(k)}
	}
	return Kmer{Lo: p.Word(off), Hi: p.Word(off+32) & lowBases(k-32)}
}

// lowBases masks the n low bases (1 <= n <= 32) of a word.
func lowBases(n int) uint64 { return ^uint64(0) >> (64 - 2*uint(n)) }

// FromString parses a seed from ACGT text of length <= MaxK.
func FromString(s string) (Kmer, error) {
	if len(s) > MaxK {
		return Kmer{}, fmt.Errorf("kmer: length %d exceeds max %d", len(s), MaxK)
	}
	p, err := dna.Pack(s)
	if err != nil {
		return Kmer{}, err
	}
	return FromPacked(p, 0, len(s)), nil
}

// MustFromString is FromString that panics on error, for tests and literals.
func MustFromString(s string) Kmer {
	km, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return km
}

// ReverseComplement returns the reverse complement of a k-length seed, in a
// few word operations: for k <= 32 one reversed word; beyond, base i of the
// result is the complement of base k-1-i, so Hi's k-32 bases reversed come
// first and Lo's 32 reversed follow, straddling the word boundary.
func (k Kmer) ReverseComplement(klen int) Kmer {
	if klen <= 32 {
		return Kmer{Lo: dna.ReverseComplementWord(k.Lo, klen)}
	}
	h := uint(klen - 32)
	lo := dna.ReverseComplementWord(k.Lo, 32)
	return Kmer{Lo: dna.ReverseComplementWord(k.Hi, klen-32) | lo<<(2*h), Hi: lo >> (64 - 2*h)}
}

// Less orders seeds lexicographically on their packed representation.
func (k Kmer) Less(o Kmer) bool {
	if k.Hi != o.Hi {
		// Hi holds the later bases; for a pure total order (used for
		// canonicalization and map sharding) any consistent order works,
		// but we compare base-by-base significance: later bases are more
		// significant in (Hi,Lo) only if we define it so. Use (Hi,Lo).
		return k.Hi < o.Hi
	}
	return k.Lo < o.Lo
}

// Canonical returns the lexicographically smaller (by Less) of the seed and
// its reverse complement, plus whether the reverse complement was chosen.
// Assemblers index canonical seeds so a read matches either strand.
func (k Kmer) Canonical(klen int) (Kmer, bool) {
	rc := k.ReverseComplement(klen)
	if rc.Less(k) {
		return rc, true
	}
	return k, false
}

// Hash is the djb2 hash over the seed's packed bytes — the same function the
// paper credits for its near-perfect distribution of distinct seeds across
// processors (§VI-C1).
//
// It is djb2 over the 16 little-endian bytes of Lo then Hi, in closed form:
// unrolled, the chain h = h*33 + b is 5381·33^16 + half(Lo)·33^8 + half(Hi)
// mod 2^64, where half folds one word's bytes with weights 33^7 .. 33^0.
// The two halves are independent, so the hash costs a few multiplies of
// latency instead of sixteen dependent multiply-adds.
func (k Kmer) Hash() uint64 {
	const (
		seed16 = 0x22491152bdcb7f05 // 5381·33^16 mod 2^64
		pow8   = 1406408618241      // 33^8
	)
	return seed16 + djb2Half(k.Lo)*pow8 + djb2Half(k.Hi)
}

// djb2Half returns Σ byte_i(x)·33^(7-i) for the little-endian bytes of x: the
// djb2 chain over those 8 bytes from h = 0. Neighbouring bytes are folded in
// SIMD-within-a-register lanes — byte pairs in 16-bit lanes (b·33 + b' <
// 2^14), then pair pairs in 32-bit lanes (p·33^2 + p' < 2^24) — so no lane
// carries into the next.
func djb2Half(x uint64) uint64 {
	const m8, m16 = 0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF
	p := (x&m8)*33 + (x>>8)&m8
	q := (p&m16)*(33*33) + (p>>16)&m16
	return (q&0xFFFFFFFF)*(33*33*33*33) + q>>32
}

// Djb2String is the reference djb2 over raw bytes, exposed for tests and for
// hashing non-seed payloads (e.g. read names) consistently with the paper.
func Djb2String(b []byte) uint64 {
	h := uint64(5381)
	for _, c := range b {
		h = h*33 + uint64(c)
	}
	return h
}

// Extract appends every seed of length k in p, in order of offset, to dst
// and returns it. A sequence shorter than k yields no seeds.
func Extract(p dna.Packed, k int, dst []Kmer) []Kmer {
	n := p.Len() - k + 1
	if n <= 0 {
		return dst
	}
	if k <= 32 {
		// Rolling extraction: maintain the packed window in one word.
		mask := lowBases(k)
		w := FromPacked(p, 0, k).Lo
		dst = append(dst, Kmer{Lo: w})
		for off := 1; off < n; off++ {
			w = (w >> 2) | uint64(p.CodeAt(off+k-1))<<uint(2*(k-1))
			w &= mask
			dst = append(dst, Kmer{Lo: w})
		}
		return dst
	}
	for off := 0; off < n; off++ {
		dst = append(dst, FromPacked(p, off, k))
	}
	return dst
}

// Count returns the number of seeds of length k in a sequence of length n:
// n-k+1, or 0 when the sequence is shorter than k.
func Count(n, k int) int {
	if n < k {
		return 0
	}
	return n - k + 1
}

// PackedBytes returns the number of bytes a k-length seed occupies on the
// wire: ceil(2k/8). Used by the cost model for seed transfers.
func PackedBytes(k int) int { return (2*k + 7) / 8 }
