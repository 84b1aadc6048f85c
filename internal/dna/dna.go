// Package dna implements two-bit packed DNA sequences.
//
// The paper (§V-C) compresses DNA from text to a binary two-bits-per-base
// representation, reducing both the memory footprint and the communication
// bandwidth of every seed or sequence transfer by 4x. This package is that
// compression library: packing, unpacking, slicing, reverse complement and
// comparison all operate directly on the packed form.
package dna

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
)

// Base codes. Two bits per base, in the conventional lexicographic order so
// that packed comparison matches string comparison of ACGT text.
const (
	A = 0
	C = 1
	G = 2
	T = 3
)

// ErrInvalidBase is returned when a textual sequence contains a character
// outside {A,C,G,T,a,c,g,t}. The paper's pipeline drops reads containing Ns
// before alignment; we surface the condition to the caller instead.
var ErrInvalidBase = errors.New("dna: invalid base")

// baseToCode maps ASCII to the 2-bit code, 0xFF marking invalid characters.
var baseToCode [256]byte

// codeToBase maps the 2-bit code back to ASCII.
var codeToBase = [4]byte{'A', 'C', 'G', 'T'}

// complement of each 2-bit code: A<->T, C<->G. With this encoding the
// complement is the bitwise NOT of the code (3 - code).
var complement = [4]byte{T, G, C, A}

// Unpacking tables: entry b holds the four bases of packed byte b, one per
// byte of a little-endian word, so one table load and one 4-byte store
// unpack four bases. codeQuads holds their codes, baseQuads their ASCII,
// and rcBaseQuads the ASCII of their complements in reverse order (byte 0
// is the complement of base 3) — a packed byte's share of a reverse
// complement.
var codeQuads, baseQuads, rcBaseQuads [256]uint32

func init() {
	for i := range baseToCode {
		baseToCode[i] = 0xFF
	}
	baseToCode['A'], baseToCode['a'] = A, A
	baseToCode['C'], baseToCode['c'] = C, C
	baseToCode['G'], baseToCode['g'] = G, G
	baseToCode['T'], baseToCode['t'] = T, T
	for b := range 256 {
		for j := range 4 {
			c := byte(b>>(2*j)) & 3
			codeQuads[b] |= uint32(c) << (8 * j)
			baseQuads[b] |= uint32(codeToBase[c]) << (8 * j)
			rcBaseQuads[b] |= uint32(codeToBase[complement[c]]) << (8 * (3 - j))
		}
	}
}

// CodeOf returns the 2-bit code of an ASCII base, or 0xFF if invalid.
func CodeOf(b byte) byte { return baseToCode[b] }

// BaseOf returns the ASCII base of a 2-bit code.
func BaseOf(code byte) byte { return codeToBase[code&3] }

// ComplementCode returns the complement of a 2-bit base code.
func ComplementCode(code byte) byte { return complement[code&3] }

// Packed is an immutable DNA sequence stored at two bits per base, four bases
// per byte, base i occupying bits (2*(i%4)) .. (2*(i%4)+1) of byte i/4.
type Packed struct {
	data []byte
	n    int
}

// Pack converts a textual sequence into packed form.
func Pack(s string) (Packed, error) {
	return PackBytes([]byte(s))
}

// PackBytes converts an ASCII sequence into packed form.
func PackBytes(s []byte) (Packed, error) {
	p := Packed{data: make([]byte, (len(s)+3)/4), n: len(s)}
	for i, b := range s {
		c := baseToCode[b]
		if c == 0xFF {
			return Packed{}, fmt.Errorf("%w: %q at position %d", ErrInvalidBase, b, i)
		}
		p.data[i>>2] |= c << uint((i&3)<<1)
	}
	return p, nil
}

// MustPack is Pack for known-valid inputs; it panics on invalid bases.
func MustPack(s string) Packed {
	p, err := Pack(s)
	if err != nil {
		panic(err)
	}
	return p
}

// FromPackedBytes wraps raw already-packed data (the layout documented on
// Packed: four bases per byte, base i in bits 2*(i%4)..2*(i%4)+1 of byte
// i/4) as a Packed of n bases WITHOUT copying — the caller promises data
// stays valid and unmodified for the sequence's lifetime. This is the
// zero-copy path for sequences mapped from an index snapshot. It verifies
// that data has exactly the packed length for n bases and that the unused
// tail bits of the last byte are zero (the invariant every other
// constructor maintains, which the byte-at-a-time comparison fast paths
// rely on).
func FromPackedBytes(data []byte, n int) (Packed, error) {
	if n < 0 || len(data) != (n+3)/4 {
		return Packed{}, fmt.Errorf("dna: %d packed bytes cannot hold exactly %d bases", len(data), n)
	}
	if rem := n & 3; rem != 0 && data[len(data)-1]>>uint(rem*2) != 0 {
		return Packed{}, fmt.Errorf("dna: nonzero tail bits beyond base %d", n)
	}
	return Packed{data: data, n: n}, nil
}

// FromCodes builds a packed sequence from a slice of 2-bit codes.
func FromCodes(codes []byte) Packed {
	p := Packed{data: make([]byte, (len(codes)+3)/4), n: len(codes)}
	for i, c := range codes {
		p.data[i>>2] |= (c & 3) << uint((i&3)<<1)
	}
	return p
}

// Len returns the number of bases.
func (p Packed) Len() int { return p.n }

// Bytes returns the underlying packed bytes (shared, do not modify).
func (p Packed) Bytes() []byte { return p.data }

// PackedSize returns the storage footprint in bytes: the 4x reduction of
// §V-C relative to one byte per base.
func (p Packed) PackedSize() int { return len(p.data) }

// CodeAt returns the 2-bit code of base i.
func (p Packed) CodeAt(i int) byte {
	return (p.data[i>>2] >> uint((i&3)<<1)) & 3
}

// BaseAt returns the ASCII base at position i.
func (p Packed) BaseAt(i int) byte { return codeToBase[p.CodeAt(i)] }

// String unpacks the sequence to ACGT text.
func (p Packed) String() string {
	var sb strings.Builder
	sb.Grow(p.n)
	for i := 0; i < p.n; i++ {
		sb.WriteByte(p.BaseAt(i))
	}
	return sb.String()
}

// Codes unpacks the sequence into a fresh slice of 2-bit codes.
func (p Packed) Codes() []byte { return p.AppendCodes(make([]byte, 0, p.n)) }

// AppendCodes appends the 2-bit codes of p to dst and returns it.
func (p Packed) AppendCodes(dst []byte) []byte { return p.appendQuads(dst, &codeQuads) }

// AppendBases appends the ASCII bases of p to dst and returns it: the
// String text without the allocation.
func (p Packed) AppendBases(dst []byte) []byte { return p.appendQuads(dst, &baseQuads) }

// appendQuads appends one table word per packed byte, four bases at a time,
// and the last byte's leading bases one by one.
func (p Packed) appendQuads(dst []byte, tab *[256]uint32) []byte {
	n, full := len(dst), p.n>>2
	dst = slices.Grow(dst, p.n)[:n+p.n]
	out := dst[n:]
	for i, b := range p.data[:full] {
		binary.LittleEndian.PutUint32(out[4*i:], tab[b])
	}
	if rem := p.n & 3; rem != 0 {
		w := tab[p.data[full]]
		for j := range rem {
			out[4*full+j] = byte(w >> (8 * j))
		}
	}
	return dst
}

// AppendRevCompBases appends the ASCII bases of p's reverse complement to
// dst and returns it, without building the reverse complement: the last
// packed byte's leading bases first, then every full byte from the back.
func (p Packed) AppendRevCompBases(dst []byte) []byte {
	n, full, rem := len(dst), p.n>>2, p.n&3
	dst = slices.Grow(dst, p.n)[:n+p.n]
	out := dst[n:]
	if rem != 0 {
		w := rcBaseQuads[p.data[full]]
		for j := range rem {
			out[j] = byte(w >> (8 * (3 - (rem - 1 - j))))
		}
		out = out[rem:]
	}
	for i := range full {
		binary.LittleEndian.PutUint32(out[4*i:], rcBaseQuads[p.data[full-1-i]])
	}
	return dst
}

// Slice returns the packed subsequence [from, to). It copies, so the result
// is independent of the receiver; from must be <= to and within bounds.
func (p Packed) Slice(from, to int) Packed {
	if from < 0 || to > p.n || from > to {
		panic(fmt.Sprintf("dna: slice [%d,%d) out of range of %d bases", from, to, p.n))
	}
	out := Packed{data: make([]byte, (to-from+3)/4), n: to - from}
	if from&3 == 0 {
		// Byte-aligned fast path.
		copy(out.data, p.data[from>>2:])
		// Mask the tail bits beyond the new length.
		if rem := out.n & 3; rem != 0 {
			out.data[len(out.data)-1] &= byte(1<<uint(rem*2)) - 1
		}
		return out
	}
	for i := 0; i < out.n; i++ {
		out.data[i>>2] |= p.CodeAt(from+i) << uint((i&3)<<1)
	}
	return out
}

// ReverseComplement returns the reverse complement as a new packed sequence.
func (p Packed) ReverseComplement() Packed {
	out := Packed{data: make([]byte, len(p.data)), n: p.n}
	for i := 0; i < p.n; i++ {
		c := complement[p.CodeAt(p.n-1-i)]
		out.data[i>>2] |= c << uint((i&3)<<1)
	}
	return out
}

// Equal reports whether two packed sequences contain identical bases.
func (p Packed) Equal(q Packed) bool {
	if p.n != q.n {
		return false
	}
	full := p.n >> 2
	for i := 0; i < full; i++ {
		if p.data[i] != q.data[i] {
			return false
		}
	}
	for i := full << 2; i < p.n; i++ {
		if p.CodeAt(i) != q.CodeAt(i) {
			return false
		}
	}
	return true
}

// Compare lexicographically compares the base sequences of p and q and
// returns -1, 0 or +1 (the memcmp of §IV-A performed on the packed form).
func (p Packed) Compare(q Packed) int {
	n := min(p.n, q.n)
	for i := 0; i < n; i++ {
		pc, qc := p.CodeAt(i), q.CodeAt(i)
		switch {
		case pc < qc:
			return -1
		case pc > qc:
			return 1
		}
	}
	switch {
	case p.n < q.n:
		return -1
	case p.n > q.n:
		return 1
	}
	return 0
}

// MatchesAt reports whether q occurs in p starting at offset off on the
// given strand: p[off:off+q.Len()] equals q, or with rc q's reverse
// complement. This is the fast string comparison that replaces
// Smith-Waterman on the exact-match path of §IV-A. It compares 32 bases per
// 64-bit word at any offset: q's words are aligned, p's are loaded at off
// (Word), and on the reverse strand each of p's words is reverse
// complemented in registers (ReverseComplementWord) against the q word it
// faces, so neither sequence is unpacked or copied.
func (p Packed) MatchesAt(q Packed, off int, rc bool) bool {
	n := q.n
	if off < 0 || off+n > p.n {
		return false
	}
	for j := 0; j < n; j += 32 {
		c := min(n-j, 32) // bases in this word; the last may be partial
		var w uint64
		if rc {
			// q[j:j+c] faces the reverse complement of p[off+n-j-c : off+n-j].
			w = ReverseComplementWord(p.Word(off+n-j-c), c)
		} else {
			w = p.Word(off + j)
		}
		if (w^q.Word(j))&wordMask(c) != 0 {
			return false
		}
	}
	return true
}

// Word returns the 32 bases of p starting at base i as one word in the
// packed layout: base i in the two least significant bits, base i+31 in
// the two most significant. Bases past the end of p read as zero (A). The
// load never reads past the end of p's bytes, which may be a sub-slice of a
// larger mapping.
func (p Packed) Word(i int) uint64 {
	d, b, sh := p.data, i>>2, uint(i&3)<<1
	if b+8 < len(d) {
		return binary.LittleEndian.Uint64(d[b:])>>sh | uint64(d[b+8])<<(64-sh)
	}
	var w uint64 // at most 8 bytes remain from b on
	for j := len(d) - 1; j >= b; j-- {
		w = w<<8 | uint64(d[j])
	}
	return w >> sh
}

// ReverseComplementWord returns the reverse complement of the n low bases
// (0 <= n <= 32) of a word in the packed layout, in the n low bases of the
// result; the bits above are zero, and whatever w holds above its n bases
// is ignored. The complement of a 2-bit code is its bitwise NOT; reversing
// swaps the 2-bit fields within each byte, then the bytes.
func ReverseComplementWord(w uint64, n int) uint64 {
	w = ^w
	w = w>>2&0x3333333333333333 | w&0x3333333333333333<<2
	w = w>>4&0x0F0F0F0F0F0F0F0F | w&0x0F0F0F0F0F0F0F0F<<4
	return bits.ReverseBytes64(w) >> (64 - 2*uint(n))
}

// wordMask selects the n low bases (1 <= n <= 32) of a word.
func wordMask(n int) uint64 { return ^uint64(0) >> (64 - 2*uint(n)) }

// GC returns the fraction of G or C bases, 0 for the empty sequence.
func (p Packed) GC() float64 {
	if p.n == 0 {
		return 0
	}
	gc := 0
	for i := 0; i < p.n; i++ {
		if c := p.CodeAt(i); c == C || c == G {
			gc++
		}
	}
	return float64(gc) / float64(p.n)
}

// Random returns a uniformly random packed sequence of n bases drawn from rng.
func Random(rng *rand.Rand, n int) Packed {
	p := Packed{data: make([]byte, (n+3)/4), n: n}
	for i := range p.data {
		p.data[i] = byte(rng.Intn(256))
	}
	if rem := n & 3; rem != 0 {
		p.data[len(p.data)-1] &= byte(1<<uint(rem*2)) - 1
	}
	return p
}

// Mutate returns a copy of p in which each base is independently substituted
// with probability errRate (never to itself). It models sequencing error.
func (p Packed) Mutate(rng *rand.Rand, errRate float64) Packed {
	out := Packed{data: append([]byte(nil), p.data...), n: p.n}
	if errRate <= 0 {
		return out
	}
	for i := 0; i < p.n; i++ {
		if rng.Float64() < errRate {
			old := out.CodeAt(i)
			nc := (old + byte(1+rng.Intn(3))) & 3
			idx, sh := i>>2, uint((i&3)<<1)
			out.data[idx] = out.data[idx]&^(3<<sh) | nc<<sh
		}
	}
	return out
}

// HammingDistance counts mismatching positions of two equal-length sequences.
func HammingDistance(p, q Packed) (int, error) {
	if p.n != q.n {
		return 0, fmt.Errorf("dna: length mismatch %d vs %d", p.n, q.n)
	}
	d := 0
	for i := 0; i < p.n; i++ {
		if p.CodeAt(i) != q.CodeAt(i) {
			d++
		}
	}
	return d, nil
}

// Concat concatenates any number of packed sequences into one.
func Concat(parts ...Packed) Packed {
	total := 0
	for _, p := range parts {
		total += p.n
	}
	out := Packed{data: make([]byte, (total+3)/4)}
	for _, p := range parts {
		for i := 0; i < p.n; i++ {
			out.data[out.n>>2] |= p.CodeAt(i) << uint((out.n&3)<<1)
			out.n++
		}
	}
	return out
}
