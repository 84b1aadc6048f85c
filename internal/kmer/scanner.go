package kmer

import (
	"fmt"

	"github.com/lbl-repro/meraligner/internal/dna"
)

// Scanner enumerates every seed of a packed sequence with O(1) work per
// position, maintaining the forward window and its reverse complement
// incrementally instead of re-extracting k bases per offset. Advancing the
// window by one base shifts one 2-bit code into each of the two maintained
// seeds:
//
//	forward: drop base 0, append the new base at position k-1 (shift down)
//	reverse: drop position k-1, insert the new base's complement at 0 (shift up)
//
// so the canonical seed and its strand fall out of one comparison per
// position. The emitted (canonical, strand) pairs are bit-identical to
// FromPacked(p, off, k).Canonical(k) at every offset — the index build and
// the query hot path both rely on that equivalence.
//
// A Scanner is a plain value: embed it or declare it on the stack and Reset
// it per sequence; it allocates nothing. It is not safe for concurrent use.
type Scanner struct {
	p   dna.Packed
	k   int
	n   int // seed count: Len-k+1
	off int // offset of the current seed; -1 before the first Next

	fwd, rc Kmer

	twoWord  bool
	fwdShift uint   // bit position of the incoming base in the forward top word
	rcMask   uint64 // mask of the reverse complement's top word (drops the outgoing base)
}

// Reset points the scanner at sequence p with seed length k, priming the
// first window from packed words (FromPacked, then ReverseComplement: a few
// word operations, whatever k). A sequence shorter than k yields no seeds.
func (s *Scanner) Reset(p dna.Packed, k int) {
	if k <= 0 || k > MaxK {
		panic(fmt.Sprintf("kmer: k=%d out of range (1..%d)", k, MaxK))
	}
	s.p, s.k = p, k
	s.n = p.Len() - k + 1
	s.off = -1
	if s.n <= 0 {
		return
	}
	s.fwd = FromPacked(p, 0, k)
	s.rc = s.fwd.ReverseComplement(k)
	s.twoWord = k > 32
	if s.twoWord {
		s.fwdShift = uint(2 * (k - 1 - 32)) // within Hi
		s.rcMask = lowBases(k - 32)
	} else {
		s.fwdShift = uint(2 * (k - 1)) // within Lo
		s.rcMask = lowBases(k)
	}
}

// Next advances to the next seed position, returning false when the
// sequence is exhausted. The first call positions the scanner at offset 0.
func (s *Scanner) Next() bool {
	if s.off+1 >= s.n {
		return false
	}
	s.off++
	if s.off == 0 {
		return true // Reset already primed the offset-0 windows
	}
	c := s.p.CodeAt(s.off + s.k - 1)
	comp := uint64(3 - c) // complement of a 2-bit code is its bitwise NOT
	if !s.twoWord {
		s.fwd.Lo = s.fwd.Lo>>2 | uint64(c)<<s.fwdShift
		s.rc.Lo = (s.rc.Lo<<2 | comp) & s.rcMask
		return true
	}
	// Forward shifts down across the word boundary (base 32 moves into Lo);
	// the reverse complement shifts up (base 31 of Lo carries into Hi).
	s.fwd.Lo = s.fwd.Lo>>2 | s.fwd.Hi<<62
	s.fwd.Hi = s.fwd.Hi>>2 | uint64(c)<<s.fwdShift
	s.rc.Hi = (s.rc.Hi<<2 | s.rc.Lo>>62) & s.rcMask
	s.rc.Lo = s.rc.Lo<<2 | comp
	return true
}

// Offset returns the query/fragment offset of the current seed.
func (s *Scanner) Offset() int { return s.off }

// Forward returns the forward-strand seed at the current offset.
func (s *Scanner) Forward() Kmer { return s.fwd }

// Reverse returns the reverse complement of the current seed.
func (s *Scanner) Reverse() Kmer { return s.rc }

// Canonical returns the canonical form of the current seed and whether the
// reverse complement was chosen, with exactly Kmer.Canonical's tie rule
// (the forward seed wins a palindromic tie).
func (s *Scanner) Canonical() (Kmer, bool) {
	if s.rc.Less(s.fwd) {
		return s.rc, true
	}
	return s.fwd, false
}
