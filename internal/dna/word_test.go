package dna

import (
	"math/rand"
	"testing"
)

// This file holds the word-at-a-time operations (Word,
// ReverseComplementWord, MatchesAt) to a per-base reference that shares no
// code with them: every base goes through CodeAt.

// refMatchesAt is MatchesAt one base at a time: p[off+i] against q[i], or on
// the reverse strand against the complement of q[n-1-i].
func refMatchesAt(p, q Packed, off int, rc bool) bool {
	n := q.Len()
	if off < 0 || off+n > p.Len() {
		return false
	}
	for i := range n {
		c := q.CodeAt(i)
		if rc {
			c = 3 - q.CodeAt(n-1-i)
		}
		if p.CodeAt(off+i) != c {
			return false
		}
	}
	return true
}

// refWord is Word one base at a time.
func refWord(p Packed, i int) uint64 {
	var w uint64
	for j := range 32 {
		if i+j < p.Len() {
			w |= uint64(p.CodeAt(i+j)) << (2 * j)
		}
	}
	return w
}

// tailed returns a copy of p whose bytes are a sub-slice of a larger buffer
// that ends exactly at the sequence's last byte, followed by bytes of
// nonzero garbage: a load past len(data) either panics or shows up as a
// mismatch. This is the shape of a target mapped from a snapshot.
func tailed(t testing.TB, p Packed) Packed {
	t.Helper()
	nb := len(p.Bytes())
	buf := make([]byte, 3+nb+16)
	for i := range buf {
		buf[i] = 0xFF
	}
	copy(buf[3:], p.Bytes())
	q, err := FromPackedBytes(buf[3:3+nb:3+nb], p.Len())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestWordMatchesPerBase(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for n := range 80 {
		p := tailed(t, Random(rng, n))
		for i := 0; i <= n+4; i++ {
			if got, want := p.Word(i), refWord(p, i); got != want {
				t.Fatalf("len %d: Word(%d) = %#x, want %#x", n, i, got, want)
			}
		}
	}
}

func TestReverseComplementWordMatchesPerBase(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for range 200 {
		w := rng.Uint64()
		for n := 0; n <= 32; n++ {
			var want uint64
			for i := range n {
				want |= uint64(3-byte(w>>(2*(n-1-i))&3)) << (2 * i)
			}
			if got := ReverseComplementWord(w, n); got != want {
				t.Fatalf("ReverseComplementWord(%#x, %d) = %#x, want %#x", w, n, got, want)
			}
		}
	}
}

// TestMatchesAtMatchesPerBase checks MatchesAt against refMatchesAt for
// every query length 0..100 at every offset of random targets whose bytes
// end exactly at the last base, on both strands: the true subsequence, and
// copies with one base changed in the first, a middle and the last
// (possibly partial) word.
func TestMatchesAtMatchesPerBase(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, plen := range []int{100, 101, 102, 103} {
		p := tailed(t, Random(rng, plen))
		for n := 0; n <= plen; n++ {
			for off := 0; off+n <= plen; off++ {
				for _, rc := range []bool{false, true} {
					q := p.Slice(off, off+n)
					if rc {
						q = q.ReverseComplement()
					}
					q = tailed(t, q)
					if !p.MatchesAt(q, off, rc) {
						t.Fatalf("len %d: MatchesAt(own slice len %d, %d, rc=%v) = false", plen, n, off, rc)
					}
					if n == 0 {
						continue
					}
					for _, pos := range []int{0, n / 2, n - 1, rng.Intn(n)} {
						m := flipBase(q, pos, 1+rng.Intn(3))
						if got, want := p.MatchesAt(m, off, rc), refMatchesAt(p, m, off, rc); got != want || got {
							t.Fatalf("len %d: MatchesAt(slice len %d with base %d changed, %d, rc=%v) = %v, reference %v",
								plen, n, pos, off, rc, got, want)
						}
					}
				}
			}
			q := p.Slice(0, n)
			for _, off := range []int{-1, plen - n + 1} {
				if p.MatchesAt(q, off, false) || p.MatchesAt(q, off, true) {
					t.Fatalf("len %d: MatchesAt(len %d, %d) out of range = true", plen, n, off)
				}
			}
		}
	}
}

// flipBase returns a copy of q with base pos changed by +d mod 4 (d in 1..3).
func flipBase(q Packed, pos, d int) Packed {
	codes := q.Codes()
	codes[pos] = (codes[pos] + byte(d)) & 3
	return FromCodes(codes)
}

// FuzzMatchesAt compares MatchesAt with refMatchesAt on random targets,
// offsets, lengths and strands; the query is the target's own subsequence
// (or its reverse complement), optionally with one base changed — the last
// base included, which sits in the last, partial word.
func FuzzMatchesAt(f *testing.F) {
	f.Add(int64(1), uint16(150), uint16(7), uint16(101), false, int16(-1))
	f.Add(int64(2), uint16(150), uint16(7), uint16(101), true, int16(100))
	f.Add(int64(3), uint16(64), uint16(0), uint16(64), true, int16(63))
	f.Add(int64(4), uint16(33), uint16(1), uint16(32), false, int16(31))
	f.Fuzz(func(t *testing.T, seed int64, plen, off, n uint16, rc bool, flip int16) {
		rng := rand.New(rand.NewSource(seed))
		p := tailed(t, Random(rng, int(plen%1024)))
		o := int(off) % (p.Len() + 1)
		ln := int(n) % (p.Len() - o + 1)
		q := p.Slice(o, o+ln)
		if rc {
			q = q.ReverseComplement()
		}
		if flip >= 0 && ln > 0 {
			q = flipBase(q, int(flip)%ln, 1+int(flip)%3)
		}
		q = tailed(t, q)
		got, want := p.MatchesAt(q, o, rc), refMatchesAt(p, q, o, rc)
		if got != want || want != (flip < 0 || ln == 0) {
			t.Fatalf("MatchesAt(len %d at %d of %d, rc=%v, flip %d) = %v, reference %v", ln, o, p.Len(), rc, flip, got, want)
		}
		if p.MatchesAt(q, o+1, rc) != refMatchesAt(p, q, o+1, rc) {
			t.Fatalf("MatchesAt(len %d at %d of %d, rc=%v) disagrees with the reference", ln, o+1, p.Len(), rc)
		}
	})
}
