package kmer

import (
	"math/rand"
	"testing"

	"github.com/lbl-repro/meraligner/internal/dna"
)

// This file holds FromPacked and ReverseComplement, which work on whole
// words, to a per-base reference that shares no code with them: every base
// is read through dna.Packed.CodeAt or shifted out of the seed's words one
// at a time.

// seedBase is the 2-bit code of base i of a seed.
func seedBase(km Kmer, i int) byte {
	if i < 32 {
		return byte(km.Lo>>(2*i)) & 3
	}
	return byte(km.Hi>>(2*(i-32))) & 3
}

// withBase returns km with base i set to code c (bits of base i clear).
func withBase(km Kmer, i int, c byte) Kmer {
	if i < 32 {
		km.Lo |= uint64(c) << (2 * i)
	} else {
		km.Hi |= uint64(c) << (2 * (i - 32))
	}
	return km
}

// seedString renders the first k bases of a seed as ACGT text.
func seedString(km Kmer, k int) string {
	b := make([]byte, k)
	for i := range b {
		b[i] = dna.BaseOf(seedBase(km, i))
	}
	return string(b)
}

// refFromPacked is FromPacked one base at a time.
func refFromPacked(p dna.Packed, off, k int) Kmer {
	var km Kmer
	for i := range k {
		km = withBase(km, i, p.CodeAt(off+i))
	}
	return km
}

// refReverseComplement is ReverseComplement one base at a time.
func refReverseComplement(km Kmer, k int) Kmer {
	var out Kmer
	for i := range k {
		out = withBase(out, i, 3-seedBase(km, k-1-i))
	}
	return out
}

// tailedRandom returns a random sequence of n bases whose bytes are a
// sub-slice of a larger buffer ending exactly at the last base, followed by
// nonzero bytes: a word load past len(data) panics or shows as a wrong seed.
func tailedRandom(t *testing.T, rng *rand.Rand, n int) dna.Packed {
	t.Helper()
	src := dna.Random(rng, n).Bytes()
	buf := make([]byte, len(src)+9)
	for i := range buf {
		buf[i] = 0xFF
	}
	copy(buf, src)
	p, err := dna.FromPackedBytes(buf[:len(src):len(src)], n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWordOpsMatchPerBase checks FromPacked and ReverseComplement against
// the per-base references for every k in 1..MaxK at every offset of random
// sequences of each length mod 4, the last seed of each ending at the last
// byte of the sequence.
func TestWordOpsMatchPerBase(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for k := 1; k <= MaxK; k++ {
		for _, n := range []int{k, k + 1, k + 2, k + 3, k + 45} {
			p := tailedRandom(t, rng, n)
			for off := 0; off+k <= n; off++ {
				km := FromPacked(p, off, k)
				if want := refFromPacked(p, off, k); km != want {
					t.Fatalf("k=%d len=%d: FromPacked(%d) = %+v, want %+v", k, n, off, km, want)
				}
				if got, want := km.ReverseComplement(k), refReverseComplement(km, k); got != want {
					t.Fatalf("k=%d len=%d off=%d: ReverseComplement = %+v, want %+v", k, n, off, got, want)
				}
			}
		}
		// Bits above the seed's k bases must not leak into its reverse
		// complement.
		km := Kmer{Lo: rng.Uint64(), Hi: rng.Uint64()}
		if got, want := km.ReverseComplement(k), refReverseComplement(km, k); got != want {
			t.Fatalf("k=%d: ReverseComplement of %+v (high bits set) = %+v, want %+v", k, km, got, want)
		}
	}
}
