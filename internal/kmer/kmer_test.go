package kmer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lbl-repro/meraligner/internal/dna"
)

func TestFromStringRoundTrip(t *testing.T) {
	for _, s := range []string{"A", "ACGT", "GATTACA",
		"ACGTACGTACGTACGTACGTACGTACGTACGT",  // k=32
		"ACGTACGTACGTACGTACGTACGTACGTACGTA", // k=33
		"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACG" /* k=51 */} {
		km, err := FromString(s)
		if err != nil {
			t.Fatalf("FromString(%q): %v", s, err)
		}
		if got := seedString(km, len(s)); got != s {
			t.Errorf("seedString = %q, want %q", got, s)
		}
	}
}

func TestFromStringTooLong(t *testing.T) {
	long := make([]byte, MaxK+1)
	for i := range long {
		long[i] = 'A'
	}
	if _, err := FromString(string(long)); err == nil {
		t.Error("FromString(len 65) succeeded, want error")
	}
}

func TestFromPackedMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := dna.Random(rng, 300)
	for _, k := range []int{1, 5, 19, 31, 32, 33, 51, 64} {
		for off := 0; off+k <= p.Len(); off += 7 {
			km := FromPacked(p, off, k)
			want := p.Slice(off, off+k).String()
			if got := seedString(km, k); got != want {
				t.Fatalf("k=%d off=%d: %q want %q", k, off, got, want)
			}
		}
	}
}

func TestExtractCountAndContent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{3, 19, 31, 32, 33, 51} {
		p := dna.Random(rng, 200)
		seeds := Extract(p, k, nil)
		want := Count(p.Len(), k)
		if len(seeds) != want {
			t.Fatalf("k=%d: Extract yielded %d seeds, want %d", k, len(seeds), want)
		}
		for off, km := range seeds {
			if km != FromPacked(p, off, k) {
				t.Fatalf("k=%d off=%d: rolling extraction mismatch", k, off)
			}
		}
	}
}

func TestExtractShortSequence(t *testing.T) {
	p := dna.MustPack("ACG")
	if got := Extract(p, 5, nil); len(got) != 0 {
		t.Errorf("Extract on short sequence returned %d seeds, want 0", len(got))
	}
	if Count(3, 5) != 0 {
		t.Error("Count(3,5) != 0")
	}
	if Count(5, 5) != 1 {
		t.Error("Count(5,5) != 1")
	}
}

// Property: rolling extraction (k<=32) agrees with positional FromPacked.
func TestExtractPropertyRollingEqualsDirect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(32)
		p := dna.Random(r, k+r.Intn(100))
		seeds := Extract(p, k, nil)
		for off, km := range seeds {
			if km != FromPacked(p, off, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(MaxK)
		p := dna.Random(r, k)
		km := FromPacked(p, 0, k)
		return km.ReverseComplement(k).ReverseComplement(k) == km
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReverseComplementMatchesDNA(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 17, 32, 33, 51, 64} {
		p := dna.Random(rng, k)
		km := FromPacked(p, 0, k)
		want := p.ReverseComplement().String()
		if got := seedString(km.ReverseComplement(k), k); got != want {
			t.Errorf("k=%d: RC = %q, want %q", k, got, want)
		}
	}
}

func TestCanonicalInvariantUnderRC(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(MaxK)
		p := dna.Random(r, k)
		km := FromPacked(p, 0, k)
		c1, _ := km.Canonical(k)
		c2, _ := km.ReverseComplement(k).Canonical(k)
		return c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Kmer.Hash is djb2 in closed form; it must equal the byte-at-a-time chain
// over the 16 little-endian bytes of Lo then Hi for every key: a short seed,
// the zero key, all ones (every SWAR lane at its maximum), keys with only
// Hi set, and random words.
func TestHashMatchesDjb2OverPackedBytes(t *testing.T) {
	keys := []Kmer{
		MustFromString("GATTACA"),
		{},
		{Lo: ^uint64(0), Hi: ^uint64(0)},
		{Lo: ^uint64(0)},
		{Hi: ^uint64(0)},
		{Hi: 1},
		{Hi: 0xFF << 56},
		{Lo: 0x0102030405060708, Hi: 0x1112131415161718},
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		keys = append(keys, Kmer{Lo: rng.Uint64(), Hi: rng.Uint64()}, Kmer{Hi: rng.Uint64()})
	}
	for _, km := range keys {
		var raw [16]byte
		for i := 0; i < 8; i++ {
			raw[i] = byte(km.Lo >> uint(8*i))
			raw[8+i] = byte(km.Hi >> uint(8*i))
		}
		if got, want := km.Hash(), Djb2String(raw[:]); got != want {
			t.Fatalf("Kmer%+v.Hash() = %#x, djb2 over its packed bytes = %#x", km, got, want)
		}
	}
}

func TestDjb2Reference(t *testing.T) {
	// djb2("") = 5381, djb2("a") = 5381*33+97 = 177670.
	if Djb2String(nil) != 5381 {
		t.Errorf("Djb2String(nil) = %d, want 5381", Djb2String(nil))
	}
	if Djb2String([]byte("a")) != 177670 {
		t.Errorf("Djb2String(a) = %d, want 177670", Djb2String([]byte("a")))
	}
}

// The paper relies on djb2 spreading distinct seeds near-uniformly over
// processors (§VI-C1, "almost perfect load balance"). Verify the spread on a
// random seed population: no processor should exceed ~1.5x the mean.
func TestHashDistributionAcrossProcessors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const procs = 48
	const n = 48000
	counts := make([]int, procs)
	p := dna.Random(rng, n+50)
	for _, km := range Extract(p, 51, nil) {
		counts[km.Hash()%procs]++
	}
	mean := float64(n+1) / procs
	for pid, c := range counts {
		if float64(c) > 1.5*mean || float64(c) < 0.5*mean {
			t.Errorf("processor %d owns %d seeds, mean %.0f — djb2 spread too skewed", pid, c, mean)
		}
	}
}

func TestLessIsTotalOrder(t *testing.T) {
	a := Kmer{Lo: 1}
	b := Kmer{Lo: 2}
	c := Kmer{Hi: 1}
	if !a.Less(b) || b.Less(a) {
		t.Error("Less on Lo broken")
	}
	if !a.Less(c) || c.Less(a) {
		t.Error("Less on Hi broken")
	}
	if a.Less(a) {
		t.Error("Less not irreflexive")
	}
}

func TestPackedBytes(t *testing.T) {
	cases := map[int]int{1: 1, 4: 1, 5: 2, 19: 5, 32: 8, 51: 13, 64: 16}
	for k, want := range cases {
		if got := PackedBytes(k); got != want {
			t.Errorf("PackedBytes(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestFromPackedPanics(t *testing.T) {
	p := dna.MustPack("ACGT")
	for _, fn := range []func(){
		func() { FromPacked(p, 0, 0) },
		func() { FromPacked(p, 0, 65) },
		func() { FromPacked(p, 2, 4) },
		func() { FromPacked(p, -1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkExtractK51(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := dna.Random(rng, 100000)
	buf := make([]Kmer, 0, p.Len())
	b.SetBytes(int64(p.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Extract(p, 51, buf[:0])
	}
}

func BenchmarkExtractK19Rolling(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	p := dna.Random(rng, 100000)
	buf := make([]Kmer, 0, p.Len())
	b.SetBytes(int64(p.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Extract(p, 19, buf[:0])
	}
}

func BenchmarkHash(b *testing.B) {
	km := MustFromString("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACG")
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += km.Hash()
	}
	_ = sink
}
