package dna

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randSeq(rng *rand.Rand, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte("ACGT"[rng.Intn(4)])
	}
	return sb.String()
}

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := []string{"", "A", "C", "G", "T", "ACGT", "ACGTACGTA", "TTTTTTTT", "acgt"}
	for _, s := range cases {
		p, err := Pack(s)
		if err != nil {
			t.Fatalf("Pack(%q): %v", s, err)
		}
		want := strings.ToUpper(s)
		if got := p.String(); got != want {
			t.Errorf("Pack(%q).String() = %q, want %q", s, got, want)
		}
		if p.Len() != len(s) {
			t.Errorf("Pack(%q).Len() = %d, want %d", s, p.Len(), len(s))
		}
	}
}

func TestPackInvalidBase(t *testing.T) {
	for _, s := range []string{"ACGN", "X", "AC GT", "ACG\n"} {
		if _, err := Pack(s); err == nil {
			t.Errorf("Pack(%q) succeeded, want error", s)
		}
	}
}

func TestPackedSize(t *testing.T) {
	p := MustPack("ACGTACGTA") // 9 bases -> 3 bytes
	if p.PackedSize() != 3 {
		t.Errorf("PackedSize = %d, want 3", p.PackedSize())
	}
	// 4x compression check on a longer sequence.
	p = MustPack(strings.Repeat("ACGT", 100))
	if p.PackedSize() != 100 {
		t.Errorf("PackedSize = %d, want 100", p.PackedSize())
	}
}

func TestPackUnpackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint16) bool {
		s := randSeq(rng, int(n%512))
		p := MustPack(s)
		return p.String() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseComplement(t *testing.T) {
	cases := map[string]string{
		"":        "",
		"A":       "T",
		"ACGT":    "ACGT",
		"AAA":     "TTT",
		"GATTACA": "TGTAATC",
	}
	for in, want := range cases {
		if got := MustPack(in).ReverseComplement().String(); got != want {
			t.Errorf("ReverseComplement(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(n uint16) bool {
		p := Random(rng, int(n%300))
		return p.ReverseComplement().ReverseComplement().Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlice(t *testing.T) {
	s := "ACGTACGTTGCA"
	p := MustPack(s)
	for from := 0; from <= len(s); from++ {
		for to := from; to <= len(s); to++ {
			got := p.Slice(from, to).String()
			if got != s[from:to] {
				t.Fatalf("Slice(%d,%d) = %q, want %q", from, to, got, s[from:to])
			}
		}
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Slice out of range did not panic")
		}
	}()
	MustPack("ACGT").Slice(1, 9)
}

func TestMatchesAt(t *testing.T) {
	hay := MustPack("ACGTACGTTGCA")
	for off := 0; off+4 <= hay.Len(); off++ {
		needle := hay.Slice(off, off+4)
		if !hay.MatchesAt(needle, off, false) {
			t.Errorf("MatchesAt(own slice, %d) = false", off)
		}
	}
	if hay.MatchesAt(MustPack("AAAA"), 0, false) {
		t.Error("MatchesAt(AAAA, 0) = true, want false")
	}
	if hay.MatchesAt(MustPack("GCA"), 10, false) {
		t.Error("MatchesAt beyond end = true, want false")
	}
	if !hay.MatchesAt(MustPack("GCA"), 9, false) {
		t.Error("MatchesAt(GCA, 9) = false, want true")
	}
	if hay.MatchesAt(MustPack("A"), -1, false) {
		t.Error("MatchesAt negative offset = true")
	}
}

func TestMatchesAtProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := Random(r, 40+r.Intn(100))
		off := r.Intn(p.Len())
		ln := r.Intn(p.Len() - off)
		sub := p.Slice(off, off+ln)
		return p.MatchesAt(sub, off, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"A", "A", 0}, {"A", "C", -1}, {"T", "G", 1},
		{"ACG", "ACGT", -1}, {"ACGT", "ACG", 1}, {"ACGT", "ACGT", 0},
	}
	for _, c := range cases {
		if got := MustPack(c.a).Compare(MustPack(c.b)); got != c.want {
			t.Errorf("Compare(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareMatchesStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		a, b := randSeq(rng, rng.Intn(30)), randSeq(rng, rng.Intn(30))
		want := strings.Compare(a, b)
		if got := MustPack(a).Compare(MustPack(b)); got != want {
			t.Fatalf("Compare(%q,%q) = %d, want %d", a, b, got, want)
		}
	}
}

func TestEqual(t *testing.T) {
	if !MustPack("ACGT").Equal(MustPack("ACGT")) {
		t.Error("equal sequences reported unequal")
	}
	if MustPack("ACGT").Equal(MustPack("ACGA")) {
		t.Error("unequal sequences reported equal")
	}
	if MustPack("ACGT").Equal(MustPack("ACG")) {
		t.Error("different lengths reported equal")
	}
}

func TestMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := Random(rng, 10000)
	m := p.Mutate(rng, 0.01)
	d, err := HammingDistance(p, m)
	if err != nil {
		t.Fatal(err)
	}
	// Expected ~100 mutations; allow generous slack.
	if d < 50 || d > 200 {
		t.Errorf("Mutate(0.01) produced %d substitutions in 10000, want ~100", d)
	}
	// Zero rate must be identity.
	if z := p.Mutate(rng, 0); !z.Equal(p) {
		t.Error("Mutate(0) changed the sequence")
	}
}

func TestMutateNeverToSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := Random(rng, 500)
	m := p.Mutate(rng, 1.0) // every base must change
	for i := 0; i < p.Len(); i++ {
		if p.CodeAt(i) == m.CodeAt(i) {
			t.Fatalf("base %d unchanged under rate 1.0", i)
		}
	}
}

func TestHammingDistanceLengthMismatch(t *testing.T) {
	if _, err := HammingDistance(MustPack("ACG"), MustPack("AC")); err == nil {
		t.Error("want error on length mismatch")
	}
}

func TestConcat(t *testing.T) {
	got := Concat(MustPack("ACG"), MustPack(""), MustPack("TTAC"), MustPack("G")).String()
	if got != "ACGTTACG" {
		t.Errorf("Concat = %q, want ACGTTACG", got)
	}
}

func TestGC(t *testing.T) {
	if gc := MustPack("GGCC").GC(); gc != 1.0 {
		t.Errorf("GC(GGCC) = %v, want 1", gc)
	}
	if gc := MustPack("AATT").GC(); gc != 0.0 {
		t.Errorf("GC(AATT) = %v, want 0", gc)
	}
	if gc := MustPack("ACGT").GC(); gc != 0.5 {
		t.Errorf("GC(ACGT) = %v, want 0.5", gc)
	}
	if gc := MustPack("").GC(); gc != 0 {
		t.Errorf("GC empty = %v, want 0", gc)
	}
}

func TestFromCodesAndCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := Random(rng, 137)
	q := FromCodes(p.Codes())
	if !p.Equal(q) {
		t.Error("FromCodes(Codes()) != original")
	}
	var app []byte
	app = p.AppendCodes(app)
	if len(app) != p.Len() {
		t.Fatalf("AppendCodes length %d, want %d", len(app), p.Len())
	}
	for i, c := range app {
		if c != p.CodeAt(i) {
			t.Fatalf("AppendCodes[%d] = %d, want %d", i, c, p.CodeAt(i))
		}
	}
}

func TestComplementCode(t *testing.T) {
	pairs := [][2]byte{{A, T}, {C, G}, {G, C}, {T, A}}
	for _, pr := range pairs {
		if ComplementCode(pr[0]) != pr[1] {
			t.Errorf("ComplementCode(%d) = %d, want %d", pr[0], ComplementCode(pr[0]), pr[1])
		}
	}
}

func TestCodeBaseRoundTrip(t *testing.T) {
	for _, b := range []byte{'A', 'C', 'G', 'T'} {
		if BaseOf(CodeOf(b)) != b {
			t.Errorf("BaseOf(CodeOf(%q)) != %q", b, b)
		}
	}
	if CodeOf('N') != 0xFF {
		t.Error("CodeOf(N) should be invalid")
	}
}

// TestAppendUnpackMatchesCodeAt holds the four-at-a-time unpackers to the
// per-base accessor they replace: AppendCodes to the CodeAt loop,
// AppendBases to its BaseOf form, AppendRevCompBases to the complement of
// that form read backwards. Every length 0-67 covers every tail of a last
// packed byte, on fresh, Sliced (aligned and unaligned start) and
// FromPackedBytes-wrapped sequences, each appended after a prefix that must
// survive.
func TestAppendUnpackMatchesCodeAt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prefix := []byte("pre")
	for n := 0; n <= 67; n++ {
		long := Random(rng, n+9)
		wrapped, err := FromPackedBytes(append([]byte(nil), long.Slice(0, n).Bytes()...), n)
		if err != nil {
			t.Fatal(err)
		}
		forms := map[string]Packed{
			"random":  Random(rng, n),
			"slice@0": long.Slice(0, n),
			"slice@4": long.Slice(4, 4+n),
			"slice@7": long.Slice(7, 7+n),
			"mapped":  wrapped,
		}
		for name, p := range forms {
			var codes, bases, rcBases []byte
			for i := 0; i < p.Len(); i++ {
				codes = append(codes, p.CodeAt(i))
				bases = append(bases, BaseOf(p.CodeAt(i)))
			}
			for i := p.Len() - 1; i >= 0; i-- {
				rcBases = append(rcBases, BaseOf(ComplementCode(p.CodeAt(i))))
			}
			check := func(what string, got, want []byte) {
				t.Helper()
				if string(got) != string(prefix)+string(want) {
					t.Errorf("n=%d %s: %s = %q, want %q", n, name, what, got, string(prefix)+string(want))
				}
			}
			check("AppendCodes", p.AppendCodes(append([]byte(nil), prefix...)), codes)
			check("AppendBases", p.AppendBases(append([]byte(nil), prefix...)), bases)
			check("AppendRevCompBases", p.AppendRevCompBases(append([]byte(nil), prefix...)), rcBases)
			if got := string(p.AppendRevCompBases(nil)); got != p.ReverseComplement().String() {
				t.Errorf("n=%d %s: AppendRevCompBases = %q, ReverseComplement = %q", n, name, got, p.ReverseComplement().String())
			}
		}
	}
}

func BenchmarkPack(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	s := []byte(randSeq(rng, 10000))
	b.SetBytes(int64(len(s)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PackBytes(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchesAtAligned(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	hay := Random(rng, 100000)
	needle := hay.Slice(4096, 4096+101)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !hay.MatchesAt(needle, 4096, false) {
			b.Fatal("mismatch")
		}
	}
}

func BenchmarkReverseComplement(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	p := Random(rng, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.ReverseComplement()
	}
}
