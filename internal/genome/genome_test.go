package genome

import (
	"math"
	"math/rand"
	"testing"

	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/kmer"
)

func smallProfile() Profile {
	p := HumanLike(200_000)
	p.Depth = 8
	return p
}

func TestValidate(t *testing.T) {
	if err := smallProfile().Validate(); err != nil {
		t.Errorf("small profile invalid: %v", err)
	}
	bad := smallProfile()
	bad.ReadLen = 0
	if bad.Validate() == nil {
		t.Error("ReadLen=0 accepted")
	}
	bad = smallProfile()
	bad.Depth = 0
	if bad.Validate() == nil {
		t.Error("Depth=0 accepted")
	}
	bad = smallProfile()
	bad.ErrorRate = 1.5
	if bad.Validate() == nil {
		t.Error("ErrorRate=1.5 accepted")
	}
	bad = smallProfile()
	bad.InsertMean = 50 // < ReadLen
	if bad.Validate() == nil {
		t.Error("InsertMean < ReadLen accepted")
	}
	bad = smallProfile()
	bad.RepeatFraction = 1.0
	if bad.Validate() == nil {
		t.Error("RepeatFraction=1 accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallProfile())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Genome.Equal(b.Genome) {
		t.Error("genome not deterministic")
	}
	if len(a.Reads) != len(b.Reads) {
		t.Fatalf("read counts differ: %d vs %d", len(a.Reads), len(b.Reads))
	}
	for i := range a.Reads {
		if !a.Reads[i].Seq.Equal(b.Reads[i].Seq) {
			t.Fatalf("read %d differs", i)
		}
	}
}

func TestContigsAreGenomeSubstrings(t *testing.T) {
	ds, err := Generate(smallProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Contigs) < 5 {
		t.Fatalf("only %d contigs", len(ds.Contigs))
	}
	for i, c := range ds.Contigs {
		pos := ds.ContigPos[i]
		if !ds.Genome.MatchesAt(c.Seq, pos, false) {
			t.Fatalf("contig %d does not match genome at %d", i, pos)
		}
		if c.Seq.Len() < ds.Profile.ContigMin {
			t.Fatalf("contig %d shorter than ContigMin: %d", i, c.Seq.Len())
		}
	}
	// Contigs must be ordered and non-overlapping.
	for i := 1; i < len(ds.ContigPos); i++ {
		if ds.ContigPos[i] <= ds.ContigPos[i-1]+ds.Contigs[i-1].Seq.Len()-1 {
			t.Fatalf("contigs %d and %d overlap", i-1, i)
		}
	}
}

func TestReadsMatchGroundTruth(t *testing.T) {
	p := smallProfile()
	p.ErrorRate = 0 // so reads are exact substrings
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ds.Reads {
		org := ds.Origins[i]
		want := ds.Genome.Slice(org.Pos, org.Pos+p.ReadLen)
		got := r.Seq
		if org.RC {
			got = got.ReverseComplement()
		}
		if !got.Equal(want) {
			t.Fatalf("read %d does not match genome at %d (rc=%v)", i, org.Pos, org.RC)
		}
		if org.Errors != 0 {
			t.Fatalf("read %d has errors with rate 0", i)
		}
	}
}

func TestErrorRateProducesExpectedExactFraction(t *testing.T) {
	p := smallProfile()
	p.Depth = 15
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	exact := 0
	for _, o := range ds.Origins {
		if o.Errors == 0 {
			exact++
		}
	}
	got := float64(exact) / float64(len(ds.Origins))
	want := p.ExpectedExactFraction()
	if math.Abs(got-want) > 0.04 {
		t.Errorf("exact fraction = %.3f, expected ~%.3f", got, want)
	}
	// The human-like profile is tuned to the paper's ~59%.
	if want < 0.55 || want > 0.63 {
		t.Errorf("human-like expected exact fraction %.3f not near 0.59", want)
	}
}

func TestPairedReads(t *testing.T) {
	p := smallProfile()
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Reads)%2 != 0 {
		t.Fatal("odd read count for paired profile")
	}
	for i := 0; i < len(ds.Origins); i += 2 {
		a, b := ds.Origins[i], ds.Origins[i+1]
		if a.Mate != i+1 || b.Mate != i {
			t.Fatalf("pair %d mate indices wrong: %d,%d", i/2, a.Mate, b.Mate)
		}
		if a.RC || !b.RC {
			t.Fatalf("pair %d strands wrong (want fwd/rev)", i/2)
		}
		insert := (b.Pos + p.ReadLen) - a.Pos
		if insert < p.ReadLen || insert > p.InsertMean+6*p.InsertSD {
			t.Fatalf("pair %d insert %d out of range", i/2, insert)
		}
	}
}

func TestUnpairedReads(t *testing.T) {
	p := smallProfile()
	p.InsertMean = 0
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	rcCount := 0
	for _, o := range ds.Origins {
		if o.Mate != -1 {
			t.Fatal("unpaired read has a mate")
		}
		if o.RC {
			rcCount++
		}
	}
	frac := float64(rcCount) / float64(len(ds.Origins))
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("RC fraction = %.2f, want ~0.5", frac)
	}
}

func TestSortByPositionGroupsReads(t *testing.T) {
	p := smallProfile()
	p.SortByPosition = true
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Pair blocks must be non-decreasing in first-mate position.
	for i := 2; i < len(ds.Origins); i += 2 {
		if ds.Origins[i].Pos < ds.Origins[i-2].Pos {
			t.Fatalf("pair block at %d out of order: %d < %d", i, ds.Origins[i].Pos, ds.Origins[i-2].Pos)
		}
	}
	// Mates stay adjacent.
	for i := 0; i < len(ds.Origins); i += 2 {
		if ds.Origins[i].Mate != i+1 {
			t.Fatalf("mate adjacency broken at %d", i)
		}
	}
}

func TestShuffleBreaksOrdering(t *testing.T) {
	p := smallProfile()
	p.SortByPosition = true
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	Shuffle(rng, ds.Reads, ds.Origins)
	// After shuffling, consecutive positions should frequently decrease.
	desc := 0
	for i := 1; i < len(ds.Origins); i++ {
		if ds.Origins[i].Pos < ds.Origins[i-1].Pos {
			desc++
		}
	}
	if desc < len(ds.Origins)/4 {
		t.Errorf("shuffle left reads mostly ordered (%d/%d descents)", desc, len(ds.Origins))
	}
	// Names still track origins.
	for i, r := range ds.Reads {
		if r.Seq.Len() != p.ReadLen {
			t.Fatalf("read %d length %d", i, r.Seq.Len())
		}
	}
}

func TestRepeatContentRaisesSharedSeeds(t *testing.T) {
	low := Profile{Name: "low", GenomeLen: 150_000, ReadLen: 100, Depth: 1,
		ContigMean: 3000, ContigMin: 200, GapMean: 100, Seed: 4}
	high := low
	high.Name = "high"
	high.RepeatFraction = 0.3
	high.RepeatUnitLen = 900
	high.RepeatUnits = 10

	repeatSeeds := func(p Profile) float64 {
		ds, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[kmer.Kmer]int{}
		for _, c := range ds.Contigs {
			for _, s := range kmer.Extract(c.Seq, 31, nil) {
				counts[s]++
			}
		}
		rep, tot := 0, 0
		for _, n := range counts {
			tot++
			if n > 1 {
				rep++
			}
		}
		return float64(rep) / float64(tot)
	}
	lo, hi := repeatSeeds(low), repeatSeeds(high)
	if hi < 4*lo+0.01 {
		t.Errorf("repeat fraction did not raise shared seeds: low %.4f high %.4f", lo, hi)
	}
}

func TestSeedFrequency(t *testing.T) {
	// §III-B example: d=100, L=100, k=51 -> f = 100*(1-50/100) = 50.
	if f := SeedFrequency(100, 51, 100); f != 50 {
		t.Errorf("SeedFrequency = %v, want 50", f)
	}
}

func TestNumReads(t *testing.T) {
	p := smallProfile()
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Reads) != p.NumReads() {
		t.Errorf("NumReads() = %d, generated %d", p.NumReads(), len(ds.Reads))
	}
}

func TestProfilesValid(t *testing.T) {
	for _, p := range []Profile{HumanLike(1_000_000), WheatLike(1_000_000), EColiLike()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestGenerateGenomeHasRepeats(t *testing.T) {
	p := WheatLike(120_000)
	p.Depth = 1
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// The genome must contain at least one repeated 51-mer.
	counts := map[kmer.Kmer]int{}
	rep := 0
	for _, s := range kmer.Extract(ds.Genome, 51, nil) {
		counts[s]++
		if counts[s] == 2 {
			rep++
		}
	}
	if rep == 0 {
		t.Error("wheat-like genome contains no repeated 51-mers")
	}
}

func TestGC(t *testing.T) {
	ds, err := Generate(smallProfile())
	if err != nil {
		t.Fatal(err)
	}
	if gc := ds.Genome.GC(); gc < 0.45 || gc > 0.55 {
		t.Errorf("uniform random genome GC = %.3f, want ~0.5", gc)
	}
	_ = dna.Packed{}
}

func BenchmarkGenerateHumanLike1M(b *testing.B) {
	p := HumanLike(1_000_000)
	p.Depth = 5
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}
