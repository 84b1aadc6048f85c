package core

import (
	"math/rand"
	"testing"

	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

func testOptions(k int) Options {
	opt := DefaultOptions(k)
	opt.CollectAlignments = true
	return opt
}

// testWorkload builds a small deterministic data set.
func testWorkload(t testing.TB, genomeLen int, depth, errRate float64) *genome.DataSet {
	p := genome.HumanLike(genomeLen)
	p.Depth = depth
	p.ErrorRate = errRate
	p.InsertMean = 0 // unpaired for simplicity
	ds, err := genome.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestOptionsValidate(t *testing.T) {
	if err := testOptions(21).Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
	bad := testOptions(21)
	bad.K = 0
	if bad.Validate() == nil {
		t.Error("K=0 accepted")
	}
	bad = testOptions(21)
	bad.FragmentLen = 10 // <= K
	if bad.Validate() == nil {
		t.Error("FragmentLen <= K accepted")
	}
}

func TestFragmentTableInvariants(t *testing.T) {
	ds := testWorkload(t, 60_000, 2, 0)
	const k, F = 21, 500
	ft := BuildFragmentTable(ds.Contigs, k, F, 8)
	if ft.NumFragments() < len(ds.Contigs) {
		t.Fatal("fewer fragments than targets")
	}
	step := F - k + 1
	for ti := range ds.Contigs {
		first, last := ft.FragRange(int32(ti))
		L := ds.Contigs[ti].Seq.Len()
		// Fragment seed sets must tile the target's seed set exactly:
		// fragment i covers seed offsets [i*step, i*step+len-k].
		covered := 0
		for f := first; f < last; f++ {
			fr := ft.Frags[f]
			if fr.Target != int32(ti) {
				t.Fatalf("fragment %d wrong target", f)
			}
			if int(fr.Start) != int(f-first)*step {
				t.Fatalf("fragment %d start %d, want %d", f, fr.Start, int(f-first)*step)
			}
			nSeeds := int(fr.Len) - k + 1
			if nSeeds < 0 {
				nSeeds = 0
			}
			covered += nSeeds
			// Fragment content matches the target.
			if !ds.Contigs[ti].Seq.MatchesAt(ft.FragSeq(f), int(fr.Start)) {
				t.Fatalf("fragment %d content mismatch", f)
			}
		}
		want := L - k + 1
		if want < 0 {
			want = 0
		}
		if covered != want {
			t.Fatalf("target %d: fragments cover %d seeds, want %d", ti, covered, want)
		}
	}
}

func TestFragmentTableNoFragmentation(t *testing.T) {
	ds := testWorkload(t, 30_000, 1, 0)
	ft := BuildFragmentTable(ds.Contigs, 21, 0, 4)
	if ft.NumFragments() != len(ds.Contigs) {
		t.Errorf("F=0 should give one fragment per target: %d vs %d", ft.NumFragments(), len(ds.Contigs))
	}
}

// The headline correctness guarantee (§VI-D): every alignment sharing at
// least one full-length seed between query and target is found. For
// error-free reads whose origin lies inside a contig, the true location
// must be among the reported alignments with a full-length score.
func TestOracleErrorFreeReadsFound(t *testing.T) {
	ds := testWorkload(t, 120_000, 4, 0)
	opt := testOptions(31)
	res, err := RunThreaded(4, opt, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}

	// Build contig interval lookup.
	type iv struct{ start, end, idx int }
	var ivs []iv
	for i, pos := range ds.ContigPos {
		ivs = append(ivs, iv{pos, pos + ds.Contigs[i].Seq.Len(), i})
	}
	locate := func(pos, L int) (int, int, bool) {
		for _, v := range ivs {
			if pos >= v.start && pos+L <= v.end {
				return v.idx, pos - v.start, true
			}
		}
		return 0, 0, false
	}

	byQuery := map[int32][]Alignment{}
	for _, a := range res.Alignments {
		byQuery[a.Query] = append(byQuery[a.Query], a)
	}

	L := ds.Profile.ReadLen
	missed, expected := 0, 0
	for qi, org := range ds.Origins {
		tgt, tOff, inside := locate(org.Pos, L)
		if !inside {
			continue // origin spans a gap or uncovered region
		}
		expected++
		found := false
		for _, a := range byQuery[int32(qi)] {
			if int(a.Target) == tgt && a.RC == org.RC && int(a.TStart) == tOff && int(a.Score) == L {
				found = true
				break
			}
		}
		if !found {
			missed++
		}
	}
	if expected == 0 {
		t.Fatal("no reads landed inside contigs; workload too sparse")
	}
	if missed != 0 {
		t.Errorf("missed %d/%d error-free reads at their true origin", missed, expected)
	}
}

// Reads with a few errors must still be found via their error-free seeds.
func TestReadsWithErrorsStillAlign(t *testing.T) {
	ds := testWorkload(t, 100_000, 3, 0.005)
	opt := testOptions(21)
	res, err := RunThreaded(4, opt, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.AlignedReads) / float64(res.TotalReads)
	// The paper aligned 86.3% of human reads; our contigs cover ~90% of
	// the genome, so expect a similar ballpark.
	if frac < 0.75 {
		t.Errorf("aligned fraction %.3f too low", frac)
	}
}

func TestExactMatchPathEngagesAndIsConsistent(t *testing.T) {
	ds := testWorkload(t, 100_000, 4, 0.0052)

	withOpt := testOptions(31)
	resWith, err := RunThreaded(4, withOpt, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	withoutOpt := testOptions(31)
	withoutOpt.ExactMatch = false
	resWithout, err := RunThreaded(4, withoutOpt, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}

	if resWith.ExactPathReads == 0 {
		t.Fatal("exact-match path never engaged")
	}
	fastFrac := float64(resWith.ExactPathReads) / float64(resWith.TotalReads)
	if fastFrac < 0.30 {
		t.Errorf("exact-path fraction %.2f too low (paper: ~0.59)", fastFrac)
	}

	// The optimization must not lose reads: every read aligned with the
	// fast path on must also align without it.
	if resWith.AlignedReads > resWithout.AlignedReads {
		t.Errorf("exact path aligned more reads (%d) than exhaustive (%d)?",
			resWith.AlignedReads, resWithout.AlignedReads)
	}
	diff := resWithout.AlignedReads - resWith.AlignedReads
	if diff > resWithout.AlignedReads/100 {
		t.Errorf("exact path lost %d aligned reads vs exhaustive %d", diff, resWithout.AlignedReads)
	}

	// Exact-path alignments must be genuine: re-verify against the target.
	verified := 0
	for _, a := range resWith.Alignments {
		if !a.Exact {
			continue
		}
		q := ds.Reads[a.Query].Seq
		if a.RC {
			q = q.ReverseComplement()
		}
		tg := ds.Contigs[a.Target].Seq
		if !tg.MatchesAt(q, int(a.TStart)) {
			t.Fatalf("exact alignment %+v does not match the target", a)
		}
		verified++
		if verified > 500 {
			break
		}
	}
	if verified == 0 {
		t.Error("no exact alignments to verify")
	}

	// And SW work must drop substantially (Fig 10's computation gain).
	// With exact fraction x and s seeds per read, the expected lookup
	// reduction is 1/(1-x+x/s); on this scaled workload x ~ 0.45.
	if float64(resWith.SWCalls)*1.5 > float64(resWithout.SWCalls) {
		t.Errorf("exact path did not reduce SW calls: %d vs %d", resWith.SWCalls, resWithout.SWCalls)
	}
	// As must seed lookups (communication gain).
	if float64(resWith.SeedLookups)*1.4 > float64(resWithout.SeedLookups) {
		t.Errorf("exact path did not reduce lookups: %d vs %d", resWith.SeedLookups, resWithout.SeedLookups)
	}
}

func TestReverseStrandReadsAlign(t *testing.T) {
	// All-RC read set: every read must still align.
	rng := rand.New(rand.NewSource(5))
	g := dna.Random(rng, 20_000)
	contig := seqio.Seq{Name: "c0", Seq: g}
	var reads []seqio.Seq
	for i := 0; i < 200; i++ {
		pos := rng.Intn(g.Len() - 100)
		reads = append(reads, seqio.Seq{Name: "r", Seq: g.Slice(pos, pos+100).ReverseComplement()})
	}
	opt := testOptions(21)
	res, err := RunThreaded(4, opt, []seqio.Seq{contig}, reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.AlignedReads != len(reads) {
		t.Errorf("aligned %d/%d reverse-strand reads", res.AlignedReads, len(reads))
	}
	for _, a := range res.Alignments {
		if !a.RC {
			t.Error("reverse-strand read reported as forward")
			break
		}
	}
}

func TestMaxSeedHitsLimitsWork(t *testing.T) {
	// A highly repetitive target: one unit repeated many times.
	rng := rand.New(rand.NewSource(6))
	unit := dna.Random(rng, 200)
	var parts []dna.Packed
	for i := 0; i < 50; i++ {
		parts = append(parts, unit)
	}
	tg := seqio.Seq{Name: "rep", Seq: dna.Concat(parts...)}
	reads := []seqio.Seq{{Name: "q", Seq: unit.Slice(0, 100)}}

	run := func(maxHits int) *Results {
		opt := testOptions(21)
		opt.ExactMatch = false
		opt.MaxSeedHits = maxHits
		res, err := RunThreaded(4, opt, []seqio.Seq{tg}, reads)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unlimited := run(0)
	capped := run(5)
	if capped.SWCalls >= unlimited.SWCalls {
		t.Errorf("MaxSeedHits did not reduce SW calls: %d vs %d", capped.SWCalls, unlimited.SWCalls)
	}
	if unlimited.TotalAlignments < 40 {
		t.Errorf("repetitive target yielded only %d alignments", unlimited.TotalAlignments)
	}
}

func TestShortQueriesSkipped(t *testing.T) {
	ds := testWorkload(t, 30_000, 1, 0)
	reads := []seqio.Seq{{Name: "short", Seq: dna.MustPack("ACGT")}}
	res, err := RunThreaded(4, testOptions(21), ds.Contigs, reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.AlignedReads != 0 || res.TotalAlignments != 0 {
		t.Error("short query produced alignments")
	}
}
