package seqio

import (
	"bytes"
	"strings"
	"testing"

	"github.com/lbl-repro/meraligner/internal/dna"
)

func TestSAMHeaderAndRecords(t *testing.T) {
	refs := []SAMRef{{Name: "contig_0", Len: 10}, {Name: "contig_1", Len: 4}}
	var buf bytes.Buffer
	sw, err := NewSAMWriter(&buf, refs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteRead("r1", dna.MustPack("GTAC"), []byte("IIII"), []Hit{
		{Target: "contig_0", Score: 4, QEnd: 4, TStart: 2, TEnd: 6, Cigar: "4M"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteRead("r2", dna.MustPack("AAAA"), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("expected 6 lines, got %d:\n%s", len(lines), out)
	}
	for _, want := range []string{
		"@HD\tVN:1.6",
		"@SQ\tSN:contig_0\tLN:10",
		"@SQ\tSN:contig_1\tLN:4",
		"@PG\tID:meraligner",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "r1\t0\tcontig_0\t3\t60\t4M\t*\t0\t0\tGTAC\tIIII\tAS:i:4\tNM:i:0\n") {
		t.Errorf("bad aligned record:\n%s", out)
	}
	// Unmapped record: RName and Cigar must be *, Qual * when absent, no tags.
	if !strings.Contains(out, "r2\t4\t*\t0\t0\t*\t*\t0\t0\tAAAA\t*\n") {
		t.Errorf("bad unmapped record:\n%s", out)
	}
}

func TestSAMFieldCount(t *testing.T) {
	// Negative Score and NM omit their tags; an unnamed target, an empty
	// read and absent qualities all fill with "*".
	got := string(AppendSAMRead(nil, "q", dna.MustPack("ACGT"), nil,
		[]Hit{{Target: "c", Score: -1, QEnd: 4, TEnd: 4, Cigar: "4M", NM: -1}}))
	if want := "q\t0\tc\t1\t60\t4M\t*\t0\t0\tACGT\t*\n"; got != want {
		t.Errorf("record %q, want the 11 mandatory fields %q", got, want)
	}
	got = string(AppendSAMRead(nil, "q", dna.Packed{}, nil, []Hit{{Score: 0, NM: 0}}))
	if want := "q\t0\t*\t1\t60\t0M\t*\t0\t0\t*\t*\tAS:i:0\tNM:i:0\n"; got != want {
		t.Errorf("record %q, want %q", got, want)
	}
}

func TestAppendSAMReadShapes(t *testing.T) {
	seq, qual := dna.MustPack("AACCGGTTAC"), []byte("0123456789")
	hits := []Hit{
		{Target: "t1", Strand: "+", Score: 9, QStart: 1, QEnd: 8, TStart: 10, TEnd: 18, Cigar: "3M1D4M", NM: 1},
		{Target: "t0", Strand: "-", Score: 7, QStart: 0, QEnd: 7, TStart: 4, TEnd: 11, Exact: true, NM: 0},
	}
	got := string(AppendSAMRead(nil, "r", seq, qual, hits))
	want := "r\t0\tt1\t11\t3\t1S3M1D4M2S\t*\t0\t0\tAACCGGTTAC\t0123456789\tAS:i:9\tNM:i:1\n" +
		// Secondary, reverse strand: read reverse-complemented, qualities
		// reversed, the cigar-less exact hit rendered as one M run.
		"r\t272\tt0\t5\t3\t7M3S\t*\t0\t0\tGTAACCGGTT\t9876543210\tAS:i:7\tNM:i:0\n"
	if got != want {
		t.Errorf("records\n%q\nwant\n%q", got, want)
	}
	// Append style: dst's prefix is kept, and a warm buffer allocates nothing.
	buf := AppendSAMRead([]byte("x"), "r", seq, qual, hits)
	if string(buf) != "x"+want {
		t.Errorf("AppendSAMRead did not append to dst: %q", buf)
	}
	if n := testing.AllocsPerRun(100, func() { buf = AppendSAMRead(buf[:0], "r", seq, qual, hits) }); n != 0 {
		t.Errorf("AppendSAMRead allocates %v times per read into a warm buffer, want 0", n)
	}
}

func TestCompareHitsKeyOrder(t *testing.T) {
	// Each adjacent pair differs in exactly one key, later keys set against
	// the order to prove the earlier one decides.
	sorted := []Hit{
		{Score: 9, Target: "b", TStart: 5, Strand: "-", QStart: 3, QEnd: 9, TEnd: 9, Cigar: "9M"},
		{Score: 8, Target: "a", TStart: 5, Strand: "-", QStart: 3, QEnd: 9, TEnd: 9, Cigar: "9M"},
		{Score: 8, Target: "b", TStart: 4, Strand: "-", QStart: 3, QEnd: 9, TEnd: 9, Cigar: "9M"},
		{Score: 8, Target: "b", TStart: 5, Strand: "+", QStart: 3, QEnd: 9, TEnd: 9, Cigar: "9M"},
		{Score: 8, Target: "b", TStart: 5, Strand: "-", QStart: 2, QEnd: 9, TEnd: 9, Cigar: "9M"},
		{Score: 8, Target: "b", TStart: 5, Strand: "-", QStart: 3, QEnd: 8, TEnd: 9, Cigar: "9M"},
		{Score: 8, Target: "b", TStart: 5, Strand: "-", QStart: 3, QEnd: 9, TEnd: 8, Cigar: "9M"},
		{Score: 8, Target: "b", TStart: 5, Strand: "-", QStart: 3, QEnd: 9, TEnd: 9, Cigar: "8M"},
		{Score: 8, Target: "b", TStart: 5, Strand: "-", QStart: 3, QEnd: 9, TEnd: 9, Cigar: "9M"},
	}
	for i := range sorted {
		for j := range sorted {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := CompareHits(sorted[i], sorted[j]); got != want {
				t.Errorf("CompareHits(#%d, #%d) = %d, want %d", i, j, got, want)
			}
		}
	}
	// Exact and NM are not keys: hits equal on every key tie.
	a, b := sorted[8], sorted[8]
	b.Exact, b.NM = true, 4
	if CompareHits(a, b) != 0 {
		t.Error("CompareHits orders on Exact or NM, which no face may rely on")
	}
}
