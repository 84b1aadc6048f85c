package meraligner

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"strings"
	"testing"

	"github.com/lbl-repro/meraligner/internal/align"
	"github.com/lbl-repro/meraligner/internal/dna"
)

// cigarRuns splits a whole cigar with nextCigarOp, the way editDistance does.
func cigarRuns(s string) (align.Cigar, bool) {
	var out align.Cigar
	for s != "" {
		op, n, rest, ok := nextCigarOp(s)
		if !ok {
			return nil, false
		}
		out = append(out, align.CigarOp{Op: op, Len: n})
		s = rest
	}
	return out, len(out) > 0
}

func TestParseCigarAcceptsWellFormed(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string // round-trip via align.Cigar.String
	}{
		{"5M", "5M"},
		{"3M2I4D1M", "3M2I4D1M"},
		{"12M", "12M"},
		{"1M1I1D1M", "1M1I1D1M"},
	} {
		ops, ok := cigarRuns(tc.in)
		if !ok {
			t.Errorf("cigar %q: rejected, want accepted", tc.in)
			continue
		}
		if got := ops.String(); got != tc.want {
			t.Errorf("cigar %q round-trips to %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestParseCigarRejectsMalformed(t *testing.T) {
	long := dna.MustPack("ACGTACGTACGTACGTACGT")
	for _, in := range []string{
		"",      // empty
		"M",     // op with no count
		"3",     // count with no op
		"3M2",   // trailing count
		"0M",    // zero-length op
		"3X",    // unsupported op (hard clips, skips, etc. never come from the engine)
		"3S5M",  // soft clips are added by the writer, never parsed back
		"-3M",   // not a digit
		"3M0I",  // zero-length op after a valid one
		"3MM",   // op with no count after a valid one
		"4H5M",  // hard clip
		"5M \t", // garbage tail
	} {
		if ops, ok := cigarRuns(in); ok {
			t.Errorf("cigar %q: accepted as %v, want rejected", in, ops)
		}
		if in == "" {
			continue // to editDistance an empty cigar is the exact path's one M run
		}
		if nm := editDistance(long, long, &Alignment{Cigar: in, QEnd: 20, TEnd: 20}); nm != -1 {
			t.Errorf("editDistance over cigar %q = %d, want -1 (tag omitted)", in, nm)
		}
	}
}

func TestEditDistance(t *testing.T) {
	tgt := dna.MustPack("ACGTACGTACGT")
	for _, tc := range []struct {
		name   string
		cigar  string
		q      string
		qStart int
		tStart int
		tEnd   int
		want   int
		ok     bool
	}{
		{"perfect match", "4M", "ACGT", 0, 0, 4, 0, true},
		{"one mismatch", "4M", "ACCT", 0, 0, 4, 1, true},
		{"all mismatch", "4M", "CAAC", 0, 0, 4, 4, true},
		{"offset windows", "4M", "GGTACG", 2, 3, 7, 0, true},
		{"insertion counts", "2M2I2M", "ACAAGT", 0, 0, 4, 2, true},
		{"deletion counts", "2M2D2M", "ACAC", 0, 0, 6, 2, true},
		{"mixed indel and mismatch", "2M1I1M", "ACTA", 0, 0, 3, 2, true},
		{"query overstepped by M", "6M", "ACGT", 0, 0, 6, 0, false},
		{"query overstepped by I", "4M2I", "ACGTA", 0, 0, 4, 0, false},
		{"target window overstepped by M", "6M", "ACGTAC", 0, 0, 4, 0, false},
		{"target window overstepped by D", "4M2D", "ACGT", 0, 0, 5, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.ok {
				tc.want = -1
			}
			q := dna.MustPack(tc.q)
			a := Alignment{Cigar: tc.cigar, QStart: int32(tc.qStart), TStart: int32(tc.tStart), TEnd: int32(tc.tEnd)}
			if got := editDistance(q, tgt, &a); got != tc.want {
				t.Fatalf("editDistance=%d, want %d", got, tc.want)
			}
			// The reverse strand is walked in place: the read's reverse
			// complement aligned forward is the read aligned RC.
			a.RC = true
			if got := editDistance(q.ReverseComplement(), tgt, &a); got != tc.want {
				t.Fatalf("editDistance on the reverse strand=%d, want %d", got, tc.want)
			}
		})
	}
}

func TestEditDistanceRejectsUnknownOp(t *testing.T) {
	// Hard clips (and any other op) cannot be charged against either
	// sequence; the walker must bail out rather than guess.
	acgt := dna.MustPack("ACGT")
	if nm := editDistance(acgt, acgt, &Alignment{Cigar: "2H2M", QEnd: 4, TEnd: 4}); nm != -1 {
		t.Fatalf("editDistance accepted a cigar with a hard-clip op: NM %d", nm)
	}
	// A window outside the target omits the tag too.
	if nm := editDistance(acgt, acgt, &Alignment{Cigar: "4M", QEnd: 4, TStart: 2, TEnd: 6}); nm != -1 {
		t.Fatalf("editDistance accepted a target window past the target: NM %d", nm)
	}
}

// samBody renders a record set and strips the header lines.
func samBody(t *testing.T, render func(s *SAMStream) error, targets []Seq) []string {
	t.Helper()
	var buf bytes.Buffer
	s, err := NewSAMStream(&buf, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := render(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var body []string
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if line != "" && !strings.HasPrefix(line, "@") {
			body = append(body, line)
		}
	}
	return body
}

func TestSAMStreamUnmappedRecord(t *testing.T) {
	targets := []Seq{{Name: "t0", Seq: dna.MustPack("ACGTACGTACGT")}}
	queries := []Seq{{Name: "lonely", Seq: dna.MustPack("AACC"), Qual: []byte("IIII")}}
	res := &Results{TotalReads: 1} // no alignments at all
	lines := samBody(t, func(s *SAMStream) error { return s.WriteBatch(res, queries) }, targets)
	if len(lines) != 1 {
		t.Fatalf("got %d records, want 1 unmapped:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	f := strings.Split(lines[0], "\t")
	if f[0] != "lonely" || f[1] != "4" || f[2] != "*" || f[3] != "0" || f[5] != "*" {
		t.Fatalf("unmapped record malformed: %q", lines[0])
	}
	if strings.Contains(lines[0], "AS:i:") || strings.Contains(lines[0], "NM:i:") {
		t.Fatalf("unmapped record carries score tags: %q", lines[0])
	}
	if f[9] != "AACC" || f[10] != "IIII" {
		t.Fatalf("unmapped record must keep seq/qual: %q", lines[0])
	}
}

func TestSAMStreamSoftClipsAndNM(t *testing.T) {
	//            0123456789
	tgt := dna.MustPack("AAACGTACGTTT")
	targets := []Seq{{Name: "t0", Seq: tgt}}
	// Query aligns bases [1,5) onto target [3,7) with one mismatch; the
	// unaligned head and tail must come back as soft clips.
	queries := []Seq{{Name: "clipme", Seq: dna.MustPack("GCGTTTT")}}
	res := &Results{
		TotalReads: 1,
		Alignments: []Alignment{{
			Query: 0, Target: 0, Score: 3,
			QStart: 1, QEnd: 5, TStart: 3, TEnd: 7,
			Cigar: "4M",
		}},
	}
	lines := samBody(t, func(s *SAMStream) error { return s.WriteBatch(res, queries) }, targets)
	if len(lines) != 1 {
		t.Fatalf("got %d records, want 1", len(lines))
	}
	f := strings.Split(lines[0], "\t")
	if f[5] != "1S4M2S" {
		t.Fatalf("cigar %q, want soft-clipped 1S4M2S", f[5])
	}
	if f[3] != "4" { // TStart 3 → 1-based 4
		t.Fatalf("pos %q, want 4", f[3])
	}
	// Query bases [1,5) are CGTT; target [3,7) is CGTA → one mismatch, and
	// the soft-clipped tails must not be charged to NM.
	if !strings.Contains(lines[0], "NM:i:1") {
		t.Fatalf("record %q lacks NM:i:1", lines[0])
	}
}

func TestSAMStreamEmptyCigarFallsBackToMatchRun(t *testing.T) {
	tgt := dna.MustPack("ACGTACGT")
	targets := []Seq{{Name: "t0", Seq: tgt}}
	queries := []Seq{{Name: "fast", Seq: dna.MustPack("ACGT")}}
	// Exact-path alignments carry no cigar; the writer synthesizes one.
	res := &Results{
		TotalReads: 1,
		Alignments: []Alignment{{
			Query: 0, Target: 0, Score: 4, Exact: true,
			QStart: 0, QEnd: 4, TStart: 0, TEnd: 4,
		}},
	}
	lines := samBody(t, func(s *SAMStream) error { return s.WriteBatch(res, queries) }, targets)
	f := strings.Split(lines[0], "\t")
	if f[5] != "4M" {
		t.Fatalf("cigar %q, want synthesized 4M", f[5])
	}
	if !strings.Contains(lines[0], "NM:i:0") {
		t.Fatalf("record %q lacks NM:i:0", lines[0])
	}
}

func TestWriteRangeMatchesWriteBatch(t *testing.T) {
	tgt := dna.MustPack("ACGTACGTACGTACGT")
	targets := []Seq{{Name: "t0", Seq: tgt}}
	queries := []Seq{
		{Name: "q0", Seq: dna.MustPack("ACGTA")},
		{Name: "q1", Seq: dna.MustPack("TTTTT")}, // unmapped
		{Name: "q2", Seq: dna.MustPack("CGTAC")},
		{Name: "q3", Seq: dna.MustPack("GTACG")},
	}
	res := &Results{
		TotalReads: len(queries),
		Alignments: []Alignment{
			{Query: 0, Target: 0, Score: 5, QStart: 0, QEnd: 5, TStart: 0, TEnd: 5, Cigar: "5M"},
			{Query: 2, Target: 0, Score: 5, QStart: 0, QEnd: 5, TStart: 1, TEnd: 6, Cigar: "5M"},
			{Query: 2, Target: 0, Score: 5, QStart: 0, QEnd: 5, TStart: 5, TEnd: 10, Cigar: "5M"},
			{Query: 3, Target: 0, Score: 5, QStart: 0, QEnd: 5, TStart: 2, TEnd: 7, Cigar: "5M"},
		},
	}
	full := samBody(t, func(s *SAMStream) error { return s.WriteBatch(res, queries) }, targets)
	var ranged []string
	for _, w := range [][2]int{{0, 1}, {1, 3}, {3, 4}} {
		ranged = append(ranged, samBody(t, func(s *SAMStream) error {
			return s.WriteRange(res, queries, w[0], w[1])
		}, targets)...)
	}
	if strings.Join(full, "\n") != strings.Join(ranged, "\n") {
		t.Fatalf("WriteRange windows diverge from WriteBatch:\nfull:\n%s\nranged:\n%s",
			strings.Join(full, "\n"), strings.Join(ranged, "\n"))
	}
	// A hand-built Results in any record order renders the same windows:
	// only an engine's Results is trusted to be in query order.
	a := res.Alignments
	shuffled := &Results{TotalReads: len(queries), Alignments: []Alignment{a[3], a[2], a[0], a[1]}}
	ranged = nil
	for _, w := range [][2]int{{0, 1}, {1, 3}, {3, 4}} {
		ranged = append(ranged, samBody(t, func(s *SAMStream) error {
			return s.WriteRange(shuffled, queries, w[0], w[1])
		}, targets)...)
	}
	if strings.Join(full, "\n") != strings.Join(ranged, "\n") {
		t.Fatalf("WriteRange over shuffled records diverges from WriteBatch:\nfull:\n%s\nranged:\n%s",
			strings.Join(full, "\n"), strings.Join(ranged, "\n"))
	}
	if _, err := NewSAMStream(&bytes.Buffer{}, targets); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s, _ := NewSAMStream(&buf, targets)
	if err := s.WriteRange(res, queries, 2, 9); err == nil {
		t.Fatal("WriteRange accepted an out-of-range window")
	}
}

// TestWriteBatchAllocs bounds the output path's allocations for one
// exact-path read rendered into a warm stream. The parent of the commit that
// introduced seqio.AppendSAMRead measured 11 allocations here (fmt.Sprintf
// cigars, String() bases, a map per window, a reflect swapper per sort).
func TestWriteBatchAllocs(t *testing.T) {
	tgt := dna.Random(rand.New(rand.NewSource(5)), 5000)
	targets := []Seq{{Name: "ctg0", Seq: tgt}}
	al, err := Build(1, DefaultIndexOptions(19), targets)
	if err != nil {
		t.Fatal(err)
	}
	reads := []Seq{{Name: "r0", Seq: tgt.Slice(1000, 1100), Qual: bytes.Repeat([]byte("I"), 100)}}
	q := DefaultQueryOptions()
	q.CollectAlignments = true
	res, err := al.Align(context.Background(), reads, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alignments) != 1 || !res.Alignments[0].Exact {
		t.Fatalf("fixture read did not take the exact path: %+v", res.Alignments)
	}
	s, err := NewSAMStream(io.Discard, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBatch(res, reads); err != nil { // warm the stream's buffer
		t.Fatal(err)
	}
	const parent = 11
	if n := testing.AllocsPerRun(200, func() { s.WriteBatch(res, reads) }); n >= parent || n > 1 {
		t.Errorf("WriteBatch allocates %v times per exact read; the parent measured %d and the hit list is the only allocation left", n, parent)
	}
}
