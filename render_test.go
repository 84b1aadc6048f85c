package meraligner

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// This file holds the SAM render path to the per-base code it replaced: an
// exact-path hit is rendered with NM 0 without walking its cigar, and read
// bases are unpacked four per packed byte. The reference renderer below is
// that earlier code — editDistance on every hit, BaseAt on every base — kept
// as the oracle.

// repeatRichWorkload returns targets built from a few random units copied
// many times (forward and reverse-complemented) in clusters between unique
// stretches longer than a fragment, and reads drawn from them on both
// strands at lengths of every residue mod 4. Reads from the unique
// stretches take the exact path; reads from the clusters, and every third
// read, which carries substitutions, reach Smith-Waterman.
func repeatRichWorkload(rng *rand.Rand) (targets, reads []Seq) {
	units := make([]dna.Packed, 6)
	for i := range units {
		units[i] = dna.Random(rng, 40+rng.Intn(200))
	}
	for ti := 0; ti < 4; ti++ {
		var parts []dna.Packed
		for j := 0; j < 4; j++ {
			parts = append(parts, dna.Random(rng, 2500+rng.Intn(2500)))
			for range 6 {
				u := units[rng.Intn(len(units))]
				if rng.Intn(2) == 0 {
					u = u.ReverseComplement()
				}
				parts = append(parts, u, dna.Random(rng, 10+rng.Intn(50)))
			}
		}
		targets = append(targets, Seq{Name: fmt.Sprintf("ctg%d", ti), Seq: dna.Concat(parts...)})
	}
	for ri := 0; ri < 600; ri++ {
		t := targets[rng.Intn(len(targets))].Seq
		L := 41 + rng.Intn(120)
		off := rng.Intn(t.Len() - L)
		s := t.Slice(off, off+L)
		if rng.Intn(2) == 0 {
			s = s.ReverseComplement()
		}
		if ri%3 == 0 {
			s = s.Mutate(rng, 0.03)
		}
		var qual []byte
		if ri%5 != 0 {
			qual = make([]byte, L)
			for i := range qual {
				qual[i] = byte('!' + rng.Intn(41))
			}
		}
		reads = append(reads, Seq{Name: "r" + strconv.Itoa(ri), Seq: s, Qual: qual})
	}
	return targets, reads
}

// refRender is the oracle SAM body of a batch: every hit's NM walked by
// editDistance, every base unpacked through BaseAt.
func refRender(res *Results, targets, queries []Seq) []byte {
	var out []byte
	as := res.Window(0, len(queries))
	for qi := range queries {
		var hits []Hit
		for ; len(as) > 0 && as[0].Query == int32(qi); as = as[1:] {
			a, t, strand := &as[0], &targets[as[0].Target], "+"
			if a.RC {
				strand = "-"
			}
			hits = append(hits, Hit{
				Target: t.Name, Strand: strand, Score: int(a.Score),
				QStart: int(a.QStart), QEnd: int(a.QEnd),
				TStart: int(a.TStart), TEnd: int(a.TEnd),
				Cigar: a.Cigar, Exact: a.Exact,
				NM: editDistance(queries[qi].Seq, t.Seq, a),
			})
		}
		slices.SortStableFunc(hits, seqio.CompareHits)
		q := &queries[qi]
		out = refAppendSAMRead(out, q.Name, q.Seq, q.Qual, hits)
	}
	return out
}

// refAppendSAMRead is seqio.AppendSAMRead with the read's bases unpacked
// one at a time.
func refAppendSAMRead(dst []byte, name string, seq dna.Packed, qual []byte, hits []Hit) []byte {
	field := func(dst []byte, v int) []byte { return strconv.AppendInt(append(dst, '\t'), int64(v), 10) }
	end := func(dst []byte, rc bool, score, nm int) []byte {
		dst = append(dst, "\t*\t0\t0\t"...)
		n := seq.Len()
		switch {
		case n == 0:
			dst = append(dst, '*')
		case rc:
			for i := n - 1; i >= 0; i-- {
				dst = append(dst, dna.BaseOf(dna.ComplementCode(seq.CodeAt(i))))
			}
		default:
			for i := 0; i < n; i++ {
				dst = append(dst, seq.BaseAt(i))
			}
		}
		dst = append(dst, '\t')
		switch {
		case len(qual) == 0:
			dst = append(dst, '*')
		case rc:
			for i := len(qual) - 1; i >= 0; i-- {
				dst = append(dst, qual[i])
			}
		default:
			dst = append(dst, qual...)
		}
		if score >= 0 {
			dst = strconv.AppendInt(append(dst, "\tAS:i:"...), int64(score), 10)
		}
		if nm >= 0 {
			dst = strconv.AppendInt(append(dst, "\tNM:i:"...), int64(nm), 10)
		}
		return append(dst, '\n')
	}
	if len(hits) == 0 {
		dst = field(append(dst, name...), seqio.FlagUnmapped)
		dst = append(dst, "\t*\t0\t0\t*"...)
		return end(dst, false, -1, -1)
	}
	mapq := 60
	if len(hits) > 1 {
		mapq = 3
	}
	for i := range hits {
		h, rc := &hits[i], hits[i].Strand == "-"
		flag := 0
		if rc {
			flag |= seqio.FlagReverse
		}
		if i > 0 {
			flag |= seqio.FlagSecondary
		}
		dst = field(append(dst, name...), flag)
		dst = append(dst, '\t')
		if h.Target == "" {
			dst = append(dst, '*')
		}
		dst = append(dst, h.Target...)
		dst = field(field(dst, h.TStart+1), mapq)
		dst = append(dst, '\t')
		if h.QStart > 0 {
			dst = append(strconv.AppendInt(dst, int64(h.QStart), 10), 'S')
		}
		if h.Cigar == "" {
			dst = append(strconv.AppendInt(dst, int64(h.QEnd-h.QStart), 10), 'M')
		}
		dst = append(dst, h.Cigar...)
		if clip := seq.Len() - h.QEnd; clip > 0 {
			dst = append(strconv.AppendInt(dst, int64(clip), 10), 'S')
		}
		dst = end(dst, rc, h.Score, h.NM)
	}
	return dst
}

// TestExactNMShortcutMatchesWalk: on a repeat-rich genome, with reads on
// both strands and of lengths not a multiple of four, every exact-path
// alignment walks to NM 0, and WriteBatch — NM shortcut, table unpacking —
// emits exactly the reference renderer's bytes.
func TestExactNMShortcutMatchesWalk(t *testing.T) {
	targets, reads := repeatRichWorkload(rand.New(rand.NewSource(36)))
	al, err := Build(2, DefaultIndexOptions(19), targets)
	if err != nil {
		t.Fatal(err)
	}
	defer al.Close()
	q := DefaultQueryOptions()
	q.CollectAlignments = true
	res, err := al.Align(context.Background(), reads, q)
	if err != nil {
		t.Fatal(err)
	}
	var exact, exactRC, exactOdd, general int
	for i := range res.Alignments {
		a := &res.Alignments[i]
		if !a.Exact {
			general++
			continue
		}
		exact++
		if a.RC {
			exactRC++
		}
		if reads[a.Query].Seq.Len()%4 != 0 {
			exactOdd++
		}
		if nm := editDistance(reads[a.Query].Seq, targets[a.Target].Seq, a); nm != 0 {
			t.Fatalf("exact-path alignment %+v of read %d walks to NM %d, want 0", *a, a.Query, nm)
		}
	}
	if exactRC == 0 || exact == exactRC || exactOdd == 0 || general == 0 {
		t.Fatalf("workload lost its shape: %d exact (%d reverse, %d with L%%4 != 0), %d general-path alignments",
			exact, exactRC, exactOdd, general)
	}

	var got, header bytes.Buffer
	s, err := NewSAMStream(&got, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBatch(res, reads); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSAMStream(&header, targets); err != nil {
		t.Fatal(err)
	}
	want := append(header.Bytes(), refRender(res, targets, reads)...)
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("SAM line %d differs from the reference renderer:\ngot  %s\nwant %s", i, gl[i], wl[i])
			}
		}
		t.Fatalf("SAM output has %d lines, the reference renderer %d", len(gl), len(wl))
	}
}

// BenchmarkWriteBatchExact renders a 4,096-read batch of exact-path reads
// (both strands, 150 bases) as SAM: the render share of every exact read,
// reported per read, with allocs/op per batch.
func BenchmarkWriteBatchExact(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tgt := dna.Random(rng, 200_000)
	targets := []Seq{{Name: "ctg0", Seq: tgt}}
	reads := make([]Seq, 4096)
	for i := range reads {
		off := rng.Intn(tgt.Len() - 150)
		s := tgt.Slice(off, off+150)
		if i%2 == 1 {
			s = s.ReverseComplement()
		}
		reads[i] = Seq{Name: "r" + strconv.Itoa(i), Seq: s, Qual: bytes.Repeat([]byte("I"), 150)}
	}
	al, err := Build(1, DefaultIndexOptions(31), targets)
	if err != nil {
		b.Fatal(err)
	}
	defer al.Close()
	q := DefaultQueryOptions()
	q.CollectAlignments = true
	res, err := al.Align(context.Background(), reads, q)
	if err != nil {
		b.Fatal(err)
	}
	if res.ExactPathReads < len(reads)*99/100 {
		b.Fatalf("only %d of %d reads took the exact path", res.ExactPathReads, len(reads))
	}
	s, err := NewSAMStream(io.Discard, targets)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteBatch(res, reads); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reads)), "ns/read")
}
