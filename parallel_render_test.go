package meraligner

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// This file holds SAMStream's parallel render to the serial one: a window of
// at least 2×renderPart reads renders in parts on several goroutines, and its
// bytes must be those of rendering each read alone, in order.

// renderWorkload returns n reads against repeatRichWorkload's targets
// and their Results: its 600 reads (exact-path reads on both strands, and
// Smith-Waterman reads with substitutions or repeat hits), with every 13th
// replaced by random bases that align nowhere and every 101st by a read too
// short to seed, are aligned once and then tiled under fresh names, their
// records copied with the query index moved along.
func renderWorkload(t testing.TB, n int) (targets, reads []Seq, res *Results) {
	t.Helper()
	rng := rand.New(rand.NewSource(47))
	targets, base := repeatRichWorkload(rng)
	for i := range base {
		switch {
		case i%101 == 0:
			base[i].Seq, base[i].Qual = dna.Random(rng, 7), nil
		case i%13 == 0:
			base[i].Seq = dna.Random(rng, base[i].Seq.Len())
		}
	}
	al, err := Build(2, DefaultIndexOptions(19), targets)
	if err != nil {
		t.Fatal(err)
	}
	defer al.Close()
	q := DefaultQueryOptions()
	q.CollectAlignments = true
	one, err := al.Align(context.Background(), base, q)
	if err != nil {
		t.Fatal(err)
	}
	reads = make([]Seq, n)
	res = &Results{TotalReads: len(reads)}
	for lo := 0; lo < len(reads); lo += len(base) {
		for i := range min(len(base), len(reads)-lo) {
			reads[lo+i] = base[i]
			reads[lo+i].Name = "p" + strconv.Itoa(lo+i)
		}
		for _, a := range one.Alignments {
			if a.Query += int32(lo); int(a.Query) < len(reads) {
				res.Alignments = append(res.Alignments, a)
			}
		}
		for _, qi := range one.TooShort {
			if qi += int32(lo); int(qi) < len(reads) {
				res.TooShort = append(res.TooShort, qi)
			}
		}
	}
	return targets, reads, res
}

// perReadSAM is the serial reference: each read of [lo, hi) rendered on its
// own, through ReadHits over a Results holding only that read's records and
// AppendSAMRead.
func perReadSAM(res *Results, targets, reads []Seq, lo, hi int) []byte {
	var out []byte
	as := res.Window(lo, hi)
	for qi := lo; qi < hi; qi++ {
		n := 0
		for n < len(as) && as[n].Query == int32(qi) {
			n++
		}
		one := &Results{TotalReads: len(reads), Alignments: as[:n]}
		as = as[n:]
		ReadHits(one, targets, reads, qi, qi+1, func(qi int, hits []Hit) {
			q := &reads[qi]
			out = seqio.AppendSAMRead(out, q.Name, q.Seq, q.Qual, hits)
		})
	}
	return out
}

// TestParallelRenderMatchesPerRead renders windows below, at and above the
// parallel threshold and of 4,096 reads at GOMAXPROCS 4, then, at
// GOMAXPROCS 1, windows of more reads than one round holds
// (GOMAXPROCS×renderRound), through fresh streams and through one stream
// reused across them all.
func TestParallelRenderMatchesPerRead(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	targets, reads, res := renderWorkload(t, renderRound+800)
	var exactFwd, exactRC, general, unmapped int
	aligned := make([]bool, len(reads))
	for _, a := range res.Alignments {
		aligned[a.Query] = true
		switch {
		case !a.Exact:
			general++
		case a.RC:
			exactRC++
		default:
			exactFwd++
		}
	}
	for _, ok := range aligned {
		if !ok {
			unmapped++
		}
	}
	if exactFwd == 0 || exactRC == 0 || general == 0 || unmapped == 0 || len(res.TooShort) == 0 {
		t.Fatalf("workload lost its shape: %d+%d exact (fwd+rc), %d general alignments, %d unmapped reads, %d too short",
			exactFwd, exactRC, general, unmapped, len(res.TooShort))
	}

	threshold := 2 * renderPart
	if renderParts(threshold-1) != 1 || renderParts(threshold) != 2 || renderParts(4096) != 4 {
		t.Fatalf("renderParts(%d, %d, 4096) = %d, %d, %d; want 1, 2, 4 at GOMAXPROCS 4", threshold-1, threshold,
			renderParts(threshold-1), renderParts(threshold), renderParts(4096))
	}
	windows := [][2]int{
		{0, threshold - 1}, {0, threshold}, {0, threshold + 1},
		{1000, 1000 + threshold + 1}, {0, 4096}, {7, 12}, {4096 - threshold, 4096},
		{0, len(reads)}, {5, renderRound + 700}, // two rounds each at GOMAXPROCS 1
	}
	var header bytes.Buffer
	if _, err := NewSAMStream(&header, targets); err != nil {
		t.Fatal(err)
	}
	// One stream through every window in turn, so the part buffers are
	// reused at every size, and a fresh stream per window.
	var all bytes.Buffer
	shared, err := NewSAMStream(&all, targets)
	if err != nil {
		t.Fatal(err)
	}
	wantAll := bytes.Clone(header.Bytes())
	for _, w := range windows {
		if w[1] > 4096 {
			runtime.GOMAXPROCS(1)
		}
		want := perReadSAM(res, targets, reads, w[0], w[1])
		wantAll = append(wantAll, want...)
		var got bytes.Buffer
		s, err := NewSAMStream(&got, targets)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteRange(res, reads, w[0], w[1]); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes()[header.Len():], want) {
			t.Fatalf("window %v: WriteRange differs from the per-read render (%d bytes, want %d)", w, got.Len()-header.Len(), len(want))
		}
		if err := shared.WriteRange(res, reads, w[0], w[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := shared.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all.Bytes(), wantAll) {
		t.Fatalf("a stream reused across windows differs from the per-read render (%d bytes, want %d)", all.Len(), len(wantAll))
	}

	// A window of more than one round (GOMAXPROCS is 1 here) is written a
	// round at a time: no write carries more than the first renderRound
	// reads' text.
	var w largestWrite
	s, err := NewSAMStream(&w, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRange(res, reads, 0, len(reads)); err != nil {
		t.Fatal(err)
	}
	if round := len(perReadSAM(res, targets, reads, 0, renderRound)); w.max > round {
		t.Fatalf("a %d-read window was written in a %d-byte write; one round of %d reads is %d bytes", len(reads), w.max, renderRound, round)
	}
}

// largestWrite discards what it is given and keeps the size of the largest
// write.
type largestWrite struct{ max int }

func (w *largestWrite) Write(p []byte) (int, error) {
	w.max = max(w.max, len(p))
	return len(p), nil
}

// failAfter accepts limit bytes, then fails every write.
type failAfter struct {
	limit int
	err   error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, w.err
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestRenderWriterErrorSticky: a writer that fails mid-window makes a
// parallel WriteBatch return its error, and every later call — parallel,
// serial or Flush — returns it again.
func TestRenderWriterErrorSticky(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	targets, reads, res := renderWorkload(t, 4096)
	full := errors.New("disk full")
	var header bytes.Buffer
	if _, err := NewSAMStream(&header, targets); err != nil {
		t.Fatal(err)
	}
	for _, first := range [][2]int{{0, len(reads)}, {0, 300}} {
		s, err := NewSAMStream(&failAfter{limit: header.Len() + 100_000, err: full}, targets)
		if err != nil {
			t.Fatal(err)
		}
		for range 4 { // the first call may still fit under the spill size
			err = s.WriteRange(res, reads, first[0], first[1])
		}
		if !errors.Is(err, full) {
			t.Fatalf("window %v: WriteRange over a failing writer returned %v, want %v", first, err, full)
		}
		for _, w := range [][2]int{{0, len(reads)}, {0, 3}} {
			if err := s.WriteRange(res, reads, w[0], w[1]); !errors.Is(err, full) {
				t.Fatalf("window %v after a failed write returned %v, want the sticky %v", w, err, full)
			}
		}
		if err := s.Flush(); !errors.Is(err, full) {
			t.Fatalf("Flush after a failed write returned %v, want the sticky %v", err, full)
		}
	}
}

// TestParallelWriteBatchAllocs bounds a warm 4,096-read WriteBatch of
// exact-path reads on four parts: the part buffers, hit lists and wait group
// are the stream's, so what is left is one closure per goroutine started —
// three (measured 3.0–4.0 per batch over 50 batches on go1.24, the excess
// being the runtime's own; the check takes the floor over 200).
func TestParallelWriteBatchAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(2))
	tgt := dna.Random(rng, 100_000)
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
		t.Fatal(err)
	}
	defer al.Close()
	q := DefaultQueryOptions()
	q.CollectAlignments = true
	res, err := al.Align(context.Background(), reads, q)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSAMStream(io.Discard, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBatch(res, reads); err != nil { // warm the part buffers
		t.Fatal(err)
	}
	// testing.AllocsPerRun would pin GOMAXPROCS to 1, which renders
	// serially; count the process's mallocs around the runs instead.
	const runs, measured = 200, 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if err := s.WriteBatch(res, reads); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := (after.Mallocs - before.Mallocs) / runs; n > measured {
		t.Errorf("a warm 4,096-read WriteBatch allocates %d times; measured %d", n, measured)
	}
}
