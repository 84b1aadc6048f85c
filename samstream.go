package meraligner

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// SAMStream writes SAM output incrementally: the header once at creation,
// then one WriteBatch call per aligned query batch. A batches-mode server
// holds one SAMStream for the life of an output and streams every batch
// through it. A window renders into text buffers the stream keeps for the
// next window — one per part, and a window of at least 2×renderPart reads
// renders its parts on up to GOMAXPROCS goroutines — so output memory is
// one window of SAM text per stream, and never more than GOMAXPROCS ×
// renderRound reads of it, whatever the total number of reads. Smaller
// windows render in one part on the caller's goroutine.
//
// Records carry a real NM (edit distance) tag computed from the cigar and
// the sequences, and local alignments get soft clips so the cigar spans the
// read — valid SAM for downstream tools.
type SAMStream struct {
	sw      *seqio.SAMWriter
	targets []Seq
	parts   []renderBuf // one per part of the largest window rendered so far
	wg      sync.WaitGroup
}

// renderBuf is one part's reusable render state: its SAM text and the hit
// list readHits fills per read.
type renderBuf struct {
	text []byte
	hits []Hit
}

// renderPart is the fewest reads one part of a parallel render gets: ~50 µs
// of rendering at ~200 ns a read, against ~1 µs to start and join a
// goroutine, and far above a serving request's 8–32 reads, which stay on
// the caller's goroutine.
const renderPart = 256

// renderRound is the most reads one part renders before the parts are
// written out: a window larger than GOMAXPROCS×renderRound reads renders in
// rounds, so a stream holds at most that many reads of SAM text (~3 MB a
// CPU at 150-base reads) however large the batch.
const renderRound = 8192

// renderParts is how many parts a window of reads renders in: one per
// renderPart reads, at most GOMAXPROCS, and at least one.
func renderParts(reads int) int {
	return max(1, min(runtime.GOMAXPROCS(0), reads/renderPart))
}

// NewSAMStream writes the @HD/@SQ/@PG header for targets and returns the
// stream. The same targets must be the set the alignments refer to.
func NewSAMStream(w io.Writer, targets []Seq) (*SAMStream, error) {
	refs := make([]seqio.SAMRef, len(targets))
	for i, t := range targets {
		refs[i] = seqio.SAMRef{Name: t.Name, Len: t.Seq.Len()}
	}
	sw, err := seqio.NewSAMWriter(w, refs)
	if err != nil {
		return nil, err
	}
	return &SAMStream{sw: sw, targets: targets}, nil
}

// WriteBatch emits one record set for a batch: alignments in res refer to
// queries by index into this batch's slice. Reads with no alignment get an
// unmapped record; the best-scoring alignment of each read is primary, the
// rest are flagged secondary.
func (s *SAMStream) WriteBatch(res *Results, queries []Seq) error {
	return s.WriteRange(res, queries, 0, len(queries))
}

// WriteRange emits records for the queries [lo, hi) of a batch, reading
// their alignments straight out of the full batch's res — the rendering
// half of coalesced-batch demuxing: a server that glued several requests
// into one engine call streams each request's SAM records from the shared
// Results without slicing it first, at a cost that depends on the window,
// not on the call. Record content is identical to a WriteBatch over just
// those queries. A large window renders in contiguous parts concurrently
// (see SAMStream); the parts are written in input order, so the bytes are
// those of a serial render. A write error is sticky: it is returned by this
// and every later call.
func (s *SAMStream) WriteRange(res *Results, queries []Seq, lo, hi int) error {
	if lo < 0 || hi < lo || hi > len(queries) {
		return fmt.Errorf("meraligner: SAM range [%d,%d) out of range of %d queries", lo, hi, len(queries))
	}
	as := res.Window(lo, hi)
	for lo < hi {
		end := min(hi, lo+runtime.GOMAXPROCS(0)*renderRound)
		if err := s.writeRound(as, queries, lo, end); err != nil {
			return err
		}
		lo = end
	}
	return nil
}

// writeRound renders the queries [lo, hi), whose records are in as, in
// renderParts parts — part 0 on the caller's goroutine, each other on one
// of its own — then writes the parts in order.
func (s *SAMStream) writeRound(as []Alignment, queries []Seq, lo, hi int) error {
	n := renderParts(hi - lo)
	for len(s.parts) < n {
		s.parts = append(s.parts, renderBuf{})
	}
	s.wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func() {
			defer s.wg.Done()
			s.render(i, n, as, queries, lo, hi)
		}()
	}
	s.render(0, n, as, queries, lo, hi)
	s.wg.Wait()
	for i := range n {
		if err := s.sw.WriteRecords(s.parts[i].text); err != nil {
			return err
		}
	}
	return nil
}

// render renders part i of n of the window [lo, hi), whose records are
// as, into s.parts[i].text. The part's records start at the first of query
// plo; readHits stops at phi by itself.
func (s *SAMStream) render(i, n int, as []Alignment, queries []Seq, lo, hi int) {
	plo, phi := lo+(hi-lo)*i/n, lo+(hi-lo)*(i+1)/n
	first, _ := slices.BinarySearchFunc(as, int32(plo), func(a Alignment, q int32) int { return cmp.Compare(a.Query, q) })
	as = as[first:]
	b := &s.parts[i]
	text := b.text[:0]
	b.hits = readHits(as, s.targets, queries, plo, phi, b.hits, func(qi int, hits []Hit) {
		q := &queries[qi]
		text = seqio.AppendSAMRead(text, q.Name, q.Seq, q.Qual, hits)
	})
	b.text = text
}

// Flush flushes buffered output; call once after the final batch.
func (s *SAMStream) Flush() error { return s.sw.Flush() }

// ReadHits resolves the engine's records for the queries [lo, hi) of a
// batch into output terms: fn runs once per query, in order, with that
// read's hits — target named, NM computed against the target's bases (an
// exact-path hit's is 0 by construction: tryExact compared it whole) — in
// the canonical order (seqio.CompareHits) every output face emits, so the
// first hit is the read's primary record. A read that aligned nowhere gets
// an empty list. The slice is reused between calls; fn must copy what it
// keeps. This is the only reading of engine records on the way out: SAM
// (WriteRange) appends each read's hits as records, a JSON response
// encodes them as they are.
func ReadHits(res *Results, targets, queries []Seq, lo, hi int, fn func(qi int, hits []Hit)) {
	readHits(res.Window(lo, hi), targets, queries, lo, hi, nil, fn)
}

// readHits is ReadHits over as, the records of the queries [lo, hi) in
// query order, building each read's list in hits; it returns the grown
// list for the caller to reuse.
func readHits(as []Alignment, targets, queries []Seq, lo, hi int, hits []Hit, fn func(qi int, hits []Hit)) []Hit {
	for qi := lo; qi < hi; qi++ {
		hits = hits[:0]
		for ; len(as) > 0 && as[0].Query == int32(qi); as = as[1:] {
			a, t, strand := &as[0], &targets[as[0].Target], "+"
			if a.RC {
				strand = "-"
			}
			nm := 0 // the exact path compared every base: nothing to walk
			if !a.Exact {
				nm = editDistance(queries[qi].Seq, t.Seq, a)
			}
			hits = append(hits, Hit{
				Target: t.Name, Strand: strand, Score: int(a.Score),
				QStart: int(a.QStart), QEnd: int(a.QEnd),
				TStart: int(a.TStart), TEnd: int(a.TEnd),
				Cigar: a.Cigar, Exact: a.Exact, NM: nm,
			})
		}
		slices.SortStableFunc(hits, seqio.CompareHits)
		fn(qi, hits)
	}
	return hits
}

// editDistance is the SAM NM tag of alignment a of read q against target t:
// mismatches inside M runs plus all inserted and deleted bases, walked from
// the cigar over the read's aligned strand (from a.QStart) and the target
// window [a.TStart, a.TEnd). An empty cigar is one M run of QEnd-QStart
// bases (the exact-path convention). Both sequences are read in place
// through CodeAt, so the walk allocates nothing. Returns -1 — the
// omit-the-tag convention — when the cigar is malformed or oversteps either
// sequence, or the target window lies outside t.
func editDistance(q, t dna.Packed, a *Alignment) int {
	if a.TStart < 0 || int(a.TEnd) > t.Len() || a.TStart > a.TEnd {
		return -1
	}
	cigar := a.Cigar
	if cigar == "" {
		var run [24]byte // short and local: the conversion stays on the stack
		cigar = string(append(strconv.AppendInt(run[:0], int64(a.QEnd-a.QStart), 10), 'M'))
	}
	L, qp, tp, tEnd, nm := q.Len(), int(a.QStart), int(a.TStart), int(a.TEnd), 0
	for cigar != "" {
		op, n, rest, ok := nextCigarOp(cigar)
		if !ok {
			return -1
		}
		cigar = rest
		if op != 'D' { // M and I consume the read
			if qp+n > L {
				return -1
			}
			qp += n
		}
		if op != 'I' { // M and D consume the target
			if tp+n > tEnd {
				return -1
			}
			tp += n
		}
		if op != 'M' {
			nm += n
			continue
		}
		for i := 1; i <= n; i++ {
			qc := q.CodeAt(qp - i)
			if a.RC {
				qc = dna.ComplementCode(q.CodeAt(L - 1 - qp + i))
			}
			if qc != t.CodeAt(tp-i) {
				nm++
			}
		}
	}
	return nm
}

// nextCigarOp splits the first run off a SAM-style run-length cigar of
// M/I/D operations: its op, its nonzero length and the rest.
func nextCigarOp(s string) (op byte, n int, rest string, ok bool) {
	i := 0
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		n = n*10 + int(s[i]-'0')
	}
	if i == 0 || i == len(s) || n == 0 || (s[i] != 'M' && s[i] != 'I' && s[i] != 'D') {
		return 0, 0, "", false
	}
	return s[i], n, s[i+1:], true
}
