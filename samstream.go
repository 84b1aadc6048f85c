package meraligner

import (
	"fmt"
	"io"
	"slices"
	"strconv"

	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// SAMStream writes SAM output incrementally: the header once at creation,
// then one WriteBatch call per aligned query batch. A batches-mode server
// holds one SAMStream for the life of an output and streams every batch
// through it, so output memory stays O(batch) instead of O(total reads).
//
// Records carry a real NM (edit distance) tag computed from the cigar and
// the sequences, and local alignments get soft clips so the cigar spans the
// read — valid SAM for downstream tools.
type SAMStream struct {
	sw      *seqio.SAMWriter
	targets []Seq
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
// those queries.
func (s *SAMStream) WriteRange(res *Results, queries []Seq, lo, hi int) error {
	if lo < 0 || hi < lo || hi > len(queries) {
		return fmt.Errorf("meraligner: SAM range [%d,%d) out of range of %d queries", lo, hi, len(queries))
	}
	var err error // the writer's error is sticky, so the last one tells
	ReadHits(res, s.targets, queries, lo, hi, func(qi int, hits []Hit) {
		q := &queries[qi]
		err = s.sw.WriteRead(q.Name, q.Seq, q.Qual, hits)
	})
	return err
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
	as := res.Window(lo, hi)
	var hits []Hit
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
