package seqio

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"github.com/lbl-repro/meraligner/internal/dna"
)

// SAM output. This file is the one place that knows what a read's output
// is: the Hit record (which is also the wire alignment), the canonical order
// of a read's hits (CompareHits) and the bytes of its SAM records
// (AppendSAMRead). A node resolves engine records to hits and renders them,
// as SAM here or as JSON by encoding them; a router decodes hits off the
// wire and renders them here — so two topologies over the same index
// contents cannot disagree on a byte. The SAM view is the minimal faithful
// subset downstream tools consume: @HD/@SQ/@PG headers and one line per hit
// with flags for strand/unmapped/secondary.

// Hit is one reported alignment of a read in output terms: the target is
// named (no index into anyone's target set), intervals are half-open, and
// the edit distance is already computed, so a SAM line needs nothing else —
// no target bases in particular. Its JSON encoding is the wire alignment
// (client.Alignment is this type).
type Hit struct {
	Target string `json:"target"` // reference sequence name
	Strand string `json:"strand"` // "+", or "-" when the read aligned reverse-complemented
	Score  int    `json:"score"`
	QStart int    `json:"qstart"` // read interval [QStart, QEnd), on the aligned strand
	QEnd   int    `json:"qend"`
	TStart int    `json:"tstart"` // target interval [TStart, TEnd)
	TEnd   int    `json:"tend"`
	// Cigar is M/I/D runs over the aligned interval; "" is one M run of
	// QEnd-QStart, the exact-match fast path's (Exact) convention.
	Cigar string `json:"cigar,omitempty"`
	Exact bool   `json:"exact,omitempty"`
	// NM is the SAM edit distance, computed where the target bases are.
	// Negative when underivable: the tag is then omitted.
	NM int `json:"nm"`
}

// CompareHits is the canonical order of one read's hits: score descending,
// then target name, target start, strand ("+" first), read start, read end,
// target end and cigar. The first hit of a sorted list — always a
// best-scoring one — is the read's primary SAM record. No key is a target
// index or a base, which is what lets a router that only ever sees wire
// alignments land on the order a single whole-reference node emits.
func CompareHits(a, b Hit) int {
	return cmp.Or(
		cmp.Compare(b.Score, a.Score),
		strings.Compare(a.Target, b.Target),
		cmp.Compare(a.TStart, b.TStart),
		strings.Compare(a.Strand, b.Strand),
		cmp.Compare(a.QStart, b.QStart),
		cmp.Compare(a.QEnd, b.QEnd),
		cmp.Compare(a.TEnd, b.TEnd),
		strings.Compare(a.Cigar, b.Cigar),
	)
}

// SAM flag bits used here.
const (
	FlagUnmapped  = 0x4
	FlagReverse   = 0x10
	FlagSecondary = 0x100
)

// AppendSAMRead appends one read's SAM records to dst and returns it. hits
// must be in canonical order (CompareHits): the first is primary, the rest
// are flagged secondary, and MAPQ is 60 for a unique hit and 3 otherwise. A
// read with no hits — one that aligned nowhere, or was too short to seed —
// gets a single unmapped record. Local alignments are soft-clipped so the
// cigar spans the read; a reverse-strand hit shows the read reverse-
// complemented with its qualities reversed. Empty fields render as "*" and
// negative Score or NM omit their tag. Nothing is allocated beyond dst's
// own growth.
func AppendSAMRead(dst []byte, name string, seq dna.Packed, qual []byte, hits []Hit) []byte {
	if len(hits) == 0 {
		dst = appendField(append(dst, name...), FlagUnmapped)
		dst = append(dst, "\t*\t0\t0\t*"...)
		return appendReadEnd(dst, seq, qual, false, -1, -1)
	}
	mapq := 60
	if len(hits) > 1 {
		mapq = 3
	}
	for i := range hits {
		h, rc := &hits[i], hits[i].Strand == "-"
		flag := 0
		if rc {
			flag |= FlagReverse
		}
		if i > 0 {
			flag |= FlagSecondary
		}
		dst = appendField(append(dst, name...), flag)
		dst = append(dst, '\t')
		if h.Target == "" {
			dst = append(dst, '*')
		}
		dst = append(dst, h.Target...)
		dst = appendField(appendField(dst, h.TStart+1), mapq)
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
		dst = appendReadEnd(dst, seq, qual, rc, h.Score, h.NM)
	}
	return dst
}

// appendField appends a tab and a decimal field.
func appendField(dst []byte, v int) []byte {
	return strconv.AppendInt(append(dst, '\t'), int64(v), 10)
}

// appendReadEnd finishes a record after its CIGAR: the unset mate fields,
// the read's bases and qualities on the shown strand, the tags, a newline.
func appendReadEnd(dst []byte, seq dna.Packed, qual []byte, rc bool, score, nm int) []byte {
	dst = append(dst, "\t*\t0\t0\t"...)
	n := seq.Len()
	dst = slices.Grow(dst, n+len(qual)+32)
	switch {
	case n == 0:
		dst = append(dst, '*')
	case rc:
		dst = seq.AppendRevCompBases(dst)
	default:
		dst = seq.AppendBases(dst)
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

// samSpill is the buffered size at which a SAMWriter hands its records to
// the underlying writer: output memory stays O(1) however long the stream.
const samSpill = 32 << 10

// SAMWriter emits a SAM stream: the header at creation, then one WriteRead
// per read appended to a reused buffer that spills to the underlying writer.
type SAMWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// SAMRef names one reference sequence of a SAM header without its bases —
// all a scatter/gather router knows about the targets its shards hold.
type SAMRef struct {
	Name string
	Len  int
}

// NewSAMWriter writes the header — @HD, one @SQ per reference in order,
// @PG, then one @CO line per comment (how a degraded scatter/gather response
// annotates itself in-band) — and returns the writer.
func NewSAMWriter(w io.Writer, refs []SAMRef, comments ...string) (*SAMWriter, error) {
	sw := &SAMWriter{w: w}
	sw.buf = append(sw.buf, "@HD\tVN:1.6\tSO:unknown\n"...)
	for _, r := range refs {
		sw.buf = fmt.Appendf(sw.buf, "@SQ\tSN:%s\tLN:%d\n", r.Name, r.Len)
	}
	sw.buf = append(sw.buf, "@PG\tID:meraligner\tPN:meraligner\tVN:1.0\n"...)
	for _, c := range comments {
		sw.buf = fmt.Appendf(sw.buf, "@CO\t%s\n", c)
	}
	return sw, sw.Flush()
}

// WriteRead emits one read's records (see AppendSAMRead).
func (sw *SAMWriter) WriteRead(name string, seq dna.Packed, qual []byte, hits []Hit) error {
	if sw.err != nil {
		return sw.err
	}
	sw.buf = AppendSAMRead(sw.buf, name, seq, qual, hits)
	if len(sw.buf) >= samSpill {
		return sw.Flush()
	}
	return nil
}

// Flush hands buffered output to the underlying writer. A write error is
// sticky: every later call reports it.
func (sw *SAMWriter) Flush() error {
	if sw.err == nil && len(sw.buf) > 0 {
		_, sw.err = sw.w.Write(sw.buf)
		sw.buf = sw.buf[:0]
	}
	return sw.err
}
