// Package align implements local sequence alignment: affine-gap
// Smith-Waterman over two rolling score rows and one direction byte per
// cell. Local traces the best cell back to a cigar, on pooled scratch; a
// Scorer stops at the best cell, on scratch it owns, for runs that keep only
// statistics. Both run the same row function, so they agree on score and
// end-points.
//
// The paper extends seeds with SSW's SIMD striped kernel (§V-B). An
// emulation of it in SWAR arithmetic on 64-bit words, score-only, ran only
// 1.1-1.6x faster than this scalar kernel with traceback, and was removed:
// this one kernel stands in for SSW.
//
// Sequences are slices of 2-bit base codes (see package dna), not ASCII.
package align

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Scoring holds affine-gap alignment parameters. Penalties are positive
// magnitudes: aligning with a gap of length g costs GapOpen + g*GapExtend.
type Scoring struct {
	Match     int // score for a base match (> 0)
	Mismatch  int // penalty for a substitution (> 0)
	GapOpen   int // penalty for opening a gap (>= 0)
	GapExtend int // penalty per gap base (> 0)
}

// DefaultScoring is a commonly employed scoring scheme (match 1, mismatch 3,
// gap open 5, gap extend 2), in the spirit of §VI-D's "commonly employed
// scoring matrix".
var DefaultScoring = Scoring{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2}

// Validate reports parameter errors.
func (s Scoring) Validate() error {
	if s.Match <= 0 {
		return fmt.Errorf("align: Match must be positive, got %d", s.Match)
	}
	if s.Mismatch < 0 || s.GapOpen < 0 || s.GapExtend < 0 {
		return fmt.Errorf("align: penalties must be non-negative")
	}
	return nil
}

func (s Scoring) score(a, b byte) int {
	if a == b {
		return s.Match
	}
	return -s.Mismatch
}

// CigarOp is one run-length-encoded alignment operation.
type CigarOp struct {
	Op  byte // 'M' (match/mismatch), 'I' (insertion to target), 'D' (deletion from target)
	Len int
}

// Cigar is a run-length-encoded alignment path.
type Cigar []CigarOp

// String renders the cigar in SAM style, e.g. "37M1I63M".
func (c Cigar) String() string {
	var buf [64]byte
	b := buf[:0]
	for _, op := range c {
		b = strconv.AppendInt(b, int64(op.Len), 10)
		b = utf8.AppendRune(b, rune(op.Op))
	}
	return string(b)
}

// QuerySpan returns the number of query bases the cigar consumes (M + I).
func (c Cigar) QuerySpan() int {
	n := 0
	for _, op := range c {
		if op.Op == 'M' || op.Op == 'I' {
			n += op.Len
		}
	}
	return n
}

// TargetSpan returns the number of target bases the cigar consumes (M + D).
func (c Cigar) TargetSpan() int {
	n := 0
	for _, op := range c {
		if op.Op == 'M' || op.Op == 'D' {
			n += op.Len
		}
	}
	return n
}

// Result is a local alignment between a query and a target.
type Result struct {
	Score  int
	QStart int // first aligned query base (inclusive)
	QEnd   int // past the last aligned query base
	TStart int // first aligned target base (inclusive)
	TEnd   int // past the last aligned target base
	Cigar  Cigar
}

// Local computes the full local alignment with traceback, returning score,
// end-points and cigar. The highest-scoring cell is chosen; among equals the
// one with the smallest (TEnd, QEnd) wins, matching the scan order.
//
// The scores live in two rolling rows (H and E; F is a scalar), so the only
// matrix is one direction byte per cell, and all of it is pooled scratch:
// a non-zero Result costs one allocation, its Cigar.
func Local(query, target []byte, sc Scoring) Result {
	n, m := len(query), len(target)
	if n == 0 || m == 0 {
		return Result{}
	}
	s := localPool.Get().(*localScratch)
	defer localPool.Put(s)
	best, bi, bj := s.fill(query, target, sc, true)
	if best == 0 {
		return Result{}
	}

	// Traceback from (bi, bj), 1-based as in the DP, until H == 0: stop
	// first, then M, then E, then F, and a gap open beats a gap extend.
	ops := s.ops[:0]
	i, j := bi, bj
	state := byte('H')
	for i > 0 && j > 0 {
		d := s.dir[(i-1)*n+j-1]
		var op byte
		switch state {
		case 'H':
			switch {
			case d&dirStop != 0:
				i, j = 0, 0
				continue
			case d&dirDiag != 0:
				op = 'M'
				i, j = i-1, j-1
			case d&dirE != 0:
				state = 'E'
				continue
			default:
				state = 'F'
				continue
			}
		case 'E': // gap in query consuming target ('D')
			op = 'D'
			if d&dirEOpen != 0 {
				state = 'H'
			}
			i--
		case 'F': // gap in target consuming query ('I')
			op = 'I'
			if d&dirFOpen != 0 {
				state = 'H'
			}
			j--
		}
		if k := len(ops) - 1; k >= 0 && ops[k].Op == op {
			ops[k].Len++
		} else {
			ops = append(ops, CigarOp{Op: op, Len: 1})
		}
	}
	s.ops = ops
	// ops were collected end->start; the one allocation is their reversal.
	cigar := make(Cigar, len(ops))
	for k, op := range ops {
		cigar[len(ops)-1-k] = op
	}
	res := Result{Score: int(best), QEnd: bj, TEnd: bi, Cigar: cigar}
	res.QStart = bj - cigar.QuerySpan()
	res.TStart = bi - cigar.TargetSpan()
	return res
}

// Scorer is Local without the traceback, on scratch it owns. Score finds
// the same best cell as Local, so the same Score, QEnd and TEnd; QStart,
// TStart and Cigar stay zero, and a score of 0 gives the zero Result. It
// keeps O(query) scratch, grown to the longest query scored, so a caller
// that scores window after window (a query processor) allocates nothing in
// steady state. The zero value is ready to use; a Scorer is not safe for
// concurrent use.
type Scorer struct{ s localScratch }

// Score aligns query against target and reports the best cell.
func (z *Scorer) Score(query, target []byte, sc Scoring) Result {
	if len(query) == 0 || len(target) == 0 {
		return Result{}
	}
	best, bi, bj := z.s.fill(query, target, sc, false)
	return Result{Score: int(best), QEnd: bj, TEnd: bi}
}

// Direction bits, one byte per DP cell: which terms the cell's H equals,
// and whether its E and F came from opening a gap. F needs no bit of its
// own: a positive H that is neither diagonal nor E is F.
const (
	dirStop  = 1 << iota // H == 0: the alignment starts after this cell
	dirDiag              // H == diag + s: a match/mismatch step
	dirE                 // H == E: a gap consuming target
	dirEOpen             // E == H(up) - open: the gap opened here
	dirFOpen             // F == H(left) - open: the gap opened here
)

// negInf is the score of an impossible gap state; far enough from int32's
// floor that subtracting penalties cannot wrap.
const negInf = int32(-1 << 28)

// localScratch is the DP's working storage, reused across calls (through
// localPool by Local, kept by a Scorer) so that a steady stream of
// extensions allocates only results.
type localScratch struct {
	h, e []int32   // rolling H and E rows, one entry per query base
	prof []int32   // query profile: row b scores every query base against target base b (rows 0-3; row 4 is built per other byte)
	dir  []byte    // direction bytes, row-major over (target, query)
	ops  []CigarOp // traceback, end to start
}

var localPool = sync.Pool{New: func() any { return new(localScratch) }}

// fill runs the DP of query against target, one localRow per target base,
// and returns the best cell: its score and its 1-based (target, query)
// coordinates, the first among equals in row-major order ((0, 0) when every
// cell is 0). With trace, s.dir keeps the direction bytes of every cell for
// a traceback; without, each row's bytes overwrite the last's.
func (s *localScratch) fill(query, target []byte, sc Scoring, trace bool) (best int32, bi, bj int) {
	n, m := len(query), len(target)
	rows, step := 1, 0
	if trace {
		rows, step = m, n
	}
	s.reset(query, rows, sc)
	// A gap's first base costs the open and one extend.
	gapOpen, gapExt := int32(sc.GapOpen+sc.GapExtend), int32(sc.GapExtend)
	for i := 0; i < m; i++ {
		rowBest, rowJ := localRow(s.h, s.e, s.profRow(target[i], query, sc), s.dir[i*step:i*step+n], gapOpen, gapExt)
		if rowBest > best {
			best, bi, bj = rowBest, i+1, rowJ+1
		}
	}
	return best, bi, bj
}

// reset sizes the scratch for an n-base query and rows rows of direction
// bytes, clears the score rows and builds profile rows 0-3.
func (s *localScratch) reset(query []byte, rows int, sc Scoring) {
	n := len(query)
	s.h = slices.Grow(s.h[:0], n)[:n]
	s.e = slices.Grow(s.e[:0], n)[:n]
	s.prof = slices.Grow(s.prof[:0], 5*n)[:5*n]
	s.dir = slices.Grow(s.dir[:0], rows*n)[:rows*n]
	clear(s.h)
	for j := range s.e {
		s.e[j] = negInf
	}
	for b := range 4 {
		row := s.prof[b*n : (b+1)*n]
		for j, q := range query {
			row[j] = int32(sc.score(q, byte(b)))
		}
	}
}

// profRow returns the profile row for target base b. Rows 0-3 were built by
// reset; any other byte gets row 4, built now, so Local scores every byte
// value exactly as a == b comparison would.
func (s *localScratch) profRow(b byte, query []byte, sc Scoring) []int32 {
	n := len(query)
	if b < 4 {
		return s.prof[int(b)*n : (int(b)+1)*n]
	}
	row := s.prof[4*n : 5*n]
	for j, q := range query {
		row[j] = int32(sc.score(q, b))
	}
	return row
}

// localRow advances the DP by one target base. On entry h and e hold the
// previous row; on return they hold this one, dir holds a direction byte per
// cell, and best/bestJ are the row's first strict maximum (bestJ is -1 when
// every cell is 0). The loop is branch-free: max compiles to CMOV and the
// comparisons to SETcc.
func localRow(h, e, prof []int32, dir []byte, gapOpen, gapExt int32) (best int32, bestJ int) {
	n := len(h)
	e, prof, dir = e[:n], prof[:n], dir[:n]
	bestJ = -1
	var diag, left int32 // H of the previous row and of this row at column 0
	f := negInf
	for j := range n {
		up := h[j]
		eOpen, eExt := up-gapOpen, e[j]-gapExt
		fOpen, fExt := left-gapOpen, f-gapExt
		ec := max(eExt, eOpen)
		f = max(fExt, fOpen)
		d := diag + prof[j]
		hc := max(0, d, ec, f)
		e[j], h[j] = ec, hc
		dir[j] = bit(hc == 0) | bit(hc == d)<<1 | bit(hc == ec)<<2 | bit(eOpen >= eExt)<<3 | bit(fOpen >= fExt)<<4
		if hc > best {
			best, bestJ = hc, j
		}
		diag, left = up, hc
	}
	return best, bestJ
}

// bit converts a comparison to 0 or 1 without a branch.
func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Cells returns the number of DP cells an (n x m) alignment evaluates; used
// by the simulator's cost model.
func Cells(n, m int) int64 { return int64(n) * int64(m) }
