package core

import (
	"context"
	"slices"
	"strconv"
	"sync/atomic"

	"github.com/lbl-repro/meraligner/internal/align"
	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// candKey identifies a candidate alignment for deduplication: one target,
// one strand, one seed diagonal.
type candKey struct {
	target int32
	diag   int32
	rc     bool
}

// foundKey identifies a reported alignment for deduplication: alignments
// reached from different seed diagonals collapse when they share a target,
// strand and both start coordinates.
type foundKey struct {
	target int32
	tstart int32
	qstart int32
	rc     bool
}

// extendPad widens the Smith-Waterman window by this many target bases on
// each side of the seed diagonal, so an alignment may carry indels.
const extendPad = 24

// seenSpill bounds the linear-scan candidate dedupe; the rare query with
// more live candidates spills into a (reused) map instead of going O(n²).
const seenSpill = 128

// claimSeeds bounds the seeds one resolve pipeline holds (~3.2 MB of
// answers per worker): a claim is resolved in sub-claims of whole reads
// holding at most this many seeds, and a read is never split.
const claimSeeds = 1 << 16

// IndexAccess is the seed index and target store as the aligning phase sees
// them. The serving engine implements it over the sealed dht.Sharded table
// (threadedAccess); the simulated machine of internal/sim implements it over
// its PGAS index and per-node caches and charges its own clocks inside.
type IndexAccess interface {
	// SeedResolver answers a claim's seeds unless the call brings its own
	// (QueryOptions.SeedResolver).
	SeedResolver
	// SingleCopy reports the fragment's single-copy-seeds flag (§IV-A).
	SingleCopy(frag int32) bool
	// FetchTarget announces that the processor is about to read a target's
	// sequence (targetBytes packed, fragment owned by owner).
	FetchTarget(target int32, targetBytes, owner int)
}

// QueryProcessor holds the per-worker state of the aligning phase: the
// reusable buffers of the per-read algorithm, the results it has produced so
// far, and four plain counts of the work done. Every buffer is recycled
// claim to claim, so the steady-state serial path performs zero allocations
// per read (pinned by BenchmarkQueryNoAlloc).
type QueryProcessor struct {
	opt   Options
	acc   IndexAccess
	ft    *FragmentTable
	seeds SeedResolver    // answers every seed lookup: the call's resolver, else acc
	ctx   context.Context // the call's context, handed to seeds

	// Work done so far. A caller that models time (internal/sim) converts
	// these to seconds; the serving engine only reports them.
	SeedLookups int64 // seed-index lookups, local or remote
	MemcmpBytes int64 // packed bytes compared on the exact-match path
	SWCalls     int64 // Smith-Waterman invocations
	SWCells     int64 // Smith-Waterman DP cells

	// Results so far, folded into a Results by MergeProcessors.
	aligned         int
	exact           int
	totalAlignments int64
	alignments      []Alignment // non-nil iff alignment records are collected
	tooShort        []int32     // query indices shorter than K
	perQuery        []QueryStat // one per query of the call, when collected

	// err is the first seed-resolution failure this worker hit; once set
	// the worker stops aligning and the whole call fails with it (there is
	// no partial-results mode — a lost seed shard must never silently
	// degrade into missed alignments).
	err error

	// stop, when set, is the call's cancellation flag: raised once its
	// context is done, it ends the claim at the next read or candidate
	// extension (the call then returns the context's error, no results).
	stop *atomic.Bool

	scratch
}

// scratch is the processor's reusable memory: everything init keeps when it
// readies a processor for another call.
type scratch struct {
	fwd, rc []byte // unpacked query codes, forward and reverse complement
	// codes backs both (one allocation, not two); fwd is capped at L, so an
	// append to it reallocates instead of overwriting rc.
	codes []byte

	// The claim pipeline (resolveClaim, then process per read): one scanner
	// per read of the sub-claim, primed in phase 1 and continued in phase 2,
	// and each phase's seeds and answers in the order process reads them.
	scans    []kmer.Scanner
	first    seedBatch   // phase 1: the first seed of every read (exact path on)
	rest     seedBatch   // phase 2: every other seed process reads
	verdicts []Alignment // phase 1's exact-path verdict, one per read with L >= K
	nextRead int         // process's cursor into verdicts and first
	nextSeed int         // process's cursor into rest

	// Candidate dedupe: a reusable linear-scan slice, spilling into a lazily
	// allocated map on the rare candidate-heavy query.
	seenList []candKey
	seenMap  map[candKey]struct{}

	// Score-only Smith-Waterman for statistics-only runs, on scratch kept
	// across every candidate window the processor scores.
	sw align.Scorer

	found     []align.Result // alignments of the current query
	foundKeys []foundKey     // their dedupe keys (packed, scanned linearly)
	foundRC   []bool
	foundTg   []int32

	// The exact-path cigar of the last read length (exactCigar).
	exactLen int
	exactCig string

	// records backs a collecting call's record list (alignments), so a warm
	// call regrows none: the merge copies the records out (placeByQuery).
	records []Alignment
}

// seedBatch is one resolve phase of a claim: the canonical seeds it ships,
// each seed's strand in its read, and their answers, in the order process
// reads them.
type seedBatch struct {
	seeds []kmer.Kmer
	rc    []bool
	ans   []SeedAnswer
}

// reset empties the batch and zeroes the answers it held: none outlives its
// claim (a location list may alias a snapshot's mapping), and resolve hands
// the resolver zeroed slots.
func (b *seedBatch) reset() {
	clear(b.ans)
	b.seeds, b.rc, b.ans = b.seeds[:0], b.rc[:0], b.ans[:0]
}

func (b *seedBatch) add(s kmer.Kmer, rc bool) {
	b.seeds = append(b.seeds, s)
	b.rc = append(b.rc, rc)
}

// resolve answers the batch in one ResolveSeeds call. An empty batch makes
// no call.
func (b *seedBatch) resolve(ctx context.Context, r SeedResolver) error {
	n := len(b.seeds)
	if n == 0 {
		return nil
	}
	b.ans = slices.Grow(b.ans, n)[:n]
	return r.ResolveSeeds(ctx, b.seeds, b.ans)
}

// NewQueryProcessor returns a processor aligning against ft through acc.
func NewQueryProcessor(opt Options, acc IndexAccess, ft *FragmentTable) *QueryProcessor {
	qp := new(QueryProcessor)
	qp.init(opt, acc, ft)
	return qp
}

// init readies qp for a call: counts and results start at zero, and only
// the scratch buffers carry over. Seeds resolve through opt.SeedResolver
// when it is set, else through acc.
func (qp *QueryProcessor) init(opt Options, acc IndexAccess, ft *FragmentTable) {
	*qp = QueryProcessor{opt: opt, acc: acc, ft: ft, seeds: opt.SeedResolver, ctx: context.Background(), scratch: qp.scratch}
	if qp.seeds == nil {
		qp.seeds = acc
	}
	if opt.CollectAlignments {
		qp.alignments = qp.records[:0]
		if qp.alignments == nil {
			qp.alignments = []Alignment{} // non-nil: the list exists even while empty
		}
	}
}

// recycle drops the call from qp and keeps its buffers — the record list's
// among them — for the next call's init.
func (qp *QueryProcessor) recycle() {
	qp.first.reset()
	qp.rest.reset()
	if cap(qp.alignments) > cap(qp.records) {
		qp.records = qp.alignments
	}
	*qp = QueryProcessor{scratch: qp.scratch}
}

// ProcessClaim aligns a claim of queries, numbered from first on, and
// accumulates their outcomes in the processor. A sub-claim at a time (whole
// reads, at most claimSeeds seeds), it resolves every seed the reads look
// up (resolveClaim), then aligns each read from the answers (process). It
// stops early once the call is cancelled or a resolution fails (qp.err).
func (qp *QueryProcessor) ProcessClaim(first int32, claim []seqio.Seq) {
	for len(claim) > 0 && qp.err == nil && !qp.stopped() {
		n := qp.subClaim(claim)
		if err := qp.resolveClaim(claim[:n]); err != nil {
			qp.err = err
			return
		}
		for i := range n {
			if qp.stopped() {
				return
			}
			qp.processStat(first+int32(i), claim[i].Seq)
		}
		first, claim = first+int32(n), claim[n:]
	}
}

// subClaim returns how many leading reads of claim one resolve pipeline
// takes: whole reads holding at most claimSeeds seeds, and at least one.
func (qp *QueryProcessor) subClaim(claim []seqio.Seq) int {
	seeds := 0
	for i, r := range claim {
		if seeds += kmer.Count(r.Seq.Len(), qp.opt.K); seeds > claimSeeds && i > 0 {
			return i
		}
	}
	return len(claim)
}

// resolveClaim resolves every seed a sub-claim of queries will look up
// before process sees any of them — §III-A's aggregation — in at most two
// ResolveSeeds calls:
//
//  1. with the exact path on, the first seed of every read, then the exact
//     check (§IV-A) on each answer;
//  2. the remaining seeds of every read the exact path did not settle
//     (with it off, every seed of every read: one call in all).
//
// A settled read costs one seed, and no seed is resolved that process does
// not read. Each read is scanned once: its scanner, primed in phase 1,
// continues in phase 2.
func (qp *QueryProcessor) resolveClaim(claim []seqio.Seq) error {
	K, exact := qp.opt.K, qp.opt.ExactMatch
	qp.first.reset()
	qp.rest.reset()
	qp.verdicts, qp.nextRead, qp.nextSeed = qp.verdicts[:0], 0, 0
	qp.scans = slices.Grow(qp.scans[:0], len(claim))[:len(claim)]
	for i, r := range claim {
		if r.Seq.Len() >= K {
			qp.scans[i].Reset(r.Seq, K)
			qp.scans[i].Next()
			if exact {
				qp.first.add(qp.scans[i].Canonical())
			}
		}
	}
	if exact {
		if err := qp.first.resolve(qp.ctx, qp.seeds); err != nil {
			return err
		}
	}
	for i, r := range claim {
		if r.Seq.Len() < K {
			continue
		}
		sc := &qp.scans[i]
		if exact {
			j := len(qp.verdicts)
			v := qp.exactHit(r.Seq, qp.first.ans[j], qp.first.rc[j])
			if qp.verdicts = append(qp.verdicts, v); v.Exact {
				continue
			}
		} else {
			qp.rest.add(sc.Canonical())
		}
		for sc.Next() {
			qp.rest.add(sc.Canonical())
		}
	}
	return qp.rest.resolve(qp.ctx, qp.seeds)
}

// nextAnswer returns the next phase-2 answer and its seed's strand.
func (qp *QueryProcessor) nextAnswer() (SeedAnswer, bool) {
	j := qp.nextSeed
	qp.nextSeed++
	return qp.rest.ans[j], qp.rest.rc[j]
}

// process aligns one query (Algorithm 1, lines 8-12, plus the §IV
// optimizations) from the answers resolveClaim left, and accumulates its
// outcome in the processor. Queries must come in claim order.
func (qp *QueryProcessor) process(qi int32, q dna.Packed) {
	opt := &qp.opt
	L := q.Len()
	if L < opt.K {
		// No complete seed fits: the read cannot be aligned. Record the
		// typed status instead of silently dropping it, so callers (the
		// service layer in particular) can distinguish "bad input" from
		// "aligned nowhere".
		qp.tooShort = append(qp.tooShort, qi)
		return
	}

	// ---- Exact-match fast path (§IV-A), decided by resolveClaim ----
	var first SeedAnswer
	var firstRC bool
	if opt.ExactMatch {
		j := qp.nextRead
		qp.nextRead++
		if a := qp.verdicts[j]; a.Exact {
			a.Query = qi
			qp.SeedLookups++
			qp.exact++
			qp.aligned++
			qp.totalAlignments++
			if qp.alignments != nil {
				a.Cigar = qp.exactCigar(L)
				qp.alignments = append(qp.alignments, a)
			}
			return // single lookup sufficed — minimal communication
		}
		first, firstRC = qp.first.ans[j], qp.first.rc[j]
	} else {
		first, firstRC = qp.nextAnswer()
	}

	// ---- General path: every seed, lookup, extend (lines 9-12) ----
	// The j-th seed sits at query offset j.
	seeds := L - opt.K + 1
	qp.SeedLookups += int64(seeds)
	qp.loadCodes(q)
	qp.seenList = qp.seenList[:0]
	if len(qp.seenMap) > 0 {
		clear(qp.seenMap)
	}
	qp.found = qp.found[:0]
	qp.foundKeys = qp.foundKeys[:0]
	qp.foundRC = qp.foundRC[:0]
	qp.foundTg = qp.foundTg[:0]
	qp.seedHits(first, firstRC, 0, L) // the first seed's lookup, reused
	for off := 1; off < seeds; off++ {
		a, qrc := qp.nextAnswer()
		qp.seedHits(a, qrc, off, L)
	}

	if len(qp.found) > 0 {
		qp.aligned++
	}
	for i, a := range qp.found {
		qp.totalAlignments++
		if qp.alignments != nil {
			qp.alignments = append(qp.alignments, Alignment{
				Query:  qi,
				Target: qp.foundTg[i],
				RC:     qp.foundRC[i],
				Score:  int32(a.Score),
				QStart: int32(a.QStart), QEnd: int32(a.QEnd),
				TStart: int32(a.TStart), TEnd: int32(a.TEnd),
				Cigar: a.Cigar.String(),
			})
		}
	}
}

// exactCigar returns "<L>M", the cigar of an exact-path hit, built once per
// read length: reads of one run share a length, so the string is shared too.
func (qp *QueryProcessor) exactCigar(L int) string {
	if L != qp.exactLen {
		qp.exactLen = L
		qp.exactCig = strconv.Itoa(L) + "M"
	}
	return qp.exactCig
}

// seedHits feeds one seed lookup's hits into candidate generation, applying
// the §IV-C sensitivity threshold.
func (qp *QueryProcessor) seedHits(a SeedAnswer, qrc bool, qoff, L int) {
	res := a.Res
	if !a.OK {
		return
	}
	if qp.opt.MaxSeedHits > 0 && int(res.Count) > qp.opt.MaxSeedHits {
		return // §IV-C sensitivity threshold
	}
	for i := range res.Len() {
		qp.candidate(res.At(i), qrc, qoff, L)
	}
}

// exactHit is the exact-path predicate on query q, given its first seed's
// answer a and strand qrc: the seed is stored exactly once, in a
// single-copy-seed fragment, and the whole query matches the target there
// (tryExact). The verdict's Exact flag says whether q is settled.
func (qp *QueryProcessor) exactHit(q dna.Packed, a SeedAnswer, qrc bool) Alignment {
	if !a.OK || a.Res.Count != 1 || a.Res.Len() != 1 {
		return Alignment{}
	}
	loc := a.Res.At(0)
	if !qp.acc.SingleCopy(loc.Frag) {
		return Alignment{}
	}
	return qp.tryExact(q, loc, qrc)
}

// loadCodes unpacks q into fwd for the general path; rc fills the spare
// half of codes lazily (queryCodes).
func (qp *QueryProcessor) loadCodes(q dna.Packed) {
	L := q.Len()
	qp.codes = q.AppendCodes(slices.Grow(qp.codes[:0], 2*L))
	qp.fwd, qp.rc = qp.codes[:L:L], qp.codes[L:L]
}

// tryExact attempts the single-lookup exact match: the query's first seed
// hit a single-copy-seed fragment exactly once; if the whole query matches
// the target there with a plain comparison, Lemma 1 guarantees the
// alignment is unique and no further lookups or Smith-Waterman are needed.
// The comparison runs on the packed read and target, 32 bases per word, on
// either strand (dna.Packed.MatchesAt); the read is unpacked only if it
// falls through to the general path.
func (qp *QueryProcessor) tryExact(q dna.Packed, loc dht.Loc, qrc bool) Alignment {
	L := q.Len()
	frag := qp.ft.Frags[loc.Frag]
	rc := qrc != loc.RC
	qoffEff := 0
	if rc {
		qoffEff = L - qp.opt.K // seed position within the reverse-complemented query
	}
	tOff := int(frag.Start) + int(loc.Off) - qoffEff
	tseq := qp.ft.Targets[frag.Target].Seq
	if tOff < 0 || tOff+L > tseq.Len() {
		return Alignment{} // query overhangs the target: general path
	}
	qp.acc.FetchTarget(frag.Target, tseq.PackedSize(), qp.ft.Owner(loc.Frag))
	qp.MemcmpBytes += int64((L + 3) / 4)
	if !tseq.MatchesAt(q, tOff, rc) {
		return Alignment{}
	}
	return Alignment{
		Target: frag.Target,
		RC:     rc,
		Score:  int32(L * qp.opt.Scoring.Match),
		QStart: 0, QEnd: int32(L),
		TStart: int32(tOff), TEnd: int32(tOff + L),
		Exact: true,
	}
}

// seenBefore records a candidate key, reporting whether it was already
// present. Small candidate sets stay in the reusable slice; the rare
// repeat-heavy query spills into the map (allocated once, cleared lazily).
func (qp *QueryProcessor) seenBefore(key candKey) bool {
	for i := range qp.seenList {
		if qp.seenList[i] == key {
			return true
		}
	}
	if len(qp.seenList) < seenSpill {
		qp.seenList = append(qp.seenList, key)
		return false
	}
	if qp.seenMap == nil {
		qp.seenMap = make(map[candKey]struct{}, 2*seenSpill)
	}
	if _, dup := qp.seenMap[key]; dup {
		return true
	}
	qp.seenMap[key] = struct{}{}
	return false
}

// candidate processes one seed hit on the general path: dedupe by
// (target, strand, diagonal), fetch the target, and run Smith-Waterman on
// the seed window: with traceback when alignments are kept, score-only on a
// statistics-only run.
func (qp *QueryProcessor) candidate(loc dht.Loc, qrc bool, qoff, L int) {
	if qp.stopped() {
		return
	}
	frag := qp.ft.Frags[loc.Frag]
	rc := qrc != loc.RC
	qoffEff := qoff
	if rc {
		qoffEff = L - qoff - qp.opt.K
	}
	seedT := int(frag.Start) + int(loc.Off) // seed position in the target
	diag := int32(seedT - qoffEff)
	if qp.seenBefore(candKey{target: frag.Target, diag: diag, rc: rc}) {
		return
	}

	tcodes := qp.ft.TargetCodes(frag.Target)
	qp.acc.FetchTarget(frag.Target, qp.ft.TargetPackedBytes(frag.Target), qp.ft.Owner(loc.Frag))

	winLo := seedT - qoffEff - extendPad
	if winLo < 0 {
		winLo = 0
	}
	winHi := seedT + (L - qoffEff) + extendPad
	if winHi > len(tcodes) {
		winHi = len(tcodes)
	}
	qp.SWCells += align.Cells(L, winHi-winLo)
	qp.SWCalls++

	var res align.Result
	if qp.alignments == nil && qp.opt.Extend == nil {
		// Statistics-only runs need no cigar, so the same DP stops at the
		// best cell. Its target end keys the dedupe below in place of the
		// start a traceback would give.
		sr := qp.sw.Score(qp.queryCodes(rc, L), tcodes[winLo:winHi], qp.opt.Scoring)
		res = align.Result{Score: sr.Score, TStart: winLo + sr.TEnd, TEnd: winLo + sr.TEnd}
	} else {
		qc := qp.queryCodes(rc, L)
		extend := qp.opt.Extend
		if extend == nil {
			extend = align.ExtendSeed
		}
		res = extend(qc, tcodes, qoffEff, seedT, qp.opt.K, qp.opt.Scoring, extendPad)
	}

	if res.Score < qp.opt.minScore() {
		return
	}
	// Dedupe identical alignments reached from different seed diagonals:
	// linear scan over the packed key slice.
	key := foundKey{target: frag.Target, tstart: int32(res.TStart), qstart: int32(res.QStart), rc: rc}
	for i := range qp.foundKeys {
		if qp.foundKeys[i] == key {
			return
		}
	}
	qp.found = append(qp.found, res)
	qp.foundKeys = append(qp.foundKeys, key)
	qp.foundRC = append(qp.foundRC, rc)
	qp.foundTg = append(qp.foundTg, frag.Target)
}

// stopped reports whether the call this processor serves was cancelled.
func (qp *QueryProcessor) stopped() bool { return qp.stop != nil && qp.stop.Load() }

// queryCodes returns the query's code slice on the requested strand,
// computing the reverse complement lazily.
func (qp *QueryProcessor) queryCodes(rc bool, L int) []byte {
	if !rc {
		return qp.fwd
	}
	if len(qp.rc) != L {
		for i := L - 1; i >= 0; i-- {
			qp.rc = append(qp.rc, 3-qp.fwd[i])
		}
	}
	return qp.rc
}
