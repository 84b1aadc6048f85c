package core

import (
	"bytes"
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

// IndexAccess is the seed index and target store as the aligning phase sees
// them. The serving engine implements it over the sealed dht.Sharded table
// (threadedAccess); the simulated machine of internal/sim implements it over
// its PGAS index and per-node caches and charges its own clocks inside.
type IndexAccess interface {
	// Lookup resolves a canonical seed to its location list.
	Lookup(s kmer.Kmer) (dht.LookupResult, bool)
	// SingleCopy reports the fragment's single-copy-seeds flag (§IV-A).
	SingleCopy(frag int32) bool
	// FetchTarget announces that the processor is about to read a target's
	// sequence (targetBytes packed, fragment owned by owner).
	FetchTarget(target int32, targetBytes, owner int)
}

// QueryProcessor holds the per-worker state of the aligning phase: the
// reusable buffers of the per-read algorithm, the results it has produced so
// far, and four plain counts of the work done. Every buffer is recycled
// query to query, so the steady-state serial path performs zero allocations
// per read (pinned by BenchmarkQueryNoAlloc).
type QueryProcessor struct {
	opt Options
	acc IndexAccess
	ft  *FragmentTable

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

	// err is the first remote-resolution failure this worker hit; once set
	// the worker stops aligning and the whole call fails with it (the remote
	// path has no partial-results mode — a lost seed shard must never
	// silently degrade into missed alignments).
	err error

	// stop, when set, is the call's cancellation flag: raised once its
	// context is done, it ends the claim at the next read or candidate
	// extension (the call then returns the context's error, no results).
	stop *atomic.Bool

	scan    kmer.Scanner // rolling seed extraction over the current query
	fwd, rc []byte       // unpacked query codes, forward and reverse complement
	// codes backs both (one allocation, not two); fwd is capped at L, so an
	// append to it reallocates instead of overwriting rc.
	codes []byte

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

	// Remote-DHT state, active only when setResolver was called
	// (QueryOptions.SeedResolver set): prefetchClaim resolves a whole claim of
	// queries in at most two ResolveSeeds calls before Process sees any of
	// them; Process then consumes ansBuf and exactBuf in order.
	resolver SeedResolver
	rctx     context.Context
	seedBuf  []kmer.Kmer  // the seeds one resolve phase ships
	slotBuf  []int32      // each shipped seed's answer position in ansBuf
	phaseAns []SeedAnswer // one phase's answers, in seedBuf order
	ansBuf   []SeedAnswer // the claim's answers, in Process's lookup order
	ansIdx   int
	exactBuf []Alignment // the claim's exact-path verdicts, one per query with L >= K
	exactIdx int

	// The exact-path cigar of the last read length (exactCigar).
	exactLen int
	exactCig string
}

// NewQueryProcessor returns a processor aligning against ft through acc.
func NewQueryProcessor(opt Options, acc IndexAccess, ft *FragmentTable) *QueryProcessor {
	qp := &QueryProcessor{opt: opt, acc: acc, ft: ft}
	if opt.CollectAlignments {
		qp.alignments = []Alignment{}
	}
	return qp
}

// setResolver activates the remote-DHT path: seed lookups resolve through r
// under ctx instead of probing the index.
func (qp *QueryProcessor) setResolver(ctx context.Context, r SeedResolver) {
	qp.resolver, qp.rctx = r, ctx
}

// prefetchClaim resolves every seed a claim of queries will look up before
// Process sees any of them — §III-A's aggregation, ahead of the wire — in at
// most two ResolveSeeds calls:
//
//  1. with the exact path on, the first seed of every query, then the exact
//     check (§IV-A) on each answer;
//  2. the remaining seeds of every query the exact path did not
//     settle (with it off, every seed of every query: one call in all).
//
// A settled query costs one remote seed, and no seed is shipped that Process
// does not read. The answers land in ansBuf in Process's lookup order, so
// lookupSeed pops them positionally. A no-op on the local path and after a
// failure, which it records in qp.err.
func (qp *QueryProcessor) prefetchClaim(claim []seqio.Seq) {
	if qp.resolver == nil || qp.err != nil {
		return
	}
	K, exact := qp.opt.K, qp.opt.ExactMatch
	qp.ansBuf, qp.exactBuf = qp.ansBuf[:0], qp.exactBuf[:0]
	qp.ansIdx, qp.exactIdx = 0, 0
	var first []SeedAnswer
	if exact {
		qp.seedBuf = qp.seedBuf[:0]
		for _, r := range claim {
			if r.Seq.Len() >= K {
				qp.scan.Reset(r.Seq, K)
				qp.scan.Next()
				canon, _ := qp.scan.Canonical()
				qp.seedBuf = append(qp.seedBuf, canon)
			}
		}
		if first, qp.err = qp.resolvePhase(); qp.err != nil {
			return
		}
	}
	qp.seedBuf, qp.slotBuf = qp.seedBuf[:0], qp.slotBuf[:0]
	for _, r := range claim {
		L := r.Seq.Len()
		if L < K {
			continue
		}
		qp.scan.Reset(r.Seq, K)
		qp.scan.Next()
		canon, qrc := qp.scan.Canonical()
		if exact {
			a := first[0]
			first = first[1:]
			qp.ansBuf = append(qp.ansBuf, a)
			qp.loadCodes(r.Seq)
			v, _ := qp.exactHit(a.Res, a.OK, qrc, L)
			qp.exactBuf = append(qp.exactBuf, v)
			if v.Exact {
				continue
			}
		} else {
			qp.want(canon)
		}
		for qp.scan.Next() {
			canon, _ := qp.scan.Canonical()
			qp.want(canon)
		}
	}
	rest, err := qp.resolvePhase()
	if err != nil {
		qp.err = err
		return
	}
	for i, a := range rest {
		qp.ansBuf[qp.slotBuf[i]] = a
	}
}

// want queues seed s for the next resolve phase and reserves its answer's
// slot in ansBuf.
func (qp *QueryProcessor) want(s kmer.Kmer) {
	qp.seedBuf = append(qp.seedBuf, s)
	qp.slotBuf = append(qp.slotBuf, int32(len(qp.ansBuf)))
	qp.ansBuf = append(qp.ansBuf, SeedAnswer{})
}

// resolvePhase ships seedBuf in one ResolveSeeds call and returns the
// answers in seedBuf order. An empty phase makes no call.
func (qp *QueryProcessor) resolvePhase() ([]SeedAnswer, error) {
	n := len(qp.seedBuf)
	if n == 0 {
		return nil, nil
	}
	qp.phaseAns = slices.Grow(qp.phaseAns[:0], n)[:n]
	clear(qp.phaseAns)
	err := qp.resolver.ResolveSeeds(qp.rctx, qp.seedBuf, qp.phaseAns)
	return qp.phaseAns, err
}

// lookupSeed is the one seed-lookup site of the aligning phase: the index
// probe, or — on the remote path — the next prefetched answer. Lookups are
// counted here, so the statistics are identical whatever answers them.
func (qp *QueryProcessor) lookupSeed(s kmer.Kmer) (dht.LookupResult, bool) {
	qp.SeedLookups++
	if qp.resolver == nil {
		return qp.acc.Lookup(s)
	}
	a := qp.ansBuf[qp.ansIdx]
	qp.ansIdx++
	return a.Res, a.OK
}

// Process aligns one query (Algorithm 1, lines 8-12, plus the §IV
// optimizations) and accumulates its outcome in the processor.
func (qp *QueryProcessor) Process(qi int32, q dna.Packed) {
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
	qp.loadCodes(q)
	qp.seenList = qp.seenList[:0]
	if len(qp.seenMap) > 0 {
		clear(qp.seenMap)
	}
	qp.found = qp.found[:0]
	qp.foundKeys = qp.foundKeys[:0]
	qp.foundRC = qp.foundRC[:0]
	qp.foundTg = qp.foundTg[:0]

	// The scanner maintains the forward and reverse-complement seeds
	// incrementally; L >= K guarantees at least one position.
	qp.scan.Reset(q, opt.K)
	qp.scan.Next()

	// ---- Exact-match fast path (§IV-A) ----
	canon, qrc := qp.scan.Canonical()
	res, ok := qp.lookupSeed(canon)
	if opt.ExactMatch {
		if a, hit := qp.exactPath(res, ok, qrc, L); hit {
			a.Query = qi
			qp.exact++
			qp.aligned++
			qp.totalAlignments++
			if qp.alignments != nil {
				a.Cigar = qp.exactCigar(L)
				qp.alignments = append(qp.alignments, a)
			}
			return // single lookup sufficed — minimal communication
		}
	}

	// ---- General path: every seed, lookup, extend (lines 9-12) ----
	qp.seedHits(res, ok, qrc, 0, L) // the first seed's lookup, reused
	for qp.scan.Next() {
		canon, qrc := qp.scan.Canonical()
		res, ok := qp.lookupSeed(canon)
		qp.seedHits(res, ok, qrc, qp.scan.Offset(), L)
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
func (qp *QueryProcessor) seedHits(res dht.LookupResult, ok, qrc bool, qoff, L int) {
	if !ok {
		return
	}
	if qp.opt.MaxSeedHits > 0 && int(res.Count) > qp.opt.MaxSeedHits {
		return // §IV-C sensitivity threshold
	}
	for i := range res.Len() {
		qp.candidate(res.At(i), qrc, qoff, L)
	}
}

// exactPath is Process's §IV-A decision for the current query, given its
// first seed's lookup. On the remote path prefetchClaim has already made it
// (it must, to know which queries phase 2 resolves), so the verdict is
// replayed rather than compared twice.
func (qp *QueryProcessor) exactPath(res dht.LookupResult, ok, qrc bool, L int) (Alignment, bool) {
	if qp.resolver == nil {
		return qp.exactHit(res, ok, qrc, L)
	}
	a := qp.exactBuf[qp.exactIdx]
	qp.exactIdx++
	return a, a.Exact
}

// exactHit is the exact-path predicate: the first seed is stored exactly
// once, in a single-copy-seed fragment, and the whole query matches the
// target there (tryExact). The query's codes must be loaded.
func (qp *QueryProcessor) exactHit(res dht.LookupResult, ok, qrc bool, L int) (Alignment, bool) {
	if !ok || res.Count != 1 || res.Len() != 1 {
		return Alignment{}, false
	}
	loc := res.At(0)
	if !qp.acc.SingleCopy(loc.Frag) {
		return Alignment{}, false
	}
	return qp.tryExact(loc, qrc, L)
}

// loadCodes unpacks q into fwd; rc fills the spare half of codes lazily
// (queryCodes).
func (qp *QueryProcessor) loadCodes(q dna.Packed) {
	L := q.Len()
	qp.codes = q.AppendCodes(slices.Grow(qp.codes[:0], 2*L))
	qp.fwd, qp.rc = qp.codes[:L:L], qp.codes[L:L]
}

// tryExact attempts the single-lookup exact match: the query's first seed
// hit a single-copy-seed fragment exactly once; if the whole query matches
// the target there with a plain comparison, Lemma 1 guarantees the
// alignment is unique and no further lookups or Smith-Waterman are needed.
func (qp *QueryProcessor) tryExact(loc dht.Loc, qrc bool, L int) (Alignment, bool) {
	frag := qp.ft.Frags[loc.Frag]
	rc := qrc != loc.RC
	qoffEff := 0
	if rc {
		qoffEff = L - qp.opt.K // seed position within the reverse-complemented query
	}
	tOff := int(frag.Start) + int(loc.Off) - qoffEff
	tcodes := qp.ft.TargetCodes(frag.Target)
	if tOff < 0 || tOff+L > len(tcodes) {
		return Alignment{}, false // query overhangs the target: general path
	}
	qp.acc.FetchTarget(frag.Target, qp.ft.TargetPackedBytes(frag.Target), qp.ft.Owner(loc.Frag))
	qp.MemcmpBytes += int64((L + 3) / 4)
	if !bytes.Equal(qp.queryCodes(rc, L), tcodes[tOff:tOff+L]) {
		return Alignment{}, false
	}
	return Alignment{
		Target: frag.Target,
		RC:     rc,
		Score:  int32(L * qp.opt.Scoring.Match),
		QStart: 0, QEnd: int32(L),
		TStart: int32(tOff), TEnd: int32(tOff + L),
		Exact: true,
	}, true
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
