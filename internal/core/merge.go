package core

import (
	"cmp"
	"slices"
)

// MergeProcessors folds the per-worker aligning-phase results into res and,
// when alignments were collected, places them in a canonical total order:
// by query, then by every other field (compareAlignments). res.TotalReads
// must already be set and every record's Query lie below it. Every engine
// merges through here, so identical per-query results yield identical
// Results.Alignments slices regardless of how work was scheduled.
//
// Placement is a counting pass over Query, not a sort of the call: each
// record lands in its read's run of the output, and only runs of two or
// more records — a read with several hits — are ordered further. The work
// is linear in records plus reads, whatever order the workers emitted them
// in.
func MergeProcessors(res *Results, qps []*QueryProcessor, collected bool) {
	for _, qp := range qps {
		res.AlignedReads += qp.aligned
		res.ExactPathReads += qp.exact
		res.TotalAlignments += qp.totalAlignments
		res.SWCalls += qp.SWCalls
		res.SeedLookups += qp.SeedLookups
		res.TooShort = append(res.TooShort, qp.tooShort...)
	}
	res.TooShortReads = len(res.TooShort)
	slices.Sort(res.TooShort)
	if collected {
		res.Alignments = placeByQuery(res.TotalReads, qps)
		res.queryOrdered = true
	}
}

// placeByQuery gathers the processors' alignment records into one slice in
// query order (a counting sort on Query over reads queries) and orders each
// read's run with compareAlignments. No records gather into nil.
func placeByQuery(reads int, qps []*QueryProcessor) []Alignment {
	next := make([]int32, reads+1) // next[q+1] counts query q, then prefix-sums into run starts
	n := 0
	for _, qp := range qps {
		n += len(qp.alignments)
		for i := range qp.alignments {
			next[qp.alignments[i].Query+1]++
		}
	}
	if n == 0 {
		return nil
	}
	for q := 1; q <= reads; q++ {
		next[q] += next[q-1]
	}
	out := make([]Alignment, n)
	for _, qp := range qps {
		for i := range qp.alignments {
			q := qp.alignments[i].Query
			out[next[q]] = qp.alignments[i]
			next[q]++
		}
	}
	// next[q] is now the end of query q's run, and the start of q+1's.
	lo := int32(0)
	for _, hi := range next[:reads] {
		if hi-lo > 1 {
			slices.SortFunc(out[lo:hi], compareAlignments)
		}
		lo = hi
	}
	return out
}

// compareAlignments is the total order of one read's alignment records:
// target, target start, target end, forward strand first, query start,
// query end, score descending, cigar — so the output is deterministic even
// when distinct alignments tie on coordinates.
func compareAlignments(a, b Alignment) int {
	switch {
	case a.Query != b.Query:
		return cmp.Compare(a.Query, b.Query)
	case a.Target != b.Target:
		return cmp.Compare(a.Target, b.Target)
	case a.TStart != b.TStart:
		return cmp.Compare(a.TStart, b.TStart)
	case a.TEnd != b.TEnd:
		return cmp.Compare(a.TEnd, b.TEnd)
	case a.RC != b.RC:
		if a.RC {
			return 1
		}
		return -1
	case a.QStart != b.QStart:
		return cmp.Compare(a.QStart, b.QStart)
	case a.QEnd != b.QEnd:
		return cmp.Compare(a.QEnd, b.QEnd)
	case a.Score != b.Score:
		return cmp.Compare(b.Score, a.Score)
	}
	return cmp.Compare(a.Cigar, b.Cigar)
}
