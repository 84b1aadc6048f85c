package core

import "sort"

// MergeProcessors folds the per-worker aligning-phase results into res and,
// when alignments were collected, sorts them into a canonical total order.
// Every engine merges through here, so identical per-query results yield
// identical Results.Alignments slices regardless of how work was scheduled.
func MergeProcessors(res *Results, qps []*QueryProcessor, collected bool) {
	for _, qp := range qps {
		res.AlignedReads += qp.aligned
		res.ExactPathReads += qp.exact
		res.TotalAlignments += qp.totalAlignments
		res.SWCalls += qp.SWCalls
		res.SeedLookups += qp.SeedLookups
		res.Alignments = append(res.Alignments, qp.alignments...)
		res.TooShort = append(res.TooShort, qp.tooShort...)
	}
	res.TooShortReads = len(res.TooShort)
	sort.Slice(res.TooShort, func(i, j int) bool { return res.TooShort[i] < res.TooShort[j] })
	if collected {
		sortAlignments(res.Alignments)
		res.queryOrdered = true
	}
}

// sortAlignments orders alignments by every field — a total order, so the
// output is deterministic even when distinct alignments tie on coordinates.
func sortAlignments(as []Alignment) {
	sort.Slice(as, func(i, j int) bool {
		a, b := as[i], as[j]
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		if a.TStart != b.TStart {
			return a.TStart < b.TStart
		}
		if a.TEnd != b.TEnd {
			return a.TEnd < b.TEnd
		}
		if a.RC != b.RC {
			return !a.RC
		}
		if a.QStart != b.QStart {
			return a.QStart < b.QStart
		}
		if a.QEnd != b.QEnd {
			return a.QEnd < b.QEnd
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Cigar < b.Cigar
	})
}
