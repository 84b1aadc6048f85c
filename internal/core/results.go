package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Window returns the alignment records of queries [lo, hi), in query order:
// two binary searches into the order every engine emits, so a coalesced
// call's member windows each cost their own size, not the call's. The
// result aliases r.Alignments. A Results built by hand (no engine vouches
// for its order) is checked, and when out of order read through a copy
// stably sorted by query.
func (r *Results) Window(lo, hi int) []Alignment {
	a := r.Alignments
	byQuery := func(x, y Alignment) int { return cmp.Compare(x.Query, y.Query) }
	if !r.queryOrdered && !slices.IsSortedFunc(a, byQuery) {
		a = slices.Clone(a)
		slices.SortStableFunc(a, byQuery)
	}
	i := sort.Search(len(a), func(i int) bool { return a[i].Query >= int32(lo) })
	j := sort.Search(len(a), func(i int) bool { return a[i].Query >= int32(hi) })
	return a[i:max(i, j)]
}

// Slice returns the results of queries [lo, hi) of this batch as a
// standalone Results with query indices rebased to start at zero — the
// demux primitive for coalesced service batches: a micro-batcher that glued
// several requests' reads into one engine call hands each request back its
// own window, indistinguishable from a direct Align over just those reads.
//
// Per-query fields (Alignments, TooShort, PerQuery) are narrowed and
// re-indexed; per-query counters (AlignedReads, ExactPathReads,
// TotalAlignments) are recomputed from the window. SWCalls and SeedLookups
// are recovered from PerQuery when it was collected and are zero otherwise
// (the engine only tracks them per call). Call-level snapshots — Phases and
// IndexStats — describe the whole engine call the window was part of and
// are carried through as-is.
//
// Slice requires the batch to have been run with CollectAlignments (the
// alignment records are the only per-query source of the counters).
func (r *Results) Slice(lo, hi int) *Results {
	if lo < 0 || hi < lo || hi > r.TotalReads {
		panic(fmt.Sprintf("core: Slice [%d,%d) out of range of %d reads", lo, hi, r.TotalReads))
	}
	out := &Results{
		Phases:       r.Phases,
		TotalReads:   hi - lo,
		IndexStats:   r.IndexStats,
		Alignments:   slices.Clone(r.Window(lo, hi)),
		queryOrdered: true,
	}
	out.TotalAlignments = int64(len(out.Alignments))
	lastQ := int32(-1)
	for k := range out.Alignments {
		al := &out.Alignments[k]
		al.Query -= int32(lo)
		if al.Query != lastQ {
			out.AlignedReads++
			lastQ = al.Query
		}
		if al.Exact {
			// The fast path reports exactly one alignment per resolved read.
			out.ExactPathReads++
		}
	}

	for _, qi := range r.TooShort {
		if qi >= int32(lo) && qi < int32(hi) {
			out.TooShort = append(out.TooShort, qi-int32(lo))
		}
	}
	out.TooShortReads = len(out.TooShort)

	if r.PerQuery != nil {
		out.PerQuery = make([]QueryStat, hi-lo)
		copy(out.PerQuery, r.PerQuery[lo:hi])
		for _, s := range out.PerQuery {
			out.SWCalls += int64(s.SWCalls)
			out.SeedLookups += int64(s.SeedLookups)
		}
	}
	return out
}
