package core

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// sortAlignmentsOracle is the merge's order as a whole-call sort: the
// comparator MergeProcessors used before it placed records by a counting
// pass, kept here as the oracle for that placement.
func sortAlignmentsOracle(as []Alignment) {
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

// mergeTestRead returns 0-5 distinct alignment records of query qi, in the
// arbitrary order a processor finds them. Records of one read tie on every
// key but one, so each comparator key in turn decides the order.
func mergeTestRead(rng *rand.Rand, qi int32) []Alignment {
	n := rng.Intn(6)
	base := Alignment{
		Query: qi, Target: int32(rng.Intn(4)), RC: rng.Intn(2) == 1,
		Score: int32(20 + rng.Intn(40)), QStart: int32(rng.Intn(5)), QEnd: int32(60 + rng.Intn(5)),
		TStart: int32(rng.Intn(1000)), TEnd: int32(1000 + rng.Intn(1000)), Cigar: "60M",
	}
	if n == 1 && rng.Intn(2) == 0 {
		base.Exact, base.Cigar = true, strconv.Itoa(int(base.QEnd-base.QStart))+"M"
	}
	key := rng.Intn(8)
	if key == 4 { // RC has two values
		n = min(n, 2)
	}
	out := make([]Alignment, 0, n)
	for _, v := range rng.Perm(n) {
		a := base
		switch d := int32(v); key {
		case 0:
			a.Target += d
		case 1:
			a.TStart += d
		case 2:
			a.TEnd += d
		case 3:
			a.QStart += d
		case 4:
			a.RC = a.RC != (v == 1)
		case 5:
			a.QEnd += d
		case 6:
			a.Score += d
		case 7:
			a.Cigar = strconv.Itoa(60+v) + "M"
		}
		out = append(out, a)
	}
	return out
}

// TestMergeMatchesSortOracle holds the counting-placement merge to the
// whole-call sort it replaced, for 0-600 reads, with processors that saw
// the queries in order (the threaded engine's claims) and in a permuted
// order (the sim engine's load-balancing shuffle).
func TestMergeMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var sizes []int
	for reads := 0; reads < 600; reads += 1 + reads/8 {
		sizes = append(sizes, reads)
	}
	for _, reads := range append(sizes, 600) {
		perRead := make([][]Alignment, reads)
		var want []Alignment
		for qi := range perRead {
			perRead[qi] = mergeTestRead(rng, int32(qi))
			want = append(want, perRead[qi]...)
		}
		sortAlignmentsOracle(want)
		for _, permuted := range []bool{false, true} {
			order := make([]int, reads)
			for i := range order {
				order[i] = i
			}
			if permuted {
				rng.Shuffle(reads, func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			workers := 1 + rng.Intn(4)
			qps := make([]*QueryProcessor, workers)
			for w := range qps {
				qps[w] = &QueryProcessor{alignments: []Alignment{}}
			}
			for i, qi := range order { // contiguous chunks of the order, one per worker
				qp := qps[i*workers/max(reads, 1)]
				qp.alignments = append(qp.alignments, perRead[qi]...)
			}
			res := &Results{TotalReads: reads}
			MergeProcessors(res, qps, true)
			if len(res.Alignments) != len(want) {
				t.Fatalf("reads=%d permuted=%v: %d records, want %d", reads, permuted, len(res.Alignments), len(want))
			}
			for i := range want {
				if res.Alignments[i] != want[i] {
					t.Fatalf("reads=%d permuted=%v: record %d = %+v, want %+v", reads, permuted, i, res.Alignments[i], want[i])
				}
			}
			if got := res.Window(0, reads); len(got) != len(want) {
				t.Fatalf("reads=%d: Window over the merge holds %d records, want %d", reads, len(got), len(want))
			}
		}
	}
}
