package core

import (
	"sync/atomic"
	"testing"

	"github.com/lbl-repro/meraligner/internal/align"
)

// The extension engine is pluggable (§VIII). A custom extender must be
// invoked on the general path and its results reported.
func TestPluggableExtendEngine(t *testing.T) {
	ds := testWorkload(t, 40_000, 2, 0.01)
	var calls int64
	opt := testOptions(21)
	opt.ExactMatch = false // force every read through the general path
	opt.Extend = func(query, target []byte, qOff, tOff, k int, sc align.Scoring, pad int) align.Result {
		atomic.AddInt64(&calls, 1)
		return align.ExtendSeed(query, target, qOff, tOff, k, sc, pad)
	}
	res, err := RunThreaded(4, opt, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("custom extender never invoked")
	}
	if calls != res.SWCalls {
		t.Errorf("extender calls %d != SWCalls %d", calls, res.SWCalls)
	}
	if res.AlignedReads == 0 {
		t.Error("nothing aligned through custom extender")
	}

	// A degenerate extender that rejects everything must yield only
	// exact-path alignments when the fast path is on.
	opt2 := testOptions(21)
	opt2.Extend = func(query, target []byte, qOff, tOff, k int, sc align.Scoring, pad int) align.Result {
		return align.Result{} // score 0: below any MinScore
	}
	res2, err := RunThreaded(4, opt2, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res2.Alignments {
		if !a.Exact {
			t.Fatalf("non-exact alignment %+v reported with rejecting extender", a)
		}
	}
	if res2.ExactPathReads == 0 {
		t.Error("exact path should still produce alignments")
	}
}
