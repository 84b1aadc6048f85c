package service

import (
	"bytes"
	"context"
	"sync"
	"testing"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// span returns the first span of the given stage, or nil.
func span(rec telemetry.RequestTrace, stage string) *telemetry.Span {
	for i := range rec.Spans {
		if rec.Spans[i].Stage == stage {
			return &rec.Spans[i]
		}
	}
	return nil
}

// TestBatcherQueueWaitSpansUnderCoalescing pins the batch_wait span's
// semantics when requests coalesce: every member of a shared engine call
// reports its own queue wait (enqueue -> dispatch) ending exactly where
// its engine span begins, and names how many requests shared the call.
func TestBatcherQueueWaitSpansUnderCoalescing(t *testing.T) {
	_, reads := fixture(t)
	const n = 8
	srv, ts := newTestServer(t, func(c *Config) {
		c.MaxBatch = n
		c.Workers = 1
	})
	cl := client.New(ts.URL)

	// Coalescing needs overlap with the one in-flight engine call; repeat
	// bounded rounds of concurrent posts until a trace shows a shared call.
	var coalesced *telemetry.RequestTrace
	for round := 0; round < 10 && coalesced == nil; round++ {
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = cl.Align(context.Background(), client.AlignRequest{
					Reads: client.FromSeqs([]meraligner.Seq{reads[i%len(reads)]}),
				})
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, rec := range srv.TraceRing().Snapshot() {
			if sp := span(rec, "batch_wait"); sp != nil && sp.Requests >= 2 {
				coalesced = &rec
				break
			}
		}
	}
	if coalesced == nil {
		t.Skip("no coalescing observed (single-CPU host?); span shape covered by the uncoalesced assertions elsewhere")
	}

	bw := span(*coalesced, "batch_wait")
	eng := span(*coalesced, "engine")
	adm := span(*coalesced, "admission")
	if bw == nil || eng == nil || adm == nil {
		t.Fatalf("coalesced trace lacks spans: %+v", coalesced.Spans)
	}
	if eng.Requests != bw.Requests {
		t.Fatalf("engine span reports %d member requests, batch_wait %d", eng.Requests, bw.Requests)
	}
	if bw.Reads != 1 {
		t.Fatalf("batch_wait reads = %d, want this member's 1", bw.Reads)
	}
	if eng.Reads < bw.Requests {
		t.Fatalf("engine span reads = %d, want >= the %d coalesced single-read requests", eng.Reads, bw.Requests)
	}
	// The member's queue wait ends where the shared engine call begins
	// (allow a few microseconds of independent truncation).
	gap := eng.StartUs - (bw.StartUs + bw.DurationUs)
	if gap < -10 || gap > 10 {
		t.Fatalf("batch_wait ends at %dus but engine starts at %dus", bw.StartUs+bw.DurationUs, eng.StartUs)
	}
	if adm.StartUs > bw.StartUs {
		t.Fatalf("admission (%dus) must precede batch_wait (%dus)", adm.StartUs, bw.StartUs)
	}
	if total := coalesced.DurationUs; bw.DurationUs > total || eng.DurationUs > total {
		t.Fatalf("span durations exceed the request's: bw=%d eng=%d total=%d", bw.DurationUs, eng.DurationUs, total)
	}
	if eng.SWCalls <= 0 && eng.SeedLookups <= 0 {
		t.Fatalf("engine span carries no read stats: %+v", eng)
	}
}

// TestServiceSAMIdenticalTracedVsUntraced pins that tracing is inert on
// the single-node output path too.
func TestServiceSAMIdenticalTracedVsUntraced(t *testing.T) {
	_, reads := fixture(t)
	_, ts := newTestServer(t, nil)

	cl := client.New(ts.URL)
	want, err := cl.AlignSAM(context.Background(), client.AlignRequest{Reads: client.FromSeqs(reads[:6])})
	if err != nil {
		t.Fatal(err)
	}
	sc := telemetry.NewSpanContext()
	tr := telemetry.NewTrace(sc, "/test")
	ctx := telemetry.WithTrace(context.Background(), tr)
	got, err := cl.AlignSAM(ctx, client.AlignRequest{Reads: client.FromSeqs(reads[:6])})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SAM differs traced vs untraced:\ntraced:\n%s\nuntraced:\n%s", got, want)
	}
}
