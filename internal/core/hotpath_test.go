package core

import (
	"context"
	"strconv"
	"testing"

	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// This file guards the query hot path: the rolling seed scanner, the sealed
// flat seed table, and score-only Smith-Waterman on the processor's own
// scratch — parity between the pool and the calling goroutine, and the
// zero-allocations-per-read invariant of the serial path. The per-call
// overhead of a 1-read call is pinned through Aligner.Align
// (TestAlignPerCallAllocs).

// TestQueryInlineMatchesPool: one worker runs the batch on the calling
// goroutine (the route of every batch of at most alignBatch reads) and must
// produce byte-identical Results to the worker pool on the same sealed
// index.
func TestQueryInlineMatchesPool(t *testing.T) {
	ds := testWorkload(t, 60_000, 3, 0.005)
	opt := testOptions(21)
	ix, err := BuildIndex(3, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := ix.Query(context.Background(), 3, opt.QueryOptions, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Reads) <= 2*alignBatch {
		t.Fatalf("%d reads: too few for a three-worker pool", len(ds.Reads))
	}
	serial, err := ix.Query(context.Background(), 1, opt.QueryOptions, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if pool.AlignedReads != serial.AlignedReads ||
		pool.TotalAlignments != serial.TotalAlignments ||
		pool.SWCalls != serial.SWCalls ||
		pool.SeedLookups != serial.SeedLookups {
		t.Errorf("serial/pool summary differs: %d/%d/%d/%d vs %d/%d/%d/%d",
			pool.AlignedReads, pool.TotalAlignments, pool.SWCalls, pool.SeedLookups,
			serial.AlignedReads, serial.TotalAlignments, serial.SWCalls, serial.SeedLookups)
	}
	if len(pool.Alignments) != len(serial.Alignments) {
		t.Fatalf("alignment counts differ: %d vs %d", len(pool.Alignments), len(serial.Alignments))
	}
	for i := range pool.Alignments {
		if pool.Alignments[i] != serial.Alignments[i] {
			t.Fatalf("alignment %d differs:\npool:   %+v\nserial: %+v",
				i, pool.Alignments[i], serial.Alignments[i])
		}
	}
}

// queryNoAllocFixture builds a sealed index and a ready-to-run serial
// processor over a batch of reads that all carry at least one seed. The
// processor resolves seeds a claim at a time, through the sealed table or,
// with remote set, through loaded seed shards, as the engine does.
func queryNoAllocFixture(tb testing.TB, remote bool) (*QueryProcessor, []seqio.Seq) {
	ds := testWorkload(tb, 60_000, 2, 0.01)
	opt := DefaultOptions(21) // statistics-only: CollectAlignments off
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		tb.Fatal(err)
	}
	if remote {
		opt.SeedResolver = &shardSetResolver{shards: loadSeedShardSet(tb, ix, 2)}
	}
	qp := NewQueryProcessor(opt, threadedAccess{sx: ix.sx}, ix.ft)
	var reads []seqio.Seq
	for qi := range ds.Reads {
		if ds.Reads[qi].Seq.Len() >= opt.K {
			reads = append(reads, ds.Reads[qi])
		}
		if len(reads) == 64 {
			break
		}
	}
	if len(reads) < 16 {
		tb.Fatal("not enough full-length reads for the no-alloc fixture")
	}
	// Warm every reusable buffer and pin the fixture's other assumption:
	// the workload exercises the general path (Smith-Waterman), not just the
	// exact-match shortcut.
	qp.ProcessClaim(0, reads)
	if qp.SWCalls == 0 {
		tb.Fatal("fixture reads never reached Smith-Waterman; no-alloc run would be vacuous")
	}
	return qp, reads
}

// exactCollectFixture builds a sealed index and a serial processor that
// collects alignment records, with a batch of error-free reads that each
// took the exact path (§IV-A) on the warm-up run.
func exactCollectFixture(tb testing.TB) (*QueryProcessor, []seqio.Seq) {
	ds := testWorkload(tb, 60_000, 2, 0)
	opt := testOptions(21)
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		tb.Fatal(err)
	}
	qp := NewQueryProcessor(opt, threadedAccess{sx: ix.sx}, ix.ft)
	var reads []seqio.Seq
	for qi := 0; qi < len(ds.Reads) && len(reads) < 64; qi++ {
		if ds.Reads[qi].Seq.Len() < opt.K {
			continue
		}
		exact := qp.exact
		qp.ProcessClaim(int32(qi), ds.Reads[qi:qi+1])
		if qp.exact > exact {
			reads = append(reads, ds.Reads[qi])
		}
	}
	if len(reads) < 16 {
		tb.Fatal("not enough exact-path reads for the collecting no-alloc fixture")
	}
	return qp, reads
}

// TestQueryPathZeroAllocs asserts the invariant directly (so it runs in
// every `go test` invocation, not only under -bench): after warm-up, a
// claim on the serial statistics path — its seed resolution included, local
// or remote — performs ZERO heap allocations. The remote processor does
// the local one's work exactly, comparisons included. A collecting run of
// exact-path reads allocates nothing either — no cigar per read — beyond
// the growth of its record list, which is reset between runs.
func TestQueryPathZeroAllocs(t *testing.T) {
	collect, exactReads := exactCollectFixture(t)
	run := func() {
		collect.alignments = collect.alignments[:0]
		collect.ProcessClaim(0, exactReads)
	}
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Fatalf("collecting exact path allocates %.2f objects per %d-read claim in steady state, want 0",
			avg, len(exactReads))
	}
	exact0 := collect.exact
	run()
	if collect.exact-exact0 != len(exactReads) || len(collect.alignments) != len(exactReads) {
		t.Fatalf("exact-path fixture left the exact path: %d of %d reads exact, %d records",
			collect.exact-exact0, len(exactReads), len(collect.alignments))
	}

	local, reads := queryNoAllocFixture(t, false)
	remote, _ := queryNoAllocFixture(t, true)
	if remote.err != nil {
		t.Fatal(remote.err)
	}
	if local.SeedLookups != remote.SeedLookups || local.MemcmpBytes != remote.MemcmpBytes ||
		local.SWCalls != remote.SWCalls || local.SWCells != remote.SWCells {
		t.Fatalf("remote work %d/%d/%d/%d differs from local %d/%d/%d/%d (lookups/memcmp/SW calls/cells)",
			remote.SeedLookups, remote.MemcmpBytes, remote.SWCalls, remote.SWCells,
			local.SeedLookups, local.MemcmpBytes, local.SWCalls, local.SWCells)
	}
	for name, qp := range map[string]*QueryProcessor{"local": local, "remote": remote} {
		avg := testing.AllocsPerRun(50, func() { qp.ProcessClaim(0, reads) })
		if avg != 0 {
			t.Fatalf("%s serial query path allocates %.2f objects per %d-read claim in steady state, want 0",
				name, avg, len(reads))
		}
	}
}

// BenchmarkQueryNoAlloc measures the per-read cost of the serial hot path,
// a claim at a time with its seed resolution, and enforces the
// zero-allocs-per-claim invariant under the benchmark harness (CI runs it
// with -benchtime=1x as a smoke check).
func BenchmarkQueryNoAlloc(b *testing.B) {
	qp, reads := queryNoAllocFixture(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qp.ProcessClaim(0, reads)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reads)), "ns/read")
	b.StopTimer()
	avg := testing.AllocsPerRun(20, func() { qp.ProcessClaim(0, reads) })
	if avg != 0 {
		b.Fatalf("serial query path allocates %.2f objects per %d-read claim in steady state, want 0",
			avg, len(reads))
	}
}

// BenchmarkExactPath times the per-read constant work of the §IV-A exact
// path with the probe taken out: priming the read's scanner (Scanner.Reset
// and its first canonical seed) and comparing the whole read with the
// target (exactHit, then tryExact's word compare), on the error-free reads
// of both strands that the exact path settles, at one- and two-word seed
// lengths. The first seeds are resolved once, before the timer.
func BenchmarkExactPath(b *testing.B) {
	ds := testWorkload(b, 60_000, 2, 0)
	for _, k := range []int{19, 31, 51} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			opt := DefaultOptions(k)
			ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
			if err != nil {
				b.Fatal(err)
			}
			qp := NewQueryProcessor(opt, threadedAccess{sx: ix.sx}, ix.ft)
			var reads []seqio.Seq
			var first seedBatch
			var sc kmer.Scanner
			for _, r := range ds.Reads {
				if r.Seq.Len() >= k {
					reads = append(reads, r)
					sc.Reset(r.Seq, k)
					sc.Next()
					first.add(sc.Canonical())
				}
			}
			if err := first.resolve(context.Background(), qp.seeds); err != nil {
				b.Fatal(err)
			}
			// Keep the reads the exact path settles (the workload's repeats
			// send the rest to Smith-Waterman).
			var ans []SeedAnswer
			exact := reads[:0]
			for i, r := range reads {
				if qp.exactHit(r.Seq, first.ans[i], first.rc[i]).Exact {
					exact, ans = append(exact, r), append(ans, first.ans[i])
				}
			}
			if reads = exact; len(reads) < 500 {
				b.Fatalf("only %d reads took the exact path", len(reads))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				for i, r := range reads {
					sc.Reset(r.Seq, k)
					sc.Next()
					_, rc := sc.Canonical()
					if !qp.exactHit(r.Seq, ans[i], rc).Exact {
						b.Fatal("an exact-path read left the exact path")
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reads)), "ns/read")
		})
	}
}
