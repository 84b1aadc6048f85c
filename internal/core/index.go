package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/merx"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// This file splits the engine into its two halves — persistent
// index construction (BuildIndex, the paper's §III) and query serving
// (ThreadedIndex.Query, §IV) — so a long-lived service builds the seed
// index once and streams read batches through it forever. RunThreaded is a
// thin build-then-query composition of the two (see threaded.go).

// ThreadedIndex is the resident product of BuildIndex: the fragment table,
// the sealed sharded seed index, and the single-copy flags, over one target
// set. It is immutable after BuildIndex returns, so any number of Query
// calls may run against it concurrently.
type ThreadedIndex struct {
	opt     IndexOptions
	targets []seqio.Seq
	ft      *FragmentTable
	sx      *dht.Sharded

	buildPhases []Phase   // extract+stage, drain, mark (wall-clock)
	stats       dht.Stats // computed once at seal time

	// shard identifies this index as one slice of a sharded reference
	// (the snapshot's "SHRD" section, written by SaveShards); nil for a whole
	// reference.
	shard *ShardInfo

	// procs recycles Query's processors, and with them their buffers, from
	// one call to the next.
	procs sync.Pool

	// snap is the backing snapshot when the index was produced by LoadIndex
	// rather than BuildIndex: the seed table and target sequences alias its
	// mapping, so it must stay open for the index's lifetime (see Close).
	// nil for built indexes.
	snap *merx.File
}

// BuildIndex constructs the seed index over targets exactly once: fragment
// the targets (§IV-A), extract and stage seeds with the aggregating-stores
// scheme (§III-A, at dht's default S = 1000), drain each shard lock-free
// into its flat table (sort, then one run-length pass), and mark
// single-copy fragments. Every location of every seed is stored, so the
// index answers any MaxSeedHits threshold. workers is the goroutine pool
// size for the construction phases only; queries may later run with any
// worker count.
func BuildIndex(workers int, opt IndexOptions, targets []seqio.Seq) (*ThreadedIndex, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("core: threads must be positive, got %d", workers)
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	var phases []Phase

	ft := BuildFragmentTable(targets, opt.K, opt.FragmentLen, workers)

	totalSeeds := 0
	for f := 0; f < ft.NumFragments(); f++ {
		if n := int(ft.Frags[f].Len) - opt.K + 1; n > 0 {
			totalSeeds += n
		}
	}
	sx, err := dht.NewSharded(dht.ShardedConfig{K: opt.K, Shards: dht.DefaultShards(workers)},
		ft.NumFragments(), totalSeeds, workers)
	if err != nil {
		return nil, err
	}

	// ---- Phase 1: extract seeds and stage into the sharded index ----
	builders := make([]*dht.ShardedBuilder, workers)
	for w := range builders {
		builders[w] = sx.NewBuilder()
	}
	phases = timePhase(phases, PhaseExtract, func() {
		runPool(workers, ft.NumFragments(), extractChunk, func(w, lo, hi int) {
			b := builders[w]
			var sc kmer.Scanner // rolling forward+RC windows, O(1) per base
			for f := lo; f < hi; f++ {
				sc.Reset(ft.FragSeq(int32(f)), opt.K)
				for sc.Next() {
					canon, rc := sc.Canonical()
					b.Add(dht.SeedEntry{Seed: canon, Loc: dht.Loc{
						Frag: int32(f),
						Off:  int32(sc.Offset()),
						RC:   rc,
					}})
				}
			}
		})
		for _, b := range builders {
			b.Flush()
		}
	})

	// ---- Phase 2: drain each shard into its flat table (lock-free) ----
	phases = timePhase(phases, PhaseDrain, func() {
		runPool(workers, sx.Shards(), 1, func(w, lo, hi int) {
			for s := lo; s < hi; s++ {
				sx.DrainShard(s)
			}
		})
	})

	// ---- Phase 3: mark single-copy-seed fragments (§IV-A) ----
	if opt.ExactMatch {
		phases = timePhase(phases, PhaseMark, func() {
			runPool(workers, sx.Shards(), 1, func(w, lo, hi int) {
				for s := lo; s < hi; s++ {
					sx.MarkShard(s)
				}
			})
		})
	}

	// Seal: release the staging arena and freeze the table (the drain already
	// wrote it in its final form, and tallied each shard's stats as it did),
	// and keep the summed stats so per-query Results carry them.
	sx.Seal()
	return &ThreadedIndex{
		opt:         opt,
		targets:     targets,
		ft:          ft,
		sx:          sx,
		buildPhases: phases,
		stats:       sx.Stats(),
	}, nil
}

// Options returns the build-time options the index was constructed with.
func (ix *ThreadedIndex) Options() IndexOptions { return ix.opt }

// Targets returns the target set the index was built over.
func (ix *ThreadedIndex) Targets() []seqio.Seq { return ix.targets }

// Stats returns the index statistics snapshot taken at seal time.
func (ix *ThreadedIndex) Stats() dht.Stats { return ix.stats }

// ResidentBytes is the exact resident memory footprint of the sealed index
// (slot arrays, location arenas, single-copy flags; the fragment table's
// unpacked target codes are counted separately via TargetCodesBytes).
func (ix *ThreadedIndex) ResidentBytes() int64 { return ix.sx.ResidentBytes() }

// TargetCodesBytes is the footprint of the unpacked target code slices held
// by the fragment table for Smith-Waterman and exact-match comparison.
func (ix *ThreadedIndex) TargetCodesBytes() int64 {
	var n int64
	for _, t := range ix.targets {
		n += int64(t.Seq.Len())
	}
	return n
}

// BuildPhases returns the wall-clock phase stats of index construction:
// extract+stage, drain (sort, table write and the shard's stats tally — all
// of the table's construction cost), and mark when the exact-match
// optimization is on. Seal and the stats sum that follow are not a phase;
// they cost what the whole build took beyond BuildWall.
func (ix *ThreadedIndex) BuildPhases() []Phase {
	return append([]Phase(nil), ix.buildPhases...)
}

// BuildWall sums the wall-clock seconds of the construction phases.
func (ix *ThreadedIndex) BuildWall() float64 { return realWall(ix.buildPhases) }

// Query aligns one batch of queries against the resident index (the
// aligning phase of Algorithm 1 with the §IV optimizations), using a pool
// of at most workers goroutines: one per alignBatch queries, and none
// beyond the calling goroutine for a batch that small. It is safe to call
// concurrently from any number of goroutines: every call owns its
// processors and result buffers, and the index itself is immutable.
//
// Cancellation is honored inside a claim: once ctx is done, workers stop
// at the next read or candidate extension, and Query returns ctx.Err()
// without results. Results carry the per-call wall-clock align phase and
// the seal-time index statistics.
func (ix *ThreadedIndex) Query(ctx context.Context, workers int, opt QueryOptions, queries []seqio.Seq) (*Results, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("core: threads must be positive, got %d", workers)
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	workers = poolWorkers(workers, len(queries), alignBatch)
	// A resolver failure on any worker aborts the whole call: the failing
	// worker cancels qctx so its peers stop claiming chunks, and the
	// resolver error (not the derived cancellation) is surfaced. A lone
	// worker has no peers to stop.
	qctx, cancel := ctx, context.CancelFunc(func() {})
	if workers > 1 {
		qctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	var stop atomic.Bool
	if qctx.Done() != nil {
		defer context.AfterFunc(qctx, func() { stop.Store(true) })()
	}
	perQuery := newPerQuery(opt, len(queries))
	qps := make([]*QueryProcessor, workers)
	for w := range qps {
		qps[w] = ix.newProcessor(qctx, opt, &stop, perQuery)
	}
	start := time.Now()
	runPoolCtx(qctx, workers, len(queries), alignBatch, func(w, lo, hi int) {
		qps[w].ProcessClaim(int32(lo), queries[lo:hi])
		if qps[w].err != nil {
			cancel()
		}
	})
	res, err := ix.results(ctx, opt, qps, perQuery, len(queries), time.Since(start))
	for _, qp := range qps {
		qp.recycle()
		ix.procs.Put(qp)
	}
	return res, err
}

// newProcessor returns one worker's processor for a call, recycled from an
// earlier call when one is free, so a call grows no claim buffers in steady
// state. It resolves seeds through opt.SeedResolver under ctx when that is
// set, else through the sealed table.
func (ix *ThreadedIndex) newProcessor(ctx context.Context, opt QueryOptions, stop *atomic.Bool, perQuery []QueryStat) *QueryProcessor {
	qp, _ := ix.procs.Get().(*QueryProcessor)
	if qp == nil {
		qp = new(QueryProcessor)
	}
	qp.init(Options{IndexOptions: ix.opt, QueryOptions: opt}, threadedAccess{sx: ix.sx}, ix.ft)
	qp.ctx, qp.stop, qp.perQuery = ctx, stop, perQuery
	return qp
}

// newPerQuery allocates the per-query stat slots when the call collects
// them. Indexed by query: each query is processed exactly once, so the
// slots are written without contention.
func newPerQuery(opt QueryOptions, n int) []QueryStat {
	if !opt.CollectPerQuery {
		return nil
	}
	return make([]QueryStat, n)
}

// processStat runs process for query qi and, when the call collects
// per-query stats, fills the query's QueryStat from the deltas of the
// processor's counts. The claim's seed resolution is not part of it.
func (qp *QueryProcessor) processStat(qi int32, q dna.Packed) {
	if qp.perQuery == nil {
		qp.process(qi, q)
		return
	}
	swc, slk, aln, exa := qp.SWCalls, qp.SeedLookups, qp.totalAlignments, qp.exact
	start := time.Now()
	qp.process(qi, q)
	out := &qp.perQuery[qi]
	out.Nanos = time.Since(start).Nanoseconds()
	out.SWCalls = int32(qp.SWCalls - swc)
	out.SeedLookups = int32(qp.SeedLookups - slk)
	out.Alignments = int32(qp.totalAlignments - aln)
	out.Exact = qp.exact > exa
	if q.Len() < qp.opt.K {
		out.Status = QueryTooShort
	}
}

// results is Query's tail: surface a resolver or cancellation error, else
// merge the workers into one Results.
func (ix *ThreadedIndex) results(ctx context.Context, opt QueryOptions, qps []*QueryProcessor, perQuery []QueryStat, reads int, elapsed time.Duration) (*Results, error) {
	for _, qp := range qps {
		if qp.err != nil {
			return nil, qp.err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Results{
		TotalReads: reads,
		Phases:     []Phase{{Name: PhaseAlign, RealWall: elapsed.Seconds()}},
		IndexStats: ix.stats,
		PerQuery:   perQuery,
	}
	MergeProcessors(res, qps, opt.CollectAlignments)
	return res, nil
}
