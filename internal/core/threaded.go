package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// This file holds the shared plumbing of the execution engine — the worker
// pool, the wall-clock phase timer, and the index adapter — plus
// RunThreaded, the one-shot entry point. The engine itself is split into
// its two halves in index.go: BuildIndex (seed-index construction,
// §III) and ThreadedIndex.Query (the aligning phase, §IV). RunThreaded
// composes them, so a one-shot run and a build-once/serve-many service
// execute literally the same code.
//
// The engine mirrors the paper's structure phase by phase:
//
//	extract+stage  workers pull fragment chunks from an atomic work cursor,
//	               extract seeds, and stage them into per-worker S-entry
//	               buffers that ship to the index arena with one atomic
//	               reservation per batch (aggregating stores, §III-A)
//	drain          workers pull shards; each shard sorts and inserts its
//	               entries locally, lock-free
//	mark           workers pull shards; repeat seeds clear single-copy
//	               flags with idempotent atomic stores (§IV-A)
//	align          workers pull query batches; each query runs the exact-
//	               match fast path (§IV-A) and the general seed-lookup +
//	               extension path (§IV-B): Smith-Waterman with
//	               traceback (align.Local) when alignments are collected,
//	               the same DP score-only (align.Scorer) on
//	               statistics-only runs
//
// Alignments are byte-identical to the simulated machine's (internal/sim)
// on the same inputs: the sharded index sorts entries into the same order as
// the simulated drain (dht.SortEntries), so location lists —
// and therefore candidate order, deduplication, and scores — match exactly.

// threadedAccess adapts the sealed dht.Sharded table to IndexAccess.
type threadedAccess struct {
	sx *dht.Sharded
}

func (a threadedAccess) SingleCopy(frag int32) bool { return a.sx.SingleCopy(int(frag)) }

// ResolveSeeds probes the sealed table once per seed: the local answer to
// every claim whose call brings no resolver of its own.
func (a threadedAccess) ResolveSeeds(_ context.Context, seeds []kmer.Kmer, out []SeedAnswer) error {
	for i, s := range seeds {
		out[i].Res, out[i].OK = a.sx.Lookup(s)
	}
	return nil
}

// FetchTarget is a no-op: target sequences live in shared memory.
func (a threadedAccess) FetchTarget(target int32, targetBytes, owner int) {}

// chunk sizes for the dynamic work cursors: small enough to balance skewed
// fragment lengths and per-read work, large enough to amortize the atomic.
const (
	extractChunk = 32  // fragments per claim
	alignBatch   = 256 // queries per claim
)

// runPool runs fn on up to workers goroutines until claims are exhausted:
// each fn(w, lo, hi) call owns items [lo, hi) of an n-item sequence, claimed
// chunk-at-a-time from a shared atomic cursor (guided self-scheduling, the
// shared-memory analogue of the paper's per-thread block partition).
func runPool(workers, n, chunk int, fn func(w, lo, hi int)) {
	runPoolCtx(context.Background(), workers, n, chunk, fn)
}

// runPoolCtx is runPool with cooperative cancellation: workers re-check ctx
// before every chunk claim and stop claiming once it is done (a background
// context's nil done channel never fires, so uncancellable pools pay only
// the polling select). In-flight chunks finish — chunks are small, and
// Query's also stop inside — so the pool drains promptly. The pool is never
// wider than the input has chunks, and a pool of one runs on the calling
// goroutine: a worker with nothing to claim, or a goroutine started only to
// be waited for, is pure overhead.
func runPoolCtx(ctx context.Context, workers, n, chunk int, fn func(w, lo, hi int)) {
	done := ctx.Done()
	if workers = poolWorkers(workers, n, chunk); workers == 1 {
		for lo := 0; lo < n; lo += chunk {
			select {
			case <-done:
				return
			default:
			}
			fn(0, lo, min(lo+chunk, n))
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// poolWorkers is the width runPoolCtx gives a pool of workers over n items
// claimed chunk at a time: at most one worker per chunk, at least one.
func poolWorkers(workers, n, chunk int) int {
	return max(1, min(workers, (n+chunk-1)/chunk))
}

// timePhase runs fn and appends its measured wall-clock phase to phases.
func timePhase(phases []Phase, name string, fn func()) []Phase {
	start := time.Now()
	fn()
	return append(phases, Phase{Name: name, RealWall: time.Since(start).Seconds()})
}

// RunThreaded executes merAligner in shared-memory mode: a goroutine worker
// pool builds a sharded seed index with the two-stage aggregating-stores
// scheme and aligns query batches with the exact-match fast path and
// Smith-Waterman extension. workers is the pool size (the paper's single-node
// core count, Fig 11); workers <= 0 is an error. Results.Phases carry the
// measured wall-clock time of every build phase and of the align phase.
//
// RunThreaded is BuildIndex + ThreadedIndex.Query composed: services that
// reuse one index across many query batches call the two halves directly.
func RunThreaded(workers int, opt Options, targets, queries []seqio.Seq) (*Results, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	ix, err := BuildIndex(workers, opt.IndexOptions, targets)
	if err != nil {
		return nil, err
	}
	res, err := ix.Query(context.Background(), workers, opt.QueryOptions, queries)
	if err != nil {
		return nil, err
	}
	res.Phases = append(ix.BuildPhases(), res.Phases...)
	return res, nil
}
