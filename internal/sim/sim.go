// Package sim runs merAligner on the simulated PGAS machine of package upc:
// the paper's full pipeline (Algorithm 1) — parallel target I/O, seed
// extraction, distributed seed-index construction with aggregating stores
// (§III-A), single-copy marking, parallel query I/O, the load-balancing
// permutation (§IV-B), per-node software caches (§III-B) and the aligning
// phase — with real data structures and simulated time. It regenerates the
// paper's strong-scaling and ablation figures (internal/expt) and backs
// `meraligner -engine sim`.
//
// sim owns the cost model: everything that knows what an operation costs on
// the simulated machine is here or in upc. The per-read algorithm is not
// forked — the align phase drives core.QueryProcessor, the same procedure
// the servers run, through an IndexAccess that charges communication and
// cache traffic to the simulated thread it captured, and converts the
// processor's work counts to computation seconds once per thread when the
// phase ends. The dependency runs sim → core, never back.
package sim

import (
	"math/rand"

	"github.com/lbl-repro/meraligner/internal/cache"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/seqio"
	"github.com/lbl-repro/meraligner/internal/upc"
)

// Options configures a simulated run: the engine's options plus the knobs
// that exist only on the simulated machine. The zero value is not usable;
// start from DefaultOptions.
type Options struct {
	core.Options

	// Mode selects the index construction algorithm: Aggregating (default)
	// or FineGrained (Fig 8 ablation).
	Mode BuildMode

	// AggS is the aggregation buffer size S of index construction (paper:
	// 1000). It shapes the build's communication, never the index.
	AggS int

	// Software caches, per-node byte budgets (Fig 9 ablation: set to 0).
	SeedCacheBytes   int64
	TargetCacheBytes int64

	// Load balancing (Table I): permute the query order before the static
	// per-thread partition.
	Permute     bool
	PermuteSeed int64

	// QueryBytesOnDisk/TargetBytesOnDisk let callers charge the I/O phases
	// with realistic on-disk sizes (e.g. SeqDB files); when zero, the
	// packed in-memory sizes are charged.
	QueryBytesOnDisk  int64
	TargetBytesOnDisk int64
}

// DefaultOptions returns the paper's configuration for a given seed length.
func DefaultOptions(k int) Options {
	return Options{
		Options:          core.DefaultOptions(k),
		Mode:             Aggregating,
		AggS:             1000,
		SeedCacheBytes:   16 << 20, // scaled-down analogue of 16 GB/node
		TargetCacheBytes: 6 << 20,  // scaled-down analogue of 6 GB/node
		Permute:          true,
		PermuteSeed:      12345,
	}
}

// Results is a simulated run's outcome: the engine's Results plus what only
// the simulated machine can report.
type Results struct {
	core.Results

	// Phases are the simulated phases, in pipeline order, with per-thread
	// clock components and event counters; Wall is simulated seconds. It
	// shadows the embedded core.Results.Phases, which Run leaves empty.
	Phases []upc.PhaseStat

	SeedCache   cache.CounterSnapshot
	TargetCache cache.CounterSnapshot

	// Communication split of the align phase (Fig 9): simulated seconds of
	// the slowest thread spent on seed lookups vs target fetches.
	CommSeedLookupMax  float64
	CommFetchTargetMax float64
}

// Phase returns the named simulated phase, or false.
func (r *Results) Phase(name string) (upc.PhaseStat, bool) {
	for _, p := range r.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return upc.PhaseStat{}, false
}

// wall sums the simulated wall time of the named phases.
func (r *Results) wall(names ...string) float64 {
	var s float64
	for _, p := range r.Phases {
		for _, n := range names {
			if p.Name == n {
				s += p.Wall
			}
		}
	}
	return s
}

// TotalWall sums all phase wall times (simulated end-to-end runtime).
func (r *Results) TotalWall() float64 {
	var s float64
	for _, p := range r.Phases {
		s += p.Wall
	}
	return s
}

// IndexWall sums the index-construction phases (extract+stage, drain, mark).
func (r *Results) IndexWall() float64 {
	return r.wall(core.PhaseExtract, core.PhaseDrain, core.PhaseMark)
}

// AlignWall returns the aligning-phase wall time.
func (r *Results) AlignWall() float64 { return r.wall(core.PhaseAlign) }

// IOWall sums the I/O phases.
func (r *Results) IOWall() float64 { return r.wall(core.PhaseReadTargets, core.PhaseReadQueries) }

// access is the simulated machine's core.IndexAccess for one thread: lookups
// go through the thread's node seed cache, target fetches through the target
// cache, and both charge the thread's virtual clock.
type access struct {
	ix *Index
	g  *Group
	th *upc.Thread
}

func (a access) Lookup(s kmer.Kmer) (dht.LookupResult, bool) { return a.g.Lookup(a.th, a.ix, s) }
func (a access) SingleCopy(frag int32) bool                  { return a.ix.SingleCopy(int(frag)) }
func (a access) FetchTarget(target int32, targetBytes, owner int) {
	a.g.FetchTarget(a.th, target, targetBytes, owner)
}

// builtIndex is the product of the index-construction half of the pipeline
// (§III), consumed by the query half (§IV) on the same machine.
type builtIndex struct {
	ft *core.FragmentTable
	ix *Index
	g  *Group
}

// buildIndex runs the build half of the simulated pipeline: parallel target
// I/O, seed extraction, distributed index construction (aggregating
// stores), and single-copy marking.
func buildIndex(m *upc.Machine, mach upc.MachineConfig, opt Options, targets []seqio.Seq) (*builtIndex, error) {
	// The fragment table is built regardless of the exact-match setting so
	// ablation runs share an identical workload decomposition; only the
	// single-copy marking phase and the fast path are gated on ExactMatch.
	ft := core.BuildFragmentTable(targets, opt.K, opt.FragmentLen, mach.Threads)

	// Lists stored just past the §IV-C threshold: counts stay exact, so
	// every seed the threshold admits has its whole list.
	maxLoc := 0
	if opt.MaxSeedHits > 0 {
		maxLoc = opt.MaxSeedHits + 1
	}
	ix, err := NewIndex(mach, IndexConfig{K: opt.K, Mode: opt.Mode, S: opt.AggS, MaxLocList: maxLoc}, ft.NumFragments())
	if err != nil {
		return nil, err
	}
	g := NewGroup(mach, opt.SeedCacheBytes, opt.TargetCacheBytes)

	// Targets are distributed by bases, not by count: each thread reads an
	// equally sized slice of the target file (§II-A).
	targetRanges := core.PartitionTargetsByBases(targets, mach.Threads)
	var totalTargetBases int64
	for _, t := range targets {
		totalTargetBases += int64(t.Seq.Len())
	}

	// ---- Phase 1: read target sequences (parallel I/O) ----
	targetBytes := opt.TargetBytesOnDisk
	if targetBytes == 0 {
		for _, t := range targets {
			targetBytes += int64(t.Seq.PackedSize() + len(t.Name) + 8)
		}
	}
	m.RunPhase(core.PhaseReadTargets, func(th *upc.Thread) {
		lo, hi := targetRanges[th.ID][0], targetRanges[th.ID][1]
		if lo < hi && totalTargetBases > 0 {
			var bases int64
			for t := lo; t < hi; t++ {
				bases += int64(targets[t].Seq.Len())
			}
			th.ReadFile(int(targetBytes * bases / totalTargetBases))
		}
	})

	// ---- Phase 2: extract seeds from targets and stage into the index ----
	// Extraction work is partitioned by fragments (near-uniform base
	// counts) so the phase stays balanced even when contig lengths are
	// heavily skewed relative to the per-thread share.
	m.RunPhase(core.PhaseExtract, func(th *upc.Thread) {
		b := ix.NewBuilder(th)
		lo, hi := mach.PartitionRange(ft.NumFragments(), th.ID)
		var sc kmer.Scanner // rolling forward+RC windows, O(1) per base
		for f := lo; f < hi; f++ {
			seq := ft.FragSeq(int32(f))
			th.Compute(float64(kmer.Count(seq.Len(), opt.K)) * mach.SeedExtractCost)
			sc.Reset(seq, opt.K)
			for sc.Next() {
				canon, rc := sc.Canonical()
				b.Add(dht.SeedEntry{Seed: canon, Loc: dht.Loc{
					Frag: int32(f),
					Off:  int32(sc.Offset()),
					RC:   rc,
				}})
			}
		}
		b.Flush()
	})

	// ---- Phase 3: drain local-shared stacks into local buckets ----
	m.RunPhase(core.PhaseDrain, func(th *upc.Thread) { ix.Drain(th) })

	// ---- Phase 4: mark single-copy-seed fragments (§IV-A) ----
	if opt.ExactMatch {
		m.RunPhase(core.PhaseMark, func(th *upc.Thread) { ix.MarkSingleCopy(th) })
	}

	return &builtIndex{ft: ft, ix: ix, g: g}, nil
}

// query runs the query half of the simulated pipeline against a built
// index: parallel query I/O, the load-balancing permutation, and the
// aligning phase. It returns one processor per simulated thread.
func query(m *upc.Machine, mach upc.MachineConfig, opt Options, bix *builtIndex, queries []seqio.Seq) []*core.QueryProcessor {
	// ---- Phase 5: read query sequences (parallel I/O) ----
	queryBytes := opt.QueryBytesOnDisk
	if queryBytes == 0 {
		for _, q := range queries {
			queryBytes += int64(q.Seq.PackedSize() + len(q.Name) + len(q.Qual) + 8)
		}
	}
	m.RunPhase(core.PhaseReadQueries, func(th *upc.Thread) {
		lo, hi := mach.PartitionRange(len(queries), th.ID)
		if lo < hi && len(queries) > 0 {
			share := queryBytes * int64(hi-lo) / int64(len(queries))
			th.ReadFile(int(share))
		}
	})

	// Load balancing (§IV-B): permute the query order before chunking.
	// The permutation models the offline shuffle of the input file.
	order := make([]int32, len(queries))
	for i := range order {
		order[i] = int32(i)
	}
	if opt.Permute {
		rng := rand.New(rand.NewSource(opt.PermuteSeed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}

	// ---- Phase 6: align ----
	qps := make([]*core.QueryProcessor, mach.Threads)
	m.RunPhase(core.PhaseAlign, func(th *upc.Thread) {
		qp := core.NewQueryProcessor(opt.Options, access{ix: bix.ix, g: bix.g, th: th}, bix.ft)
		qps[th.ID] = qp
		lo, hi := mach.PartitionRange(len(order), th.ID)
		for i := lo; i < hi; i++ {
			qp.Process(order[i], queries[order[i]].Seq)
		}
		// The processor only counted its work. Computation charges are pure
		// sums, so charging them once here leaves the thread's clock where
		// per-event charging would (up to float summation order);
		// communication was charged by access as it happened.
		th.Compute(float64(qp.SeedLookups)*mach.SeedExtractCost +
			float64(qp.MemcmpBytes)*mach.MemcmpCost +
			float64(qp.SWCalls)*mach.SWSetupCost +
			float64(qp.SWCells)*mach.SWCellCost)
		th.Counters.SeedLookups += qp.SeedLookups
		th.Counters.MemcmpBytes += qp.MemcmpBytes
		th.Counters.SWCalls += qp.SWCalls
		th.Counters.SWCells += qp.SWCells
	})
	return qps
}

// Run executes the full merAligner pipeline (Algorithm 1) on the simulated
// PGAS machine: the build half and the query half composed in sequence on
// one machine. All data structures are real; time is simulated (see package
// upc).
func Run(mach upc.MachineConfig, opt Options, targets, queries []seqio.Seq) (*Results, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	m, err := upc.NewMachine(mach)
	if err != nil {
		return nil, err
	}
	bix, err := buildIndex(m, mach, opt, targets)
	if err != nil {
		return nil, err
	}
	qps := query(m, mach, opt, bix, queries)

	res := &Results{
		Results:            core.Results{TotalReads: len(queries), IndexStats: bix.ix.Stats()},
		Phases:             m.Phases(),
		SeedCache:          bix.g.SeedCounters(),
		TargetCache:        bix.g.TargetCounters(),
		CommSeedLookupMax:  bix.g.CommSeedMax(),
		CommFetchTargetMax: bix.g.CommTargetMax(),
	}
	core.MergeProcessors(&res.Results, qps, opt.CollectAlignments)
	return res, nil
}
