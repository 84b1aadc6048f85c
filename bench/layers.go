package main

import (
	"path/filepath"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/kmer"
)

// engineAcc sums what the traced passes of an engine workload saw at the
// engine's boundary: the Results counters of each call, the wall time of the
// align and render calls around it, and the Smith-Waterman meter.
type engineAcc struct {
	passes       int
	reads, exact int
	lookups      int64 // Results.SeedLookups
	swCalls      int64 // Results.SWCalls
	alignments   int64 // Results.TotalAlignments
	alignWall    time.Duration
	renderWall   time.Duration
	bytesOut     int64
	sw           swSample      // the meter's share of the traced passes
	resolveBusy  time.Duration // dht_remote: summed ResolveSeeds durations
	resolveCalls int64
}

// addCall accounts one engine call and its render, and records their spans
// under root (0: make one): the engine call with Smith-Waterman as its child,
// and the render. It returns the engine call's span for further children.
func (a *engineAcc) addCall(tr *tracer, root, request, workers int, res *meraligner.Results, t0, t1, t2 time.Time, sw0, sw1 swSample) (engineSpan int) {
	a.reads += res.TotalReads
	a.exact += res.ExactPathReads
	a.lookups += res.SeedLookups
	a.swCalls += res.SWCalls
	a.alignments += res.TotalAlignments
	a.alignWall += t1.Sub(t0)
	a.renderWall += t2.Sub(t1)
	d := swSample{sw1.calls - sw0.calls, sw1.cells - sw0.cells, sw1.ns - sw0.ns}
	a.sw.calls, a.sw.cells, a.sw.ns = a.sw.calls+d.calls, a.sw.cells+d.cells, a.sw.ns+d.ns

	w := time.Duration(workers)
	if root == 0 { // the call and its render are the whole unit of work
		root = tr.add(0, request, "bench.unit", t0, t2, t2.Sub(t0)*w, int64(res.TotalReads))
	}
	eng := tr.add(root, request, "core.align", t0, t1, t1.Sub(t0)*w, int64(res.TotalReads))
	tr.add(eng, request, "align.sw", t0, t1, time.Duration(d.ns), d.calls)
	// Rendering is one goroutine, but the next engine call waits for it:
	// while it runs it blocks every worker, and that is what it is charged.
	tr.add(root, request, "samstream.render", t1, t2, t2.Sub(t1)*w, int64(res.TotalReads))
	return eng
}

func (a *engineAcc) swShare(workers int) float64 {
	return ratio(float64(a.sw.ns), float64(a.alignWall)*float64(workers))
}

// publish records the per-layer metrics that come straight from the traced
// passes. Counts and times are per pass, so runs of different length agree.
func (a *engineAcc) publish(e *env, workers int) {
	p, reads := float64(a.passes), float64(a.reads)
	swMetrics(e, a.sw, a.passes, a.alignWall, workers)
	// Every exact-path read reports one alignment without Smith-Waterman.
	e.set("align.useful_frac", ratio(float64(a.alignments-int64(a.exact)), float64(a.sw.calls)))
	e.set("core.exact_frac", float64(a.exact)/reads)
	e.set("core.lookups_per_read", float64(a.lookups)/reads)
	e.set("core.sw_calls_per_read", float64(a.swCalls)/reads)
	e.set("core.align_wall_s", a.alignWall.Seconds()/p)
	e.set("dht.lookups", float64(a.lookups)/p)
	e.set("samstream.render_s", a.renderWall.Seconds()/p)
	e.set("samstream.render_ns_per_read", float64(a.renderWall)/reads)
	e.set("samstream.bytes_out", float64(a.bytesOut)/p)
}

// publishSelf closes the engine's budget: what is left of its busy time
// (align wall x workers) once Smith-Waterman (measured), seed lookup and
// seed scan (replayed, so estimated) are taken out.
func (a *engineAcc) publishSelf(e *env, workers int, scanNs, lookupNsPerSeed float64) {
	p := float64(a.passes)
	busy := float64(a.alignWall) * float64(workers)
	lookup := lookupNsPerSeed * float64(a.lookups)
	if a.resolveCalls > 0 {
		lookup = float64(a.resolveBusy) // every lookup was an RPC, timed at the seam
	}
	other := busy - float64(a.sw.ns) - lookup - scanNs*p
	e.set("core.other_self_s", other/1e9/p)
}

// swMetrics records the Smith-Waterman meter's reading over passes traced
// passes whose engine calls (or, for a server, whose whole passes) took wall.
func swMetrics(e *env, sw swSample, passes int, wall time.Duration, workers int) {
	p := float64(max(passes, 1))
	e.set("align.sw_calls", float64(sw.calls)/p)
	e.set("align.sw_cells", float64(sw.cells)/p)
	e.set("align.sw_busy_s", time.Duration(sw.ns).Seconds()/p)
	e.set("align.sw_ns_per_cell", ratio(float64(sw.ns), float64(sw.cells)))
	e.set("align.sw_share", ratio(float64(sw.ns), float64(wall)*float64(workers)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// exactReads marks the reads the engine resolved on the exact path.
func exactReads(res *meraligner.Results, n int) []bool {
	exact := make([]bool, n)
	for _, a := range res.Alignments {
		if a.Exact {
			exact[a.Query] = true
		}
	}
	return exact
}

// indexMetrics records the shape of the resident seed table.
func indexMetrics(e *env, al *meraligner.Aligner) {
	st := al.IndexStats()
	e.set("dht.distinct_seeds", float64(st.DistinctSeeds))
	e.set("dht.total_locs", float64(st.TotalLocs))
	e.set("dht.resident_bytes", float64(al.ResidentBytes()))
}

// buildMetrics splits one Build into the engine's own phases; seal is the
// rest of the call (fragmenting the targets, allocating and sealing the
// table).
func buildMetrics(e *env, al *meraligner.Aligner, wall time.Duration) {
	indexMetrics(e, al)
	names := map[string]string{
		core.PhaseExtract: "core.build.extract_s",
		core.PhaseDrain:   "core.build.drain_s",
		core.PhaseMark:    "core.build.mark_s",
	}
	for _, ph := range al.BuildPhases() {
		if n, ok := names[ph.Name]; ok {
			e.set(n, ph.RealWall)
		}
	}
	e.set("core.build.seal_s", wall.Seconds()-al.BuildWall())
}

// seedStream is the engine's lookup stream over reads, in order: the first
// seed of every read, and every later seed of the reads that left the exact
// path (stride 1, as the default query options have it).
func seedStream(reads []meraligner.Seq, exact []bool, k int) []kmer.Kmer {
	var seeds []kmer.Kmer
	var sc kmer.Scanner
	for i, r := range reads {
		sc.Reset(r.Seq, k)
		for sc.Next() {
			c, _ := sc.Canonical()
			seeds = append(seeds, c)
			if exact[i] {
				break
			}
		}
	}
	return seeds
}

// scanReplay times kmer.Scanner over every position of every read and
// returns the cost per position with the number of positions the engine
// itself visits in one pass (one on the exact path, all of them otherwise).
func scanReplay(e *env, reads []meraligner.Seq, exact []bool, k int) (totalNs float64) {
	var sc kmer.Scanner
	var sink uint64
	positions, visited := 0, 0
	t0 := time.Now()
	for _, r := range reads {
		sc.Reset(r.Seq, k)
		for sc.Next() {
			c, _ := sc.Canonical()
			sink += c.Lo
			positions++
		}
	}
	ns := float64(time.Since(t0)) / float64(max(positions, 1))
	for i, r := range reads {
		if n := kmer.Count(r.Seq.Len(), k); exact[i] {
			visited += min(n, 1)
		} else {
			visited += n
		}
	}
	keep(sink)
	e.set("kmer.scan_ns_per_seed", ns)
	e.set("kmer.seeds_scanned", float64(visited))
	return ns * float64(visited)
}

// lookupReplay replays the workload's seed stream against
// core.SeedShard.Lookup on a one-way SaveSeedShards table — the same sealed
// table the engine probes, reached through its public lookup.
func lookupReplay(e *env, al *meraligner.Aligner, reads []meraligner.Seq, exact []bool, k int) (nsPerSeed float64, err error) {
	paths, err := al.SaveSeedShards(filepath.Join(e.tmp, "replay"), 1)
	if err != nil {
		return 0, err
	}
	sh, err := core.LoadSeedShard(paths[0])
	if err != nil {
		return 0, err
	}
	defer sh.Close()
	seeds := seedStream(reads, exact, k)
	hits, locs := 0, 0
	t0 := time.Now()
	for _, s := range seeds {
		if r, ok := sh.Lookup(s); ok {
			hits++
			locs += len(r.Locs)
		}
	}
	nsPerSeed = float64(time.Since(t0)) / float64(max(len(seeds), 1))
	e.set("dht.lookup_ns_per_seed", nsPerSeed)
	e.set("dht.hit_frac", ratio(float64(hits), float64(len(seeds))))
	e.set("dht.locs_per_hit", ratio(float64(locs), float64(hits)))
	return nsPerSeed, nil
}

var sinkhole uint64

// keep stops the compiler from removing a replay loop whose result is unused.
func keep(v uint64) { sinkhole += v }
