package sim

import (
	"fmt"
	"math"
	"testing"

	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/upc"
)

func testMach(threads int) upc.MachineConfig {
	cfg := upc.Edison(threads)
	cfg.Workers = 4
	return cfg
}

func testOptions(k int) Options {
	opt := DefaultOptions(k)
	opt.CollectAlignments = true
	opt.SeedCacheBytes = 1 << 20
	opt.TargetCacheBytes = 1 << 20
	return opt
}

// testWorkload builds a small deterministic data set.
func testWorkload(t testing.TB, genomeLen int, depth, errRate float64) *genome.DataSet {
	p := genome.HumanLike(genomeLen)
	p.Depth = depth
	p.ErrorRate = errRate
	p.InsertMean = 0 // unpaired for simplicity
	ds, err := genome.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPermutationDoesNotChangeResults(t *testing.T) {
	ds := testWorkload(t, 60_000, 3, 0.004)
	base := testOptions(21)
	base.Permute = false
	perm := testOptions(21)
	perm.Permute = true

	r1, err := Run(testMach(16), base, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(testMach(16), perm, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if r1.AlignedReads != r2.AlignedReads || r1.TotalAlignments != r2.TotalAlignments {
		t.Errorf("permutation changed results: %d/%d vs %d/%d",
			r1.AlignedReads, r1.TotalAlignments, r2.AlignedReads, r2.TotalAlignments)
	}
}

func TestDeterminismWithSingleWorker(t *testing.T) {
	ds := testWorkload(t, 40_000, 2, 0.004)
	mach := testMach(8)
	mach.Workers = 1
	opt := testOptions(21)
	r1, err := Run(mach, opt, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(mach, opt, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalWall() != r2.TotalWall() {
		t.Errorf("simulated time not deterministic: %v vs %v", r1.TotalWall(), r2.TotalWall())
	}
	if len(r1.Alignments) != len(r2.Alignments) {
		t.Fatalf("alignment counts differ: %d vs %d", len(r1.Alignments), len(r2.Alignments))
	}
	for i := range r1.Alignments {
		if r1.Alignments[i] != r2.Alignments[i] {
			t.Fatalf("alignment %d differs", i)
		}
	}
}

func TestAggregatingBeatsFineGrainedEndToEnd(t *testing.T) {
	ds := testWorkload(t, 60_000, 2, 0.004)
	agg := testOptions(21)
	fine := testOptions(21)
	fine.Mode = FineGrained

	ra, err := Run(testMach(48), agg, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Run(testMach(48), fine, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if ra.IndexWall() >= rf.IndexWall() {
		t.Errorf("aggregating index build (%v) not faster than fine-grained (%v)",
			ra.IndexWall(), rf.IndexWall())
	}
	// Same table, same alignments.
	if ra.TotalAlignments != rf.TotalAlignments {
		t.Errorf("modes disagree on alignments: %d vs %d", ra.TotalAlignments, rf.TotalAlignments)
	}
}

func TestRunThreadedMatchesSimResults(t *testing.T) {
	ds := testWorkload(t, 50_000, 2, 0.004)
	opt := testOptions(21)
	sim, err := Run(testMach(16), opt, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	thr, err := core.RunThreaded(8, opt.Options, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if sim.AlignedReads != thr.AlignedReads || sim.TotalAlignments != thr.TotalAlignments {
		t.Errorf("threaded mode results differ: %d/%d vs %d/%d",
			sim.AlignedReads, sim.TotalAlignments, thr.AlignedReads, thr.TotalAlignments)
	}
	if thr.TotalRealWall() <= 0 {
		t.Error("threaded mode did not measure real time")
	}
	if _, err := core.RunThreaded(0, opt.Options, ds.Contigs, ds.Reads); err == nil {
		t.Error("threads=0 accepted")
	}
}

func TestResultsAccessors(t *testing.T) {
	ds := testWorkload(t, 30_000, 1, 0)
	res, err := Run(testMach(8), testOptions(21), ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWall() <= 0 {
		t.Error("TotalWall <= 0")
	}
	if res.IndexWall() <= 0 || res.AlignWall() <= 0 || res.IOWall() <= 0 {
		t.Error("phase accessors returned zero")
	}
	if _, ok := res.Phase(core.PhaseAlign); !ok {
		t.Error("align phase missing")
	}
}

func BenchmarkAlignPhaseSimulated(b *testing.B) {
	p := genome.HumanLike(200_000)
	p.Depth = 4
	p.InsertMean = 0
	ds, err := genome.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	mach := testMach(48)
	mach.Workers = 8
	opt := DefaultOptions(31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(mach, opt, ds.Contigs, ds.Reads); err != nil {
			b.Fatal(err)
		}
	}
}

// Index-only runs (no queries) must work — Fig 8 uses them.
func TestRunWithoutQueries(t *testing.T) {
	ds := testWorkload(t, 40_000, 1, 0)
	res, err := Run(testMach(8), testOptions(21), ds.Contigs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalReads != 0 || res.AlignedReads != 0 {
		t.Error("phantom reads")
	}
	if res.IndexStats.DistinctSeeds == 0 {
		t.Error("index not built")
	}
	if res.IndexWall() <= 0 {
		t.Error("no index time")
	}
}

// The engine's headline guarantee: alignments byte-identical to the
// simulated pipeline on the same inputs — every field of every record,
// across option variations that steer different code paths.
func TestThreadedAlignmentsIdenticalToSim(t *testing.T) {
	ds := testWorkload(t, 80_000, 3, 0.005)
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"default", func(o *Options) {}},
		{"no-exact", func(o *Options) { o.ExactMatch = false }},
		{"no-fragmentation", func(o *Options) { o.FragmentLen = 0 }},
		{"capped-seeds", func(o *Options) { o.MaxSeedHits = 5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := testOptions(21)
			tc.mut(&opt)
			sim, err := Run(testMach(16), opt, ds.Contigs, ds.Reads)
			if err != nil {
				t.Fatal(err)
			}
			thr, err := core.RunThreaded(3, opt.Options, ds.Contigs, ds.Reads)
			if err != nil {
				t.Fatal(err)
			}
			if sim.AlignedReads != thr.AlignedReads ||
				sim.ExactPathReads != thr.ExactPathReads ||
				sim.TotalAlignments != thr.TotalAlignments ||
				sim.SWCalls != thr.SWCalls ||
				sim.SeedLookups != thr.SeedLookups {
				t.Errorf("summary stats differ:\nsim: %d/%d/%d/%d/%d\nthr: %d/%d/%d/%d/%d",
					sim.AlignedReads, sim.ExactPathReads, sim.TotalAlignments, sim.SWCalls, sim.SeedLookups,
					thr.AlignedReads, thr.ExactPathReads, thr.TotalAlignments, thr.SWCalls, thr.SeedLookups)
			}
			if len(sim.Alignments) != len(thr.Alignments) {
				t.Fatalf("alignment counts differ: %d vs %d", len(sim.Alignments), len(thr.Alignments))
			}
			for i := range sim.Alignments {
				if sim.Alignments[i] != thr.Alignments[i] {
					t.Fatalf("alignment %d differs:\nsim: %+v\nthr: %+v",
						i, sim.Alignments[i], thr.Alignments[i])
				}
			}
		})
	}
}

// TestStatsOnlyParityAcrossEngines extends the engine parity suite to the
// statistics-only mode — where candidates are scored by align.Scorer
// instead of extended with traceback — across both seed-length regimes of
// the rolling scanner (single word and two-word), on a human-like and a
// repeat-rich wheat-like reference. The stats-only simulator, the stats-only
// threaded engine and a threaded run that collects alignments must report
// the same counters: dropping the traceback changes no outcome.
func TestStatsOnlyParityAcrossEngines(t *testing.T) {
	wheat := genome.WheatLike(60_000)
	wheat.Depth, wheat.ErrorRate, wheat.InsertMean = 3, 0.01, 0
	wheatDS, err := genome.Generate(wheat)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []struct {
		name string
		ds   *genome.DataSet
	}{
		{"", testWorkload(t, 60_000, 3, 0.005)},
		{"wheat_", wheatDS},
	}
	for _, fx := range fixtures {
		for _, k := range []int{21, 51} {
			t.Run(fmt.Sprintf("%sk%d", fx.name, k), func(t *testing.T) {
				ds := fx.ds
				opt := testOptions(k)
				opt.CollectAlignments = false
				sim, err := Run(testMach(8), opt, ds.Contigs, ds.Reads)
				if err != nil {
					t.Fatal(err)
				}
				thr, err := core.RunThreaded(3, opt.Options, ds.Contigs, ds.Reads)
				if err != nil {
					t.Fatal(err)
				}
				opt.CollectAlignments = true
				col, err := core.RunThreaded(3, opt.Options, ds.Contigs, ds.Reads)
				if err != nil {
					t.Fatal(err)
				}
				counters := func(r *core.Results) [5]int64 {
					return [5]int64{int64(r.AlignedReads), int64(r.ExactPathReads), r.TotalAlignments, r.SWCalls, r.SeedLookups}
				}
				want := counters(col)
				for _, run := range []struct {
					name string
					res  *core.Results
				}{{"stats-only sim", &sim.Results}, {"stats-only threaded", thr}} {
					if got := counters(run.res); got != want {
						t.Errorf("%s summary differs from the collecting run (aligned/exact/alignments/SW calls/lookups):\n got  %v\n want %v", run.name, got, want)
					}
				}
				if col.AlignedReads == 0 || col.SWCalls == 0 {
					t.Fatal("workload aligned nothing or ran no Smith-Waterman; parity test is vacuous")
				}
			})
		}
	}
}

// TestSimulatorFidelity pins the simulated clocks and event counts of one
// fixed workload to the values the engine produced when every computation
// charge was made per event inside the per-read loop (captured at commit
// ef45f7b, before the cost model moved out of internal/core). The align
// phase now charges computation once per thread from the processor's work
// counts; this test fails if that charge — or anything else in the cost
// model — drifts by more than float summation order.
func TestSimulatorFidelity(t *testing.T) {
	ds := testWorkload(t, 60_000, 3, 0.005)
	mach := upc.Edison(48)
	mach.Workers = 1
	res, err := Run(mach, DefaultOptions(21), ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name                   string
		wall, maxComp, maxComm float64
	}{
		{core.PhaseReadTargets, 0.0002141, 0, 0},
		{core.PhaseExtract, 0.0004217140714285836, 0.00035640000000001219, 6.5314071428571423e-05},
		{core.PhaseDrain, 0.00018825000000000249, 0.00018825000000000249, 0},
		{core.PhaseMark, 0.00018432742857142965, 0.00014772000000000076, 4.6078309523809505e-05},
		{core.PhaseReadQueries, 0.00020661, 0, 0},
		{core.PhaseAlign, 0.0018878344857143103, 0.00078605300000001712, 0.001133807785714293},
	}
	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Abs(want)
	}
	if len(res.Phases) != len(want) {
		t.Fatalf("%d phases, want %d", len(res.Phases), len(want))
	}
	var sum upc.Counters
	for i, w := range want {
		p := res.Phases[i]
		if p.Name != w.name || !near(p.Wall, w.wall) || !near(p.MaxComp, w.maxComp) || !near(p.MaxComm, w.maxComm) {
			t.Errorf("phase %d: got {%q wall %.17g comp %.17g comm %.17g}, want {%q %.17g %.17g %.17g}",
				i, p.Name, p.Wall, p.MaxComp, p.MaxComm, w.name, w.wall, w.maxComp, w.maxComm)
		}
		sum.Add(p.Counters)
	}
	wantSum := upc.Counters{MsgsRemote: 30737, MsgsNode: 37537, MsgsLocal: 10309, BytesRemote: 1062230,
		BytesNode: 3382691, Atomics: 1920, SWCells: 14225951, SWCalls: 990, MemcmpBytes: 35360,
		SeedLookups: 72182, IOBytes: 107611, IOOps: 63}
	if sum != wantSum {
		t.Errorf("summed counters:\n got %+v\nwant %+v", sum, wantSum)
	}
	if res.SWCalls != wantSum.SWCalls || res.SeedLookups != wantSum.SeedLookups ||
		res.TotalReads != 1782 || res.AlignedReads != 1734 || res.ExactPathReads != 902 || res.TotalAlignments != 1892 {
		t.Errorf("results %d/%d/%d/%d reads, %d SW calls, %d lookups; want 1782/1734/902/1892, %d, %d",
			res.TotalReads, res.AlignedReads, res.ExactPathReads, res.TotalAlignments,
			res.SWCalls, res.SeedLookups, wantSum.SWCalls, wantSum.SeedLookups)
	}
	if !near(res.CommSeedLookupMax, 0.0011236231428571508) || !near(res.CommFetchTargetMax, 2.1836476190475553e-05) {
		t.Errorf("align-phase comm split %.17g / %.17g drifted", res.CommSeedLookupMax, res.CommFetchTargetMax)
	}
}
