package meraligner_test

// One benchmark per table and figure of the paper's evaluation (§VI), each
// regenerating the corresponding experiment on a smoke-test workload via
// the same harness `cmd/merbench` uses at full size, plus micro-benchmarks
// of the pipeline's hot components. Run:
//
//	go test -bench=. -benchmem
//
// The shapes (who wins, by what factor) match the paper; the experiments
// themselves live in internal/expt, and `go run ./cmd/merbench` runs them at
// full size.

import (
	"testing"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/expt"
	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/sim"
	"github.com/lbl-repro/meraligner/internal/upc"
)

func benchCfg() expt.Config {
	cfg := expt.QuickConfig()
	cfg.Workers = 0 // all host cores
	return cfg
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rep, err := expt.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
}

// BenchmarkFig1StrongScaling regenerates Fig 1: end-to-end strong scaling
// of merAligner (human-like and wheat-like) with pMap baseline points.
func BenchmarkFig1StrongScaling(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig7SeedReuse regenerates Fig 7: the analytic + Monte-Carlo
// probability of on-node seed reuse as a function of core count.
func BenchmarkFig7SeedReuse(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8AggregatingStores regenerates Fig 8: distributed seed-index
// construction with and without the aggregating-stores optimization.
func BenchmarkFig8AggregatingStores(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9SoftwareCaching regenerates Fig 9: aligning-phase
// communication with and without the per-node software caches.
func BenchmarkFig9SoftwareCaching(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10ExactMatch regenerates Fig 10: the aligning phase with and
// without the exact-match optimization.
func BenchmarkFig10ExactMatch(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkTable1LoadBalancing regenerates Table I: computation and total
// time distributions with and without the input permutation.
func BenchmarkTable1LoadBalancing(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2Comparison regenerates Table II: end-to-end merAligner vs
// pMap-driven BWA-mem-like and Bowtie2-like at the 7,680-core point.
func BenchmarkTable2Comparison(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig11SingleNode regenerates Fig 11: real-parallelism single-node
// comparison on the E. coli workload.
func BenchmarkFig11SingleNode(b *testing.B) { runExperiment(b, "fig11") }

// --- component micro-benchmarks ---

// BenchmarkPipelineSimulated measures one full simulated pipeline run.
func BenchmarkPipelineSimulated(b *testing.B) {
	p := genome.HumanLike(200_000)
	p.Depth = 4
	p.InsertMean = 0
	ds, err := genome.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	mach := upc.Edison(48)
	opt := sim.DefaultOptions(31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(mach, opt, ds.Contigs, ds.Reads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineThreaded measures the real-parallel pipeline.
func BenchmarkPipelineThreaded(b *testing.B) {
	p := genome.HumanLike(200_000)
	p.Depth = 4
	p.InsertMean = 0
	ds, err := genome.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	opt := meraligner.DefaultOptions(31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := meraligner.AlignThreaded(8, opt, ds.Contigs, ds.Reads); err != nil {
			b.Fatal(err)
		}
	}
}

// engineWorkload is the PR-1 engine data set the snapshot parity test and
// BenchmarkSnapshotOpen share.
func engineWorkload(tb testing.TB) *genome.DataSet {
	p := genome.HumanLike(200_000)
	p.Depth = 6
	p.InsertMean = 0
	ds, err := genome.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}
