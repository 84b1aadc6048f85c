package meraligner

// Ablation benchmarks for the design choices the paper tunes, run on the
// simulated machine (internal/sim): the aggregation buffer size S (a tuning
// parameter, §III-A), the target fragmentation length F (§IV-A), the
// per-node cache budgets (§III-B), and the max-alignments-per-seed threshold
// (§IV-C). Each reports the simulated
// end-to-end time in milliseconds as "sim_ms" so parameter effects are
// visible in one `go test -bench=Ablation` run.

import (
	"fmt"
	"testing"

	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/sim"
	"github.com/lbl-repro/meraligner/internal/upc"
)

func ablationWorkload(b *testing.B) *genome.DataSet {
	b.Helper()
	p := genome.HumanLike(1_000_000)
	p.Depth = 8
	p.InsertMean = 0
	ds, err := genome.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func runAblation(b *testing.B, ds *genome.DataSet, mutate func(*sim.Options)) {
	b.Helper()
	mach := upc.Edison(120)
	opt := sim.DefaultOptions(51)
	mutate(&opt)
	var total float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(mach, opt, ds.Contigs, ds.Reads)
		if err != nil {
			b.Fatal(err)
		}
		total = res.TotalWall()
	}
	b.ReportMetric(total*1000, "sim_ms")
}

// BenchmarkAblationAggS sweeps the aggregation buffer size S.
func BenchmarkAblationAggS(b *testing.B) {
	ds := ablationWorkload(b)
	for _, s := range []int{1, 10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			runAblation(b, ds, func(o *sim.Options) { o.AggS = s })
		})
	}
}

// BenchmarkAblationFragmentLen sweeps the target fragmentation length F.
func BenchmarkAblationFragmentLen(b *testing.B) {
	ds := ablationWorkload(b)
	for _, f := range []int{0, 500, 1000, 2000, 8000} {
		b.Run(fmt.Sprintf("F=%d", f), func(b *testing.B) {
			runAblation(b, ds, func(o *sim.Options) { o.FragmentLen = f })
		})
	}
}

// BenchmarkAblationCacheBudget sweeps the per-node cache budgets together.
func BenchmarkAblationCacheBudget(b *testing.B) {
	ds := ablationWorkload(b)
	for _, kb := range []int64{0, 64, 512, 4096, 32768} {
		b.Run(fmt.Sprintf("cacheKB=%d", kb), func(b *testing.B) {
			runAblation(b, ds, func(o *sim.Options) {
				o.SeedCacheBytes = kb << 10
				o.TargetCacheBytes = kb << 10
			})
		})
	}
}

// BenchmarkAblationMaxSeedHits sweeps the sensitivity threshold of §IV-C.
func BenchmarkAblationMaxSeedHits(b *testing.B) {
	p := genome.WheatLike(1_000_000) // repeats make the threshold matter
	p.Depth = 6
	p.InsertMean = 0
	ds, err := genome.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, mh := range []int{0, 10, 100, 1000} {
		b.Run(fmt.Sprintf("maxHits=%d", mh), func(b *testing.B) {
			runAblation(b, ds, func(o *sim.Options) { o.MaxSeedHits = mh })
		})
	}
}
