package expt

import (
	"fmt"
	"runtime"

	"github.com/lbl-repro/meraligner/internal/baseline"
	"github.com/lbl-repro/meraligner/internal/core"
)

// Fig11 reproduces the single-node shared-memory comparison on the E. coli
// workload with REAL parallelism: merAligner in threaded mode against the
// BWA-mem-like and Bowtie2-like mappers, sweeping 1..24 cores. All times
// are genuine wall-clock measurements on the host. The baselines' serial
// index construction is included in their totals, which is what makes
// their curves flatten while merAligner keeps scaling — the paper's shape.
func Fig11(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "fig11",
		Title: "Single-node scaling on E. coli (real wall-clock, seed length 19)",
		Paper: "merAligner keeps scaling to 24 cores; BWA-mem and Bowtie2 stop improving at 18; " +
			"at 24 cores merAligner is 6.33x and 7.2x faster",
		Headers: []string{"cores", "merAligner (s)", "bwamem-like (s)", "bowtie2-like (s)", "mer vs bwa", "mer vs bt2"},
	}
	ds, err := mkData(cfg.ecoliProfile())
	if err != nil {
		return nil, err
	}

	sweep := []int{1, 2, 6, 12, 18, 24}
	if cfg.Quick {
		sweep = []int{1, 4}
	}
	maxCores := runtime.NumCPU()
	oversubscribed := false

	for _, p := range sweep {
		if p > maxCores {
			// Run oversubscribed rather than dropping the point: the
			// mer-vs-baseline comparison stays valid (both sides share the
			// host), only the scaling slope flattens.
			oversubscribed = true
		}
		opt := core.DefaultOptions(19)
		opt.MaxSeedHits = 200
		mer, err := core.RunThreaded(p, opt, ds.Contigs, ds.Reads)
		if err != nil {
			return nil, err
		}
		merT := mer.TotalRealWall()

		bwa, err := baseline.RunSingleNode(p, ds.Contigs, ds.Reads, baseline.BWAMemOptions())
		if err != nil {
			return nil, err
		}
		bt2, err := baseline.RunSingleNode(p, ds.Contigs, ds.Reads, baseline.Bowtie2Options())
		if err != nil {
			return nil, err
		}
		bwaT := bwa.TotalWall().Seconds()
		bt2T := bt2.TotalWall().Seconds()
		rep.AddRow(fmt.Sprint(p), secs(merT), secs(bwaT), secs(bt2T),
			ratio(bwaT, merT), ratio(bt2T, merT))
	}
	if oversubscribed {
		rep.Note("host has %d cores: larger worker counts ran oversubscribed (valid for the "+
			"mer-vs-baseline comparison, flat for scaling)", maxCores)
	}
	rep.Note("all rows are real host measurements; baseline totals include their serial index build " +
		"(merAligner's is parallel), which is why the baseline curves flatten")
	rep.Note("paper aligned: merAligner 97.4%%, BWA-mem 96.3%%, Bowtie2 95.8%% of E. coli reads")
	return rep, nil
}
