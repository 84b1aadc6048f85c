package expt

import (
	"fmt"

	"github.com/lbl-repro/meraligner/internal/sim"
	"github.com/lbl-repro/meraligner/internal/upc"
)

// Fig8 reproduces the distributed seed-index construction ablation: the
// "aggregating stores" optimization (S=1000) against the straightforward
// fine-grained algorithm, at the paper's 480 / 1,920 / 7,680 core points.
// Only the index-construction phases run (no queries).
func Fig8(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "fig8",
		Title:   "Seed index construction, w/o vs w/ aggregating stores (S=1000)",
		Paper:   "4.7x / 3.9x / 4.8x faster at 480 / 1,920 / 7,680 cores; optimized build scales 12.7x from 480 to 7,680",
		Headers: []string{"paper cores", "sim threads", "w/o opt (s)", "w/ opt (s)", "improvement"},
	}
	prof := cfg.humanProfile()
	ds, err := mkData(prof)
	if err != nil {
		return nil, err
	}

	cores := []int{480, 1920, 7680}
	if cfg.Quick {
		cores = []int{480, 1920}
	}
	var optTimes []float64
	for _, pc := range cores {
		threads := cfg.scaledCores(pc)
		mach := upc.Edison(threads)
		mach.Workers = cfg.Workers
		mach.Seed = cfg.Seed

		build := func(mode sim.BuildMode) (float64, error) {
			opt := scaledOptions()
			opt.Mode = mode
			res, err := sim.Run(mach, opt, ds.Contigs, nil) // index phases only
			if err != nil {
				return 0, err
			}
			return res.IndexWall(), nil
		}
		fine, err := build(sim.FineGrained)
		if err != nil {
			return nil, err
		}
		agg, err := build(sim.Aggregating)
		if err != nil {
			return nil, err
		}
		optTimes = append(optTimes, agg)
		rep.AddRow(fmt.Sprint(pc), fmt.Sprint(threads), secs(fine), secs(agg), ratio(fine, agg))
	}
	if len(optTimes) >= 2 {
		last := len(optTimes) - 1
		rep.Note("optimized construction speedup %d -> %d cores: %.1fx (paper: 12.7x over 16x more cores)",
			cores[0], cores[last], optTimes[0]/optTimes[last])
	}
	return rep, nil
}
