package expt

import (
	"fmt"

	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/sim"
	"github.com/lbl-repro/meraligner/internal/upc"
)

// Fig10 reproduces the exact-match optimization ablation: the aligning
// phase with and without the single-copy-seed fast path of §IV-A, split
// into computation and communication.
func Fig10(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "fig10",
		Title: "Aligning phase, w/o vs w/ exact-match optimization",
		Paper: "2.8x / 3.4x / 3.1x faster at 480 / 1,920 / 7,680 cores; ~59% of aligned reads took " +
			"the fast path; at 480 cores computation improved 2.48x and communication 2.82x",
		Headers: []string{"paper cores", "config", "comm(s)", "comp(s)", "align total(s)", "improvement"},
	}
	ds, err := mkData(cfg.humanProfile())
	if err != nil {
		return nil, err
	}

	cores := []int{480, 1920, 7680}
	if cfg.Quick {
		cores = []int{480, 1920}
	}
	for _, pc := range cores {
		threads := cfg.scaledCores(pc)
		mach := upc.Edison(threads)
		mach.Workers = cfg.Workers
		mach.Seed = cfg.Seed

		run := func(exact bool) (*sim.Results, upc.PhaseStat, error) {
			opt := scaledOptions()
			opt.ExactMatch = exact
			res, err := sim.Run(mach, opt, ds.Contigs, ds.Reads)
			if err != nil {
				return nil, upc.PhaseStat{}, err
			}
			ph, _ := res.Phase(core.PhaseAlign)
			return res, ph, nil
		}
		without, phW, err := run(false)
		if err != nil {
			return nil, err
		}
		with, phO, err := run(true)
		if err != nil {
			return nil, err
		}
		rep.AddRow(fmt.Sprint(pc), "w/o opt", secs(phW.MaxComm), secs(phW.MaxComp), secs(phW.Wall), "")
		rep.AddRow(fmt.Sprint(pc), "w/ opt", secs(phO.MaxComm), secs(phO.MaxComp), secs(phO.Wall),
			ratio(phW.Wall, phO.Wall))
		rep.Note("%d cores: %.0f%% of reads used the fast path; comp %.2fx, comm %.2fx; SW calls %d -> %d",
			pc, 100*float64(with.ExactPathReads)/float64(max(1, with.TotalReads)),
			phW.MaxComp/phO.MaxComp, phW.MaxComm/phO.MaxComm, without.SWCalls, with.SWCalls)
	}
	return rep, nil
}
