package expt

import (
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/sim"
	"github.com/lbl-repro/meraligner/internal/upc"
)

// Table1 reproduces the load-balancing study: the human-like workload with
// reads grouped by genome position (the original input layout, including
// groups that map to no target), aligned with and without the §IV-B random
// permutation, at the paper's 480 cores. Reported are the min/max/avg
// computation times and min/max/avg total (computation + communication)
// times across threads during the aligning phase.
func Table1(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "table1",
		Title: "Effect of load balancing (random permutation) at 480 cores",
		Paper: "permutation cuts max computation ~2.4x (1945->800) but makes the seed cache less " +
			"effective (avg total rises 2073->3277); max total still improves ~5% (4092->3885)",
		Headers: []string{"balancing", "comp min", "comp max", "comp avg", "total min", "total max", "total avg"},
	}
	prof := cfg.humanProfile()
	prof.SortByPosition = true // grouped reads, as in the paper's input
	ds, err := mkData(prof)
	if err != nil {
		return nil, err
	}

	threads := 480
	if cfg.Quick {
		threads = 96
	}
	mach := upc.Edison(threads)
	mach.Workers = cfg.Workers
	mach.Seed = cfg.Seed

	run := func(permute bool) (upc.PhaseStat, error) {
		opt := scaledOptions()
		opt.Permute = permute
		res, err := sim.Run(mach, opt, ds.Contigs, ds.Reads)
		if err != nil {
			return upc.PhaseStat{}, err
		}
		ph, _ := res.Phase(core.PhaseAlign)
		return ph, nil
	}
	with, err := run(true)
	if err != nil {
		return nil, err
	}
	without, err := run(false)
	if err != nil {
		return nil, err
	}
	rep.AddRow("yes", secs(with.MinComp), secs(with.MaxComp), secs(with.AvgComp),
		secs(with.MinClock), secs(with.MaxClock), secs(with.AvgClock))
	rep.AddRow("no", secs(without.MinComp), secs(without.MaxComp), secs(without.AvgComp),
		secs(without.MinClock), secs(without.MaxClock), secs(without.AvgClock))
	rep.Note("max computation improvement from permutation: %.2fx (paper: ~2.4x)",
		without.MaxComp/with.MaxComp)
	rep.Note("max total change: %.2fx (paper: ~1.05x in favor of permutation)",
		without.MaxClock/with.MaxClock)
	return rep, nil
}
