package expt

import (
	"fmt"

	"github.com/lbl-repro/meraligner/internal/sim"
	"github.com/lbl-repro/meraligner/internal/upc"
)

// Fig9 reproduces the software-caching ablation: communication time during
// the aligning phase with and without the per-node seed-index and target
// caches, split into seed-lookup and target-fetch components.
func Fig9(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "fig9",
		Title: "Aligning-phase communication, no-cache vs cache (seed lookup + target fetch)",
		Paper: "2.3x / 1.7x / 1.8x less communication at 480 / 1,920 / 7,680 cores; target cache " +
			"essentially eliminates target-fetch traffic; seed cache helps most at small scale",
		Headers: []string{"paper cores", "config", "seed lookup(s)", "fetch targets(s)", "comm total(s)", "improvement"},
	}
	prof := cfg.humanProfile()
	if cfg.Quick {
		// Caching operates on seed reuse: the same seed looked up again on
		// the same node (Fig 7, f = d(1-(k-1)/L)). The paper's human data
		// set is ~90x coverage; the quick profile's 8x leaves f too small
		// for the caches to see repeats, so the ablation degenerates. Run
		// this experiment's quick mode at paper-regime coverage on a
		// proportionally smaller genome to keep the runtime flat.
		prof.GenomeLen = 150_000
		prof.Depth = 40
	}
	ds, err := mkData(prof)
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

		run := func(withCache bool) (*sim.Results, error) {
			opt := scaledOptions()
			// Caching is the variable under test; keep the exact-match
			// optimization on, as the paper's Fig 9 runs do.
			if !withCache {
				opt.SeedCacheBytes = 0
				opt.TargetCacheBytes = 0
			}
			return sim.Run(mach, opt, ds.Contigs, ds.Reads)
		}
		noCache, err := run(false)
		if err != nil {
			return nil, err
		}
		withCache, err := run(true)
		if err != nil {
			return nil, err
		}
		ncTotal := noCache.CommSeedLookupMax + noCache.CommFetchTargetMax
		wcTotal := withCache.CommSeedLookupMax + withCache.CommFetchTargetMax
		rep.AddRow(fmt.Sprint(pc), "no cache", secs(noCache.CommSeedLookupMax),
			secs(noCache.CommFetchTargetMax), secs(ncTotal), "")
		rep.AddRow(fmt.Sprint(pc), "w/ cache", secs(withCache.CommSeedLookupMax),
			secs(withCache.CommFetchTargetMax), secs(wcTotal), ratio(ncTotal, wcTotal))
		rep.Note("%d cores: seed-cache hit rate %.2f, target-cache hit rate %.2f",
			pc, withCache.SeedCache.HitRate(), withCache.TargetCache.HitRate())
	}
	return rep, nil
}
