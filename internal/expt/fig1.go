package expt

import (
	"fmt"

	"github.com/lbl-repro/meraligner/internal/baseline"
	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/sim"
	"github.com/lbl-repro/meraligner/internal/upc"
)

// fig1Cores are the paper's x-axis points.
var fig1Cores = []int{480, 960, 1920, 3840, 7680, 15360}

// Fig1 reproduces the end-to-end strong scaling of merAligner on the
// human-like and wheat-like workloads, with the pMap-projected BWA-mem and
// Bowtie2 single data points at 7,680 cores.
func Fig1(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "fig1",
		Title: "End-to-end strong scaling (human & wheat) vs ideal; BWA-mem/Bowtie2 points",
		Paper: "human 480->15,360 cores: 22x speedup (0.70 efficiency); wheat 960->15,360: 0.78 efficiency; " +
			"merAligner 20.4x faster than pMap+BWA-mem at 7,680 cores",
		Headers: []string{"dataset", "paper cores", "sim threads", "total(s)", "speedup", "ideal", "efficiency"},
	}
	cores := fig1Cores
	if cfg.Quick {
		cores = fig1Cores[:3]
	}

	for _, prof := range []genome.Profile{cfg.humanProfile(), cfg.wheatProfile()} {
		ds, err := mkData(prof)
		if err != nil {
			return nil, err
		}
		var t0 float64
		var firstCores int
		times := make([]float64, 0, len(cores))
		for i, pc := range cores {
			threads := cfg.scaledCores(pc)
			mach := upc.Edison(threads)
			mach.Workers = cfg.Workers
			mach.Seed = cfg.Seed
			opt := scaledOptions()
			if prof.ReadLen < 102 {
				opt.K = 51
			}
			res, err := sim.Run(mach, opt, ds.Contigs, ds.Reads)
			if err != nil {
				return nil, err
			}
			total := res.TotalWall()
			times = append(times, total)
			if i == 0 {
				t0, firstCores = total, pc
			}
			sp := t0 / total
			ideal := float64(pc) / float64(firstCores)
			rep.AddRow(prof.Name, fmt.Sprint(pc), fmt.Sprint(threads), secs(total),
				fmt.Sprintf("%.1fx", sp), fmt.Sprintf("%.0fx", ideal),
				fmt.Sprintf("%.2f", sp/ideal))
		}
		last := len(times) - 1
		rep.Note("%s: overall efficiency %s -> %s cores = %.2f",
			prof.Name, fmt.Sprint(firstCores), fmt.Sprint(cores[last]),
			efficiency(times[0], cores[0], times[last], cores[last]))
	}

	// Baseline single points at the paper's 7,680-core mark (or the top of
	// the quick sweep) via the pMap projection on measured work.
	baselinePoint := 7680
	if cfg.Quick {
		baselinePoint = cores[len(cores)-1]
	}
	human, err := mkData(cfg.humanProfile())
	if err != nil {
		return nil, err
	}
	if err := addBaselinePoints(cfg, rep, human, baselinePoint); err != nil {
		return nil, err
	}
	return rep, nil
}

// addBaselinePoints measures the baselines' real per-read work on the
// workload (sampled) and projects pMap execution at the given paper core
// count, appending rows to the report.
func addBaselinePoints(cfg Config, rep *Report, ds *genome.DataSet, paperCores int) error {
	sample := ds.Reads
	const maxSample = 20000
	scale := 1.0
	if len(sample) > maxSample {
		scale = float64(len(sample)) / maxSample
		sample = sample[:maxSample]
	}
	var readBytes int64
	for _, r := range ds.Reads {
		readBytes += int64(r.Seq.Len()*2 + 40)
	}
	mach := upc.Edison(cfg.scaledCores(paperCores))
	model := baseline.DefaultPMapModel(mach)
	for _, opt := range []baseline.Options{baseline.BWAMemOptions(), baseline.Bowtie2Options()} {
		res, err := baseline.RunSingleNode(max(1, cfg.Workers), ds.Contigs, sample, opt)
		if err != nil {
			return err
		}
		// Scale sampled mapping work to the full read set.
		st := res.Stats
		st.SWCells = int64(float64(st.SWCells) * scale)
		st.SWCalls = int64(float64(st.SWCalls) * scale)
		ops := res.SearchOps
		ops.FMProbes = int64(float64(ops.FMProbes) * scale)
		ops.LocateSteps = int64(float64(ops.LocateSteps) * scale)
		proj := model.Project(opt.Tool, res.BuildOps, ops, st, res.IndexBytes, len(ds.Reads), readBytes)
		rep.AddRow(opt.Tool.String()+" (pMap)", fmt.Sprint(paperCores), fmt.Sprint(mach.Threads),
			secs(proj.Total()), "-", "-", "-")
	}
	return nil
}
