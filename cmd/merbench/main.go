// Command merbench regenerates every table and figure of the paper's
// evaluation (§VI). Each experiment prints the measured rows next to the
// paper's headline numbers; success is matching the SHAPE (who wins, by
// roughly what factor, where curves flatten), not absolute seconds — the
// substrate is a simulated Cray XC30, not the real one.
//
// Usage:
//
//	merbench                  # run everything at merbench scale
//	merbench -experiment fig8 # one experiment
//	merbench -quick           # smoke-test sizes (same as the Go benchmarks)
//	merbench -list            # list experiments
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"github.com/lbl-repro/meraligner/internal/buildinfo"
	"github.com/lbl-repro/meraligner/internal/expt"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("merbench: ")

	var (
		experiment = flag.String("experiment", "all", "experiment id (fig1, fig7-fig11, table1, table2) or 'all'")
		quick      = flag.Bool("quick", false, "smoke-test workload sizes")
		coreScale  = flag.Int("core-scale", 0, "divide the paper's core counts by this (0 = default 16)")
		workers    = flag.Int("workers", 0, "host worker goroutines (0 = NumCPU)")
		seed       = flag.Int64("seed", 1, "workload random seed")
		list       = flag.Bool("list", false, "list experiments and exit")
		outPath    = flag.String("o", "", "also write the reports to this file")
	)
	bi := buildinfo.Register(flag.CommandLine)
	logOpts := telemetry.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	if logger, err := logOpts.Logger("merbench: "); err != nil {
		log.Fatal(err)
	} else {
		telemetry.CaptureStdLog(logger)
	}
	stopProfile, err := bi.Apply("merbench")
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfile()

	if *list {
		for _, e := range expt.Experiments {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}

	cfg := expt.DefaultConfig()
	if *quick {
		cfg = expt.QuickConfig()
	}
	if *coreScale > 0 {
		cfg.CoreScale = *coreScale
	}
	cfg.Workers = *workers
	cfg.Seed = *seed

	var sb strings.Builder
	emit := func(rep *expt.Report, took time.Duration) {
		block := rep.String() + fmt.Sprintf("(regenerated in %.1fs)\n\n", took.Seconds())
		fmt.Print(block)
		sb.WriteString(block)
	}

	if *experiment == "all" {
		for _, e := range expt.Experiments {
			start := time.Now()
			rep, err := e.Run(cfg)
			if err != nil {
				log.Fatalf("%s: %v", e.ID, err)
			}
			emit(rep, time.Since(start))
		}
	} else {
		start := time.Now()
		rep, err := expt.Run(*experiment, cfg)
		if err != nil {
			log.Fatal(err)
		}
		emit(rep, time.Since(start))
	}

	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(sb.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("reports written to %s\n", *outPath)
	}
}
