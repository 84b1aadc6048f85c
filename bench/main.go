// Command bench is the repository's one benchmark: six named workloads, the
// end-to-end metrics and per-layer budget that BENCHMARK.json declares, a
// correctness gate in front of every timing, and the comparison that turns
// two result files into better/same/worse/unresolved. README.md in this
// directory is the manual.
//
//	go run -C bench . -workload batch_exact -seed 1            one workload
//	go run -C bench . -workload dht_remote -seed 1 -trace 1    its traced run
//	go run -C bench . -all -seed 1 [-trace 1]                  the suite
//	go run -C bench . -aa -seed 1                              the suite against itself
//	go run -C bench . -compare old.json new.json
//	go run -C bench . -perf > bench/PERF.md                    after -all -trace 1
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (see BENCHMARK.json for the names)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the timed section (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1: the traced run, which reports the per-layer metrics and writes out/trace-<workload>.json")
	flag.Float64Var(&cfg.scale, "scale", 1, "shrink the frozen input sizes (smoke tests only; results are not comparable)")
	all := flag.Bool("all", false, "run every workload, each in its own process, and write one result file")
	aa := flag.Bool("aa", false, "run the suite twice, in alternating order, and compare it with itself")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	perf := flag.Bool("perf", false, "print PERF.md from the last `-all -trace 1` run")
	out := flag.String("out", "", "result file to write (default out/results[-trace].json)")
	flag.Parse()
	cfg.trace = trace != 0

	if err := run(cfg, *all, *aa, *compare, *perf, *out, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(cfg config, all, aa, compare, perf bool, out string, args []string) error {
	dir, err := benchDir()
	if err != nil {
		return err
	}
	cfg.dir = dir
	m, err := loadManifest(dir)
	if err != nil {
		return err
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(m.RunSeconds)
	}
	if out == "" {
		out = filepath.Join(dir, "out", "results.json")
		if cfg.trace {
			out = filepath.Join(dir, "out", "results-trace.json")
		}
	}
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(m, args[0], args[1])
	case perf:
		return writePerf(m, dir, os.Stdout)
	case aa:
		return runAA(m, cfg, out)
	case all:
		_, err := runAll(cfg, m.workloadNames(), out)
		return err
	case cfg.workload != "":
		return runOne(m, cfg, out)
	}
	return fmt.Errorf("nothing to do: give -workload, -all, -aa or -compare")
}

// runOne runs a single workload in this process. The last line of standard
// output is the result in the driver's format; a failed correctness gate
// prints it with correct=false and exits non-zero.
func runOne(m *manifest, cfg config, out string) error {
	res, err := runWorkload(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if err := res.publish(m, cfg.trace); err != nil {
		return err
	}
	rf := resultFile{Provenance: newProvenance(cfg), Workloads: map[string]*workloadResult{cfg.workload: res}}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := writeJSON(out, rf); err != nil {
		return err
	}
	fmt.Print(res.table(cfg.workload))
	fmt.Println(res.driverLine(m, cfg.trace))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d failed", cfg.workload, res.Failed, res.Attempted)
	}
	return nil
}
