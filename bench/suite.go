package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runAll runs the named workloads in order, each in a process of its own so
// that heap, RSS and GC state do not leak from one into the next, and merges
// their result files into one.
func runAll(cfg config, names []string, out string) (*resultFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rf := &resultFile{Provenance: newProvenance(cfg), Workloads: map[string]*workloadResult{}}
	var failed []string
	for _, name := range names {
		part := filepath.Join(cfg.dir, "out", "result-"+name+".json")
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		cmd := exec.Command(self,
			"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-trace", trace, "-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64), "-out", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, name)
		}
		one, err := readResultFile(part)
		if err != nil {
			continue // the child died before it could report; it is in failed
		}
		rf.Workloads[name] = one.Workloads[name]
	}
	if err := writeJSON(out, rf); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %s\n", out)
	if len(failed) > 0 {
		return rf, fmt.Errorf("workloads failed: %v", failed)
	}
	return rf, nil
}

// runAA runs the suite twice on the same code — forwards, then backwards, so
// no workload always runs on a warmer or cooler machine — and compares the
// two. The code is the same, so a better or worse row is the benchmark's own
// noise exceeding its bounds, and fails the run; an unresolved row says that
// one run's repetitions already spread wider than the bound.
func runAA(m *manifest, cfg config, out string) error {
	names := m.workloadNames()
	back := make([]string, len(names))
	for i, n := range names {
		back[len(names)-1-i] = n
	}
	base := out[:len(out)-len(filepath.Ext(out))]
	a, err := runAll(cfg, names, base+"-a.json")
	if err != nil {
		return err
	}
	b, err := runAll(cfg, back, base+"-b.json")
	if err != nil {
		return err
	}
	differ, unresolved := printComparison(m, a, b)
	fmt.Printf("A/A: %d rows differ, %d unresolved\n", differ, unresolved)
	if differ > 0 {
		return fmt.Errorf("A/A: the same code differs from itself on %d metric x workload pairs", differ)
	}
	return nil
}
