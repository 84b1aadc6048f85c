package main

import (
	"fmt"
	"os"
	"text/tabwriter"
)

// workloadBounds are the regression bounds of the end-to-end metrics that
// exist on one workload only. The driver's contract wants every end-to-end
// metric of BENCHMARK.json on every workload, so these sit in its per_layer
// section, which has no bounds; -compare still holds them to the bounds the
// benchmark was designed with. All are shares of the old value.
var workloadBounds = map[string]float64{
	"time_to_sam_s":   0.10,
	"lat_p50_ms.r1":   0.10,
	"lat_p99_ms.r1":   0.10,
	"lat_p50_ms.r2":   0.10,
	"lat_p99_ms.r2":   0.10,
	"goodput_frac.r3": 0.05,
	"fail_frac":       0, // any increase
}

// verdict compares one metric of one workload. worse is how much the new
// value is worse than the old as a share of the old (negative: better).
func verdict(d metricDecl, bound float64, old, cur metricValue) (worse float64, v string) {
	switch {
	case old.Value == 0 && cur.Value == 0:
		return 0, "same"
	case old.Value == 0:
		worse = 1
		if d.Better == "higher" {
			worse = -1
		}
	case d.Better == "higher":
		worse = (old.Value - cur.Value) / old.Value
	default:
		worse = (cur.Value - old.Value) / old.Value
	}
	// A difference smaller than the run's own repetition spread proves nothing.
	if sp := max(spread(old.Reps), spread(cur.Reps)); sp > bound && bound > 0 {
		return worse, "unresolved"
	}
	switch {
	case worse > bound:
		return worse, "worse"
	case worse < -bound:
		return worse, "better"
	}
	return worse, "same"
}

// printComparison prints one row per workload x bounded metric present in
// both files and returns how many rows say better or worse, and how many
// are unresolved.
func printComparison(m *manifest, old, cur *resultFile) (differ, unresolved int) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tnew/old (base: old)\tbound\tspread old/new\tverdict")
	for _, w := range m.workloadNames() {
		ow, nw := old.Workloads[w], cur.Workloads[w]
		if ow == nil || nw == nil {
			continue
		}
		row := func(d metricDecl, bound float64) {
			o, ok1 := ow.Metrics[d.Name]
			n, ok2 := nw.Metrics[d.Name]
			if !ok1 || !ok2 {
				return
			}
			_, v := verdict(d, bound, o, n)
			switch v {
			case "better", "worse":
				differ++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f\t%.3g\t%.3f/%.3f\t%s\n",
				w, d.Name, o.Value, d.Unit, n.Value, d.Unit, ratio(n.Value, o.Value), bound, spread(o.Reps), spread(n.Reps), v)
		}
		for _, d := range m.EndToEnd {
			row(d, d.Bound)
		}
		for _, d := range m.PerLayer {
			if b, ok := workloadBounds[d.Name]; ok {
				row(d, b)
			}
		}
	}
	tw.Flush()
	return differ, unresolved
}

func compareFiles(m *manifest, oldPath, newPath string) error {
	old, err := readResultFile(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResultFile(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("old: %s  commit %s seed %d\nnew: %s  commit %s seed %d\n",
		oldPath, old.Provenance.Commit, old.Provenance.Seed, newPath, cur.Provenance.Commit, cur.Provenance.Seed)
	printComparison(m, old, cur)
	return nil
}
