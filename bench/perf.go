package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// writePerf renders PERF.md from the last traced suite run: for every
// workload the self time of each traced layer (from out/trace-<w>.json) and
// the per-layer metrics (from out/results-trace.json). Nothing in the file
// is typed by hand, so it can be regenerated at any commit:
//
//	go run -C bench . -all -trace 1 -seed 1 && go run -C bench . -perf > bench/PERF.md
func writePerf(m *manifest, dir string, w io.Writer) error {
	rf, err := readResultFile(filepath.Join(dir, "out", "results-trace.json"))
	if err != nil {
		return fmt.Errorf("%w (run `bench -all -trace 1` first)", err)
	}
	p := rf.Provenance
	fmt.Fprintf(w, "# Where a read's time goes\n\n")
	fmt.Fprintf(w, "Generated by `bench -perf` from a traced run of the suite; do not edit.\n\n")
	fmt.Fprintf(w, "commit `%s`, %s %s/%s, host_cpus %d, GOMAXPROCS %d, workers %d, seed %d, %g s per workload.\n\n",
		p.Commit, p.GoVersion, p.GOOS, p.GOARCH, p.HostCPUs, p.GOMAXPROCS, p.Workers, p.Seed, p.Seconds)
	fmt.Fprint(w, `Self time is a layer's busy time minus that of the layers it called, summed over
the traced passes; its share is of the wall x workers of those passes. A step the
result waits for is charged wall x workers — so the serial SAM render, during
which the other worker idles, is charged for both — and what runs inside a step
(Smith-Waterman, seed resolution) its summed call time. `+"`bench.unit`"+` is what no
layer below the unit of work accounts for; `+"`client.request`"+` is what no server stage
covers: HTTP, the loopback and JSON on both sides. Seed lookup and seed scan are
inside `+"`core.align`"+`'s self time: the engine gives no seam around them, so they are
replayed outside it and reported as metrics (`+"`dht.lookup_ns_per_seed`"+` x `+"`dht.lookups`"+`,
`+"`kmer.scan_ns_per_seed`"+` x `+"`kmer.seeds_scanned`"+`; `+"`core.other_self_s`"+` is the rest).

`)
	for _, wl := range m.Workloads {
		res := rf.Workloads[wl.Name]
		if res == nil {
			continue
		}
		fmt.Fprintf(w, "## %s\n\n%s\n\n", wl.Name, wl.Why)
		if err := perfSpans(w, filepath.Join(dir, "out", "trace-"+wl.Name+".json")); err != nil {
			return err
		}
		fmt.Fprintf(w, "| per-layer metric | value | unit |\n|---|---:|---|\n")
		for _, d := range m.PerLayer {
			if v, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "| `%s` | %.5g | %s |\n", d.Name, v.Value, v.Unit)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// perfSpans prints the self-time table of one trace file.
func perfSpans(w io.Writer, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf struct {
		Workers int    `json:"workers"`
		Spans   []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	t := &tracer{spans: tf.Spans}
	self := t.selfTimes()
	var total float64
	for _, s := range tf.Spans {
		if s.Parent == 0 {
			total += float64(s.BusyNs)
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	if len(names) > 1 {
		fmt.Fprintf(w, "Most of a read's time here goes to `%s` (%.0f %%), then `%s` (%.0f %%).\n\n",
			names[0], 100*ratio(float64(self[names[0]]), total), names[1], 100*ratio(float64(self[names[1]]), total))
	}
	fmt.Fprintf(w, "| traced layer | self time s | share |\n|---|---:|---:|\n")
	for _, n := range names {
		fmt.Fprintf(w, "| `%s` | %.3f | %.1f %% |\n", n, self[n].Seconds(), 100*ratio(float64(self[n]), total))
	}
	fmt.Fprintln(w)
	return nil
}
