package main

import (
	"encoding/json"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/genome"
)

// TestManifestAndBenchmarkAgree runs every workload at smoke size, traced
// (a traced run measures the end-to-end metrics too), and holds the program
// to BENCHMARK.json: every workload emits every end-to-end metric, every
// per-layer metric is measured by at least one workload, nothing undeclared
// is measured, and every name is well formed and has a unit. A name recorded
// twice panics in env.set, so "exactly once" needs no assertion here.
func TestManifestAndBenchmarkAgree(t *testing.T) {
	m, err := loadManifest(".")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, m.EndToEnd...), m.PerLayer...) {
		if !nameRE.MatchString(d.Name) || d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("BENCHMARK.json: bad declaration %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("BENCHMARK.json: %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}

	start := time.Now()
	measured := map[string]bool{}
	for _, name := range m.workloadNames() {
		cfg := config{workload: name, seed: 7, seconds: 0.2, trace: true, scale: 0.05, dir: "."}
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d of %d", name, res.Correct, res.Failed, res.Attempted)
		}
		for n := range res.values {
			measured[n] = true
		}
		for trace, decls := range map[bool][]metricDecl{false: m.EndToEnd, true: m.PerLayer} {
			var line struct {
				Metrics map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := res.publish(m, trace); err != nil { // every end-to-end metric, nothing undeclared
				t.Fatalf("%s: %v", name, err)
			}
			if err := json.Unmarshal([]byte(res.driverLine(m, trace)), &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(decls) {
				t.Errorf("%s trace=%v: %d metrics on the result line, %d declared", name, trace, len(line.Metrics), len(decls))
			}
			for _, d := range decls {
				if got, ok := line.Metrics[d.Name]; !ok || got.Value == nil || got.Unit != d.Unit {
					t.Errorf("%s trace=%v: %s missing from the result line or without its unit", name, trace, d.Name)
				}
			}
		}
		for _, d := range m.EndToEnd {
			if res.values[d.Name] == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", name, d.Name)
			}
		}
	}
	for _, d := range m.PerLayer {
		// Scaling is omitted, not estimated, on a one-CPU host.
		if !measured[d.Name] && !(d.Name == "core.worker_scaling_x" && numWorkers() < 2) {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.Name)
		}
	}
	// About 8 s on the 2-CPU reference host; not asserted, because a wall
	// clock bound in a test fails for the host's reasons (and under -race).
	t.Logf("smoke suite took %v", time.Since(start))
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "lat", Better: "lower"}
	higher := metricDecl{Name: "rps", Better: "higher"}
	steady := []float64{100, 101, 99, 100}
	noisy := []float64{60, 100, 140, 100}
	for _, c := range []struct {
		d        metricDecl
		old, new metricValue
		want     string
	}{
		{lower, metricValue{Value: 100, Reps: steady}, metricValue{Value: 105, Reps: steady}, "same"},
		{lower, metricValue{Value: 100, Reps: steady}, metricValue{Value: 115, Reps: steady}, "worse"},
		{lower, metricValue{Value: 100, Reps: steady}, metricValue{Value: 80, Reps: steady}, "better"},
		{higher, metricValue{Value: 100, Reps: steady}, metricValue{Value: 80, Reps: steady}, "worse"},
		{higher, metricValue{Value: 100, Reps: steady}, metricValue{Value: 125, Reps: steady}, "better"},
		{higher, metricValue{Value: 100, Reps: noisy}, metricValue{Value: 80, Reps: steady}, "unresolved"},
		{lower, metricValue{Value: 0}, metricValue{Value: 0}, "same"},
	} {
		if _, got := verdict(c.d, 0.10, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.d.Better, c.old.Value, c.new.Value, got, c.want)
		}
	}
	// fail_frac: any increase is worse.
	if _, got := verdict(lower, 0, metricValue{Value: 0}, metricValue{Value: 0.001}); got != "worse" {
		t.Errorf("fail_frac 0 -> 0.001: verdict %s, want worse", got)
	}
}

// The quartile spread must be the one Python's statistics.quantiles(n=4)
// gives, because that is what the driver computes across runs.
func TestSpreadIsPythonsQuantiles(t *testing.T) {
	got := spread([]float64{1, 2, 3, 4, 10}) // quantiles -> [1.5, 3, 7]
	if want := (7 - 1.5) / 3; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// The gate must reject what it exists to catch.
func TestCheckSAMRejectsBrokenRecords(t *testing.T) {
	p := genome.EColiLike()
	p.GenomeLen, p.Depth, p.Seed = 60_000, 0.3, 3
	ds, err := genome.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	al, err := meraligner.Build(1, meraligner.DefaultIndexOptions(19), ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	defer al.Close()
	sam, _, err := localSAM(al, ds.Reads, meraligner.DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSAM(sam, al.Targets(), ds.Reads); err != nil {
		t.Fatalf("good SAM rejected: %v", err)
	}
	for what, broken := range map[string]string{
		"NM tag":     regexp.MustCompile(`NM:i:(\d+)`).ReplaceAllString(string(sam), "NM:i:77"),
		"cigar span": strings.Replace(string(sam), "\t100M\t", "\t99M\t", 1),
		"position":   regexp.MustCompile(`(\tcontig_\d+\t)\d+\t`).ReplaceAllString(string(sam), "${1}999999999\t"),
		"read order": strings.Replace(string(sam), ds.Reads[0].Name+"\t", "someone_else\t", 1),
	} {
		if broken == string(sam) {
			t.Fatalf("%s: the test did not change the document", what)
		}
		if err := checkSAM([]byte(broken), al.Targets(), ds.Reads); err == nil {
			t.Errorf("SAM with a wrong %s passed the gate", what)
		}
	}
}

// A scaling row taken with more workers than usable CPUs measures
// contention; it must be refused, not recorded.
func TestWorkerScalingRefusesOversubscription(t *testing.T) {
	b := &batch{divergent: true}
	e := &env{workers: runtime.NumCPU() + 1, values: map[string]float64{}}
	if err := b.workerScaling(e); err == nil {
		t.Error("scaling row with workers > host_cpus was not refused")
	}
	if _, ok := e.values["core.worker_scaling_x"]; ok {
		t.Error("a refused scaling row was still recorded")
	}
}
