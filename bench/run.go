package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks the frozen input sizes; it is 1 everywhere except the
	// smoke test, which only checks that every metric is emitted.
	scale float64
	dir   string // the benchmark's own directory
}

// workload is one named set of inputs and the calls that consume them. The
// runner drives the steps in this order; every step sees the same env.
type workload interface {
	// prepare makes the inputs from the seed and writes any snapshot files.
	// Untimed: data generation and Save* are not set-up (Save* is merx.save_s).
	prepare(e *env) error
	// setup goes from "inputs exist" to "the first read could be aligned".
	// The runner times it, tears it down and repeats it; the last one stays.
	setup(e *env) error
	teardown()
	// gate checks the outputs before anything is timed.
	gate(e *env) error
	// measure is the timed section, about d long.
	measure(e *env, d time.Duration) error
	// layers runs in the traced run only, after the timed section: replays
	// of one layer's public functions over the workload's own data.
	layers(e *env) error
}

var workloads = map[string]func() workload{
	"batch_exact":     func() workload { return &batch{divergent: false} },
	"batch_divergent": func() workload { return &batch{divergent: true} },
	"oneshot_build":   func() workload { return &oneshot{} },
	"dht_remote":      func() workload { return &dhtRemote{} },
	"serve_open":      func() workload { return &serveOpen{} },
	"routed_closed":   func() workload { return &routed{} },
}

// Set-up runs setupRepeats times per invocation and setup_s is the median. A
// set-up of tens of milliseconds (opening a snapshot, starting servers) is
// repeated further, until setupLoopMin has gone into setting up and tearing
// down or setupMaxRepeats are done: the median of five 25 ms timings moves by
// a fifth between runs.
const (
	setupRepeats    = 5
	setupMaxRepeats = 25
	setupLoopMin    = 1500 * time.Millisecond
)

// env carries one run's state between the steps of a workload.
type env struct {
	cfg     config
	workers int    // engine workers = sender goroutines = connections
	tmp     string // scratch directory inside bench/out, removed at exit
	tr      *tracer

	values map[string]float64   // every metric measured in this run
	reps   map[string][]float64 // the repetitions behind a median
	counts map[string]int       // reads, requests, repetitions, samples

	attempted, failed int
}

// set records a metric. Recording a name twice is a bug in the workload.
func (e *env) set(name string, v float64) {
	if _, dup := e.values[name]; dup {
		panic("bench: metric recorded twice: " + name)
	}
	e.values[name] = v
}

// setMedian records the median of xs and keeps xs as the spread behind it.
func (e *env) setMedian(name string, xs []float64) {
	e.set(name, median(xs))
	e.reps[name] = xs
}

// numWorkers is min(nproc, 4): the load never asks for more CPUs than the
// host has, so throughput is not a contention artefact.
func numWorkers() int { return min(runtime.NumCPU(), 4) }

// runWorkload is one invocation: prepare, set up (timed, repeated), gate,
// measure, and in the traced run the per-layer replays.
func runWorkload(cfg config) (*workloadResult, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", cfg.workload)
	}
	out := filepath.Join(cfg.dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(out, "tmp-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	e := &env{
		cfg: cfg, workers: numWorkers(), tmp: tmp,
		values: map[string]float64{}, reps: map[string][]float64{}, counts: map[string]int{},
	}
	if cfg.trace {
		e.tr = newTracer()
	}
	w := mk()
	if err := w.prepare(e); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	var setups []float64
	loopStart := time.Now()
	for i := 0; i < setupRepeats || (i < setupMaxRepeats && time.Since(loopStart) < setupLoopMin); i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	e.counts["setups"] = len(setups)
	defer w.teardown()

	res := &workloadResult{Counts: e.counts}
	if err := w.gate(e); err != nil {
		// A wrong answer is never timed: every attempted read counts as failed.
		fmt.Fprintf(os.Stderr, "bench: %s: correctness gate failed: %v\n", cfg.workload, err)
		n := max(e.counts["reads"], 1)
		res.Attempted, res.Failed = n, n
		return res, nil
	}

	var before procSample
	if cfg.trace {
		before = sampleProc()
	}
	t0 := time.Now()
	if err := w.measure(e, time.Duration(cfg.seconds*float64(time.Second))); err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	if _, own := e.values["setup_s"]; !own { // oneshot_build times its own
		e.setMedian("setup_s", setups)
	}
	e.set("fail_frac", float64(e.failed)/float64(max(e.attempted, 1)))
	if cfg.trace {
		procMetrics(e, before, sampleProc(), time.Since(t0))
		if err := w.layers(e); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		if frac, ok := e.tr.accounted(); ok {
			e.set("bench.accounted_frac", frac)
		}
		if err := e.tr.write(filepath.Join(out, "trace-"+cfg.workload+".json"), cfg.workload, e.workers); err != nil {
			return nil, err
		}
	}
	res.Correct = e.failed == 0
	res.Attempted, res.Failed = max(e.attempted, 1), e.failed
	res.values, res.reps = e.values, e.reps
	return res, nil
}

// ---- results ----

type metricValue struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Reps  []float64 `json:"reps,omitempty"`
}

// workloadResult is one workload's entry in a result file.
type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Counts    map[string]int         `json:"counts"`
	Metrics   map[string]metricValue `json:"metrics"`

	values map[string]float64
	reps   map[string][]float64
}

// publish keeps the metrics the manifest declares for this kind of run: the
// end-to-end ones untraced — with the workload's own end-to-end metrics, the
// ones -compare bounds, when it measured them — and the per-layer ones
// traced. Every workload must measure every end-to-end metric; a per-layer
// metric belongs to the workloads that exercise its layer (see README).
func (r *workloadResult) publish(m *manifest, trace bool) error {
	decls := m.PerLayer
	if !trace {
		decls = append([]metricDecl(nil), m.EndToEnd...)
		for _, d := range m.PerLayer {
			if _, ok := workloadBounds[d.Name]; ok {
				decls = append(decls, d)
			}
		}
	}
	r.Metrics = make(map[string]metricValue, len(decls))
	if r.values == nil { // the gate failed: no timings
		return nil
	}
	for _, d := range decls {
		v, ok := r.values[d.Name]
		if ok {
			r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit, Reps: r.reps[d.Name]}
		} else if _, own := workloadBounds[d.Name]; !trace && !own {
			return fmt.Errorf("bench: end-to-end metric %s was not measured", d.Name)
		}
	}
	for name := range r.values {
		if _, ok := m.decl(name); !ok {
			return fmt.Errorf("bench: metric %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// driverLine is the last line of standard output, in the driver's format,
// which wants every declared metric of the section on every workload: a
// per-layer metric this workload does not exercise reads 0 there (and only
// there — result files hold measured values only).
func (r *workloadResult) driverLine(m *manifest, trace bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	decls := m.EndToEnd
	if trace {
		decls = m.PerLayer
	}
	if r.values != nil {
		for _, d := range decls {
			line.Metrics[d.Name] = mv{r.Metrics[d.Name].Value, d.Unit}
		}
	}
	b, _ := json.Marshal(line) // plain values: cannot fail
	return string(b)
}

// table prints the metrics by name with their units, for people.
func (r *workloadResult) table(workload string) string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%s  correct=%v attempted=%d failed=%d", workload, r.Correct, r.Attempted, r.Failed)
	for _, k := range sortedKeys(r.Counts) {
		fmt.Fprintf(&b, " %s=%d", k, r.Counts[k])
	}
	b.WriteByte('\n')
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(&b, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	return b.String()
}

func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// provenance says what produced a result file.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	HostCPUs   int     `json:"host_cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Scale      float64 `json:"scale"`
}

func newProvenance(cfg config) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: numWorkers(),
		Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Scale: cfg.scale,
	}
	// `go run` does not stamp the build with its VCS state, so ask git; a
	// checkout that is not a repository stays "unknown".
	git := func(args ...string) (string, error) {
		out, err := exec.Command("git", append([]string{"-C", cfg.dir}, args...)...).Output()
		return strings.TrimSpace(string(out)), err
	}
	if rev, err := git("rev-parse", "--short=12", "HEAD"); err == nil && rev != "" {
		p.Commit = rev
		if st, err := git("status", "--porcelain", "--untracked-files=no"); err == nil && st != "" {
			p.Commit += "-dirty"
		}
	}
	return p
}

// resultFile is what -all, -aa and single runs write and -compare reads.
type resultFile struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// ---- the process itself ----

type procSample struct {
	cpu time.Duration
	mem runtime.MemStats
}

func sampleProc() procSample {
	var s procSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// procMetrics records what the timed section cost the process: a low
// proc.cpu_util_frac on a CPU-bound workload flags a noisy neighbour.
func procMetrics(e *env, a, b procSample, wall time.Duration) {
	reads := float64(max(e.attempted, 1))
	e.set("proc.cpu_util_frac", float64(b.cpu-a.cpu)/(float64(wall)*float64(runtime.NumCPU())))
	e.set("proc.allocs_per_read", float64(b.mem.Mallocs-a.mem.Mallocs)/reads)
	e.set("proc.gc_pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)
	e.set("proc.peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads VmHWM from /proc/self/status; 0 where there is none.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
