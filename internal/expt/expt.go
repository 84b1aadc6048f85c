// Package expt regenerates every table and figure of the paper's evaluation
// (§VI) on the simulated machine and, for Fig 11, on the real host.
//
// Scaled-axis convention: the paper's workloads are hundreds of gigabases;
// ours are megabases. To keep the per-core work and the message economics
// in the same regime as the paper, strong-scaling experiments divide the
// paper's core counts by Config.CoreScale (default 16): a simulated run on
// 30 threads is reported against the paper's 480-core point, 960 against
// 15,360. The simulated machine still has 24-core nodes, the same latency /
// bandwidth ratios, and spans the same 32x strong-scaling range, so speedup
// curves, optimization ratios and crossovers are directly comparable; only
// absolute seconds are smaller. Table 1 runs at the paper's true 480 cores
// (its effect depends on reads-per-thread locality, not on scale).
package expt

import (
	"fmt"
	"math"
	"strings"

	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/sim"
)

// Config controls workload scale for all experiments.
type Config struct {
	// Quick shrinks workloads to smoke-test size (used by unit tests and
	// the repo-level benchmarks). Full uses merbench defaults.
	Quick bool

	// CoreScale divides the paper's core counts (default 16; Quick: 48).
	CoreScale int

	// Workers bounds host goroutines executing simulated threads
	// (0 = NumCPU).
	Workers int

	Seed int64
}

// DefaultConfig returns the merbench configuration.
func DefaultConfig() Config { return Config{CoreScale: 16, Seed: 1} }

// QuickConfig returns the smoke-test configuration. CoreScale stays at 16
// even in quick mode so every simulated point spans multiple nodes —
// single-node points have no network communication and would make the
// caching and aggregation ablations degenerate.
func QuickConfig() Config { return Config{Quick: true, CoreScale: 16, Seed: 1} }

func (c Config) coreScale() int {
	if c.CoreScale > 0 {
		return c.CoreScale
	}
	return 16
}

// scaledCores maps a paper core count to simulated threads (>= 2).
func (c Config) scaledCores(paperCores int) int {
	s := paperCores / c.coreScale()
	if s < 2 {
		s = 2
	}
	return s
}

// humanProfile returns the scaled human-like workload.
func (c Config) humanProfile() genome.Profile {
	size := 4_000_000
	depth := 12.0
	if c.Quick {
		size, depth = 400_000, 8
	}
	p := genome.HumanLike(size)
	p.Depth = depth
	p.InsertMean = 0 // unpaired keeps read counts predictable
	p.Seed = c.Seed
	return p
}

// wheatProfile returns the scaled wheat-like workload.
func (c Config) wheatProfile() genome.Profile {
	size := 5_000_000
	depth := 10.0
	if c.Quick {
		size, depth = 500_000, 6
	}
	p := genome.WheatLike(size)
	p.Depth = depth
	p.InsertMean = 0
	p.Seed = c.Seed + 1
	return p
}

// ecoliProfile returns the Fig 11 E. coli workload.
func (c Config) ecoliProfile() genome.Profile {
	p := genome.EColiLike()
	p.GenomeLen = 1_160_000 // quarter of K-12 keeps the sweep minutes-scale
	p.Depth = 4
	if c.Quick {
		p.GenomeLen = 300_000
		p.Depth = 2
		p.ContigMean = 20_000
	}
	p.Seed = c.Seed + 2
	return p
}

// mkData generates a data set, failing loudly on profile errors.
func mkData(p genome.Profile) (*genome.DataSet, error) {
	ds, err := genome.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("expt: generating %s: %w", p.Name, err)
	}
	if len(ds.Contigs) == 0 {
		return nil, fmt.Errorf("expt: %s produced no contigs", p.Name)
	}
	return ds, nil
}

// Report is one regenerated table or figure.
type Report struct {
	ID      string // "fig1", "table2", ...
	Title   string // what it reproduces
	Paper   string // the paper's headline observation (the shape target)
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a free-text note.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", strings.ToUpper(r.ID), r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&sb, "paper: %s\n", r.Paper)
	}
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Headers)
	sep := make([]string, len(r.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// secs formats simulated seconds compactly.
func secs(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.4f", s)
	default:
		return fmt.Sprintf("%.2e", s)
	}
}

// ratio formats a speedup ratio.
func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", a/b)
}

// efficiency computes parallel efficiency of strong scaling from p0->p1.
func efficiency(t0 float64, p0 int, t1 float64, p1 int) float64 {
	if t1 == 0 || p1 == 0 {
		return math.NaN()
	}
	return (t0 * float64(p0)) / (t1 * float64(p1))
}

// scaledOptions returns the paper's k=51 configuration with the
// max-alignments-per-seed threshold tightened for scaled genomes, whose
// repeat copy numbers are large relative to genome size.
func scaledOptions() sim.Options {
	opt := sim.DefaultOptions(51)
	opt.MaxSeedHits = 50
	return opt
}
