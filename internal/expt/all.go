package expt

import "fmt"

// Experiments maps experiment ids to their runners, in paper order.
var Experiments = []struct {
	ID   string
	Run  func(Config) (*Report, error)
	Desc string
}{
	{"fig1", Fig1, "end-to-end strong scaling, human & wheat, + baseline points"},
	{"fig7", Fig7, "seed reuse probability vs cores (analytic + Monte-Carlo)"},
	{"fig8", Fig8, "aggregating-stores ablation on index construction"},
	{"fig9", Fig9, "software caching ablation on aligning-phase communication"},
	{"fig10", Fig10, "exact-match optimization ablation on the aligning phase"},
	{"table1", Table1, "load balancing by random permutation"},
	{"table2", Table2, "end-to-end comparison vs pMap+BWA-mem/Bowtie2"},
	{"fig11", Fig11, "single-node real-parallelism comparison on E. coli"},
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (*Report, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e.Run(cfg)
		}
	}
	return nil, fmt.Errorf("expt: unknown experiment %q", id)
}

// RunAll executes every experiment in order, stopping at the first error.
func RunAll(cfg Config) ([]*Report, error) {
	var out []*Report
	for _, e := range Experiments {
		rep, err := e.Run(cfg)
		if err != nil {
			return out, fmt.Errorf("expt: %s: %w", e.ID, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
