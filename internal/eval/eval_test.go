package eval

import (
	"testing"

	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/genome"
)

func runWorkload(t *testing.T, errRate float64) (*genome.DataSet, *core.Results) {
	t.Helper()
	p := genome.HumanLike(120_000)
	p.Depth = 4
	p.InsertMean = 0
	p.ErrorRate = errRate
	ds, err := genome.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(31)
	opt.CollectAlignments = true
	res, err := core.RunThreaded(4, opt, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	return ds, res
}

func TestEvaluateErrorFreeReads(t *testing.T) {
	ds, res := runWorkload(t, 0)
	m := Evaluate(ds, res, Options{})
	if m.Total != len(ds.Reads) {
		t.Fatalf("total %d != %d", m.Total, len(ds.Reads))
	}
	// Error-free reads inside contigs must all be placed correctly.
	if m.Sensitivity() < 0.999 {
		t.Errorf("sensitivity %.4f on error-free reads, want ~1: %s", m.Sensitivity(), m)
	}
	if m.Precision() < 0.999 {
		t.Errorf("precision %.4f on error-free reads: %s", m.Precision(), m)
	}
	if m.Unaligned != 0 {
		t.Errorf("%d error-free in-contig reads unaligned", m.Unaligned)
	}
}

func TestEvaluateNoisyReads(t *testing.T) {
	ds, res := runWorkload(t, 0.01)
	m := Evaluate(ds, res, Options{})
	// With 1% error some reads lack any intact 31-mer; sensitivity drops
	// but must stay high, and precision must stay near 1.
	if m.Sensitivity() < 0.90 {
		t.Errorf("sensitivity %.3f too low: %s", m.Sensitivity(), m)
	}
	if m.Precision() < 0.99 {
		t.Errorf("precision %.3f too low: %s", m.Precision(), m)
	}
	// The aligned fraction should land in the paper's ballpark given the
	// generator's ~94% contig coverage.
	if f := m.AlignedFraction(); f < 0.75 || f > 0.99 {
		t.Errorf("aligned fraction %.3f implausible: %s", f, m)
	}
}

func TestMetricsZeroSafe(t *testing.T) {
	var m Metrics
	if m.AlignedFraction() != 0 || m.Sensitivity() != 0 || m.Precision() != 0 {
		t.Error("zero metrics not safe")
	}
	if m.String() == "" {
		t.Error("empty string")
	}
}

func TestEvaluateCountsUnmappable(t *testing.T) {
	ds, res := runWorkload(t, 0)
	m := Evaluate(ds, res, Options{})
	// The generator leaves gaps between contigs; some reads must span them.
	if m.Unmappable == 0 {
		t.Error("no unmappable reads despite contig gaps")
	}
	if m.Correct+m.Misplaced+m.Unaligned+m.Unmappable != m.Total {
		t.Error("outcome counts do not partition the read set")
	}
}
