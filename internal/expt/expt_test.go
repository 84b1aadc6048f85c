package expt

import (
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config {
	c := QuickConfig()
	c.Workers = 4
	return c
}

// parseSecs parses a seconds cell back to float.
func parseSecs(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.Fields(s)[0], "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

func TestFig1ScalingShape(t *testing.T) {
	rep, err := Fig1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 6 {
		t.Fatalf("too few rows: %d", len(rep.Rows))
	}
	// Human rows: substantial strong scaling across the sweep (allowing
	// local non-monotonic noise on the tiny quick workload).
	var first, prev float64
	count := 0
	for _, row := range rep.Rows {
		if row[0] != "human-like" {
			continue
		}
		tt := parseSecs(t, row[3])
		if count == 0 {
			first = tt
		}
		prev = tt
		count++
	}
	if count < 3 {
		t.Fatalf("missing human rows: %d", count)
	}
	if prev > first/1.8 {
		t.Errorf("human did not scale: first %v, last %v", first, prev)
	}
	// Baseline points must be present and slower than merAligner's last
	// human point.
	foundBaseline := false
	for _, row := range rep.Rows {
		if strings.Contains(row[0], "pMap") {
			foundBaseline = true
			if parseSecs(t, row[3]) <= prev {
				t.Errorf("baseline %s (%s s) not slower than merAligner (%v s)", row[0], row[3], prev)
			}
		}
	}
	if !foundBaseline {
		t.Error("baseline points missing")
	}
	t.Log("\n" + rep.String())
}

func TestFig7Shape(t *testing.T) {
	rep, err := Fig7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 7 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	first := parseSecs(t, rep.Rows[0][2])
	last := parseSecs(t, rep.Rows[len(rep.Rows)-1][2])
	if !(first > 0.9 && last < 0.1) {
		t.Errorf("curve shape wrong: first %v last %v", first, last)
	}
	// Monte-Carlo agrees with analytic within 3 points.
	for _, row := range rep.Rows {
		a, mc := parseSecs(t, row[2]), parseSecs(t, row[3])
		if a-mc > 0.03 || mc-a > 0.03 {
			t.Errorf("MC disagrees at %s cores: %v vs %v", row[0], a, mc)
		}
	}
}

func TestFig8AggregationWins(t *testing.T) {
	rep, err := Fig8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		fine := parseSecs(t, row[2])
		agg := parseSecs(t, row[3])
		if fine/agg < 2 {
			t.Errorf("cores %s: aggregating stores improvement only %.2fx (want >= 2x; paper 3.9-4.8x)",
				row[0], fine/agg)
		}
	}
	t.Log("\n" + rep.String())
}

func TestFig9CachingWins(t *testing.T) {
	rep, err := Fig9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in pairs (no cache, w/ cache).
	for i := 0; i+1 < len(rep.Rows); i += 2 {
		nc := parseSecs(t, rep.Rows[i][4])
		wc := parseSecs(t, rep.Rows[i+1][4])
		if nc/wc < 1.1 {
			t.Errorf("cores %s: caching improvement only %.2fx (paper 1.7-2.3x at full scale)", rep.Rows[i][0], nc/wc)
		}
		// Target-fetch communication should be nearly eliminated.
		ncT := parseSecs(t, rep.Rows[i][3])
		wcT := parseSecs(t, rep.Rows[i+1][3])
		if wcT > ncT/3 {
			t.Errorf("cores %s: target cache did not eliminate fetch traffic: %v -> %v",
				rep.Rows[i][0], ncT, wcT)
		}
	}
	t.Log("\n" + rep.String())
}

func TestFig10ExactMatchWins(t *testing.T) {
	rep, err := Fig10(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(rep.Rows); i += 2 {
		without := parseSecs(t, rep.Rows[i][4])
		with := parseSecs(t, rep.Rows[i+1][4])
		if without/with < 1.5 {
			t.Errorf("cores %s: exact-match improvement only %.2fx (paper 2.8-3.4x)",
				rep.Rows[i][0], without/with)
		}
	}
	t.Log("\n" + rep.String())
}

func TestTable1PermutationBalancesCompute(t *testing.T) {
	rep, err := Table1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	withMaxComp := parseSecs(t, rep.Rows[0][2])
	withoutMaxComp := parseSecs(t, rep.Rows[1][2])
	if withoutMaxComp/withMaxComp < 1.2 {
		t.Errorf("permutation did not reduce max computation: %v vs %v (paper ~2.4x)",
			withoutMaxComp, withMaxComp)
	}
	t.Log("\n" + rep.String())
}

func TestTable2MerAlignerWins(t *testing.T) {
	rep, err := Table2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	mer := parseSecs(t, rep.Rows[0][3])
	for _, row := range rep.Rows[1:] {
		bl := parseSecs(t, row[3])
		if bl/mer < 2 {
			t.Errorf("%s only %.1fx slower than merAligner (paper: 20.4x / 39.4x)", row[0], bl/mer)
		}
		// The serial index construction must dominate the baseline total.
		idx := parseSecs(t, row[1])
		if idx < bl/2 {
			t.Errorf("%s: serial index (%v) does not dominate total (%v)", row[0], idx, bl)
		}
	}
	t.Log("\n" + rep.String())
}

func TestFig11RealScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("real-parallelism sweep skipped in -short")
	}
	rep, err := Fig11(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// merAligner must beat both baselines at the top core count.
	last := rep.Rows[len(rep.Rows)-1]
	mer := parseSecs(t, last[1])
	bwa := parseSecs(t, last[2])
	bt2 := parseSecs(t, last[3])
	if mer >= bwa || mer >= bt2 {
		t.Errorf("merAligner (%v) not fastest at top core count (bwa %v, bt2 %v)", mer, bwa, bt2)
	}
	t.Log("\n" + rep.String())
}

func TestRunAndRunAllQuick(t *testing.T) {
	if _, err := Run("fig7", quickCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := Run("nope", quickCfg()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{ID: "x", Title: "t", Paper: "p", Headers: []string{"a", "bb"}}
	rep.AddRow("1", "2")
	rep.Note("hello %d", 7)
	s := rep.String()
	for _, want := range []string{"== X: t ==", "paper: p", "a", "bb", "hello 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}
