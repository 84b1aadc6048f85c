package meraligner

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/seqio"
	"github.com/lbl-repro/meraligner/internal/sim"
	"github.com/lbl-repro/meraligner/internal/upc"
)

func apiWorkload(t testing.TB) *genome.DataSet {
	p := genome.HumanLike(80_000)
	p.Depth = 3
	p.InsertMean = 0
	ds, err := genome.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAlignSimulated(t *testing.T) {
	ds := apiWorkload(t)
	mach := upc.Edison(48)
	mach.Workers = 4
	opt := sim.DefaultOptions(31)
	opt.CollectAlignments = true
	res, err := sim.Run(mach, opt, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.AlignedReads == 0 || len(res.Alignments) == 0 {
		t.Fatal("nothing aligned on the simulated machine")
	}
	if res.TotalWall() <= 0 {
		t.Error("no simulated time")
	}
}

func TestAlignThreaded(t *testing.T) {
	ds := apiWorkload(t)
	opt := DefaultOptions(31)
	res, err := AlignThreaded(4, opt, ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.AlignedReads == 0 {
		t.Fatal("nothing aligned")
	}
	if res.TotalRealWall() <= 0 {
		t.Error("no measured wall time")
	}
}

func TestAlignFilesEndToEnd(t *testing.T) {
	ds := apiWorkload(t)
	dir := t.TempDir()

	// Targets as FASTA.
	tf, err := os.Create(filepath.Join(dir, "contigs.fa"))
	if err != nil {
		t.Fatal(err)
	}
	if err := seqio.WriteFasta(tf, ds.Contigs); err != nil {
		t.Fatal(err)
	}
	tf.Close()

	// Queries as FASTQ.
	qf, err := os.Create(filepath.Join(dir, "reads.fq"))
	if err != nil {
		t.Fatal(err)
	}
	if err := seqio.WriteFastq(qf, ds.Reads[:500]); err != nil {
		t.Fatal(err)
	}
	qf.Close()

	opt := DefaultOptions(31)
	opt.CollectAlignments = true
	res, targets, queries, err := AlignFiles(4, opt, tf.Name(), qf.Name())
	if err != nil {
		t.Fatal(err)
	}
	if res.AlignedReads == 0 {
		t.Fatal("nothing aligned from files")
	}
	var buf bytes.Buffer
	if err := WriteAlignments(&buf, res, targets, queries); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "contig_") || !strings.Contains(out, "read_") {
		t.Errorf("alignment output missing names:\n%s", out[:min(400, len(out))])
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != len(res.Alignments) {
		t.Error("output line count mismatch")
	}
}

func TestReadQueriesSeqDB(t *testing.T) {
	ds := apiWorkload(t)
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "reads.seqdb"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seqio.WriteSeqDB(f, ds.Reads[:200], 64); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := ReadQueries(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("read %d records, want 200", len(got))
	}
}

func TestWriteSAM(t *testing.T) {
	ds := apiWorkload(t)
	opt := DefaultOptions(31)
	opt.CollectAlignments = true
	res, err := AlignThreaded(4, opt, ds.Contigs, ds.Reads[:300])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSAM(&buf, res, ds.Contigs, ds.Reads[:300]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var headers, mapped, unmapped, secondary int
	for _, l := range lines {
		if strings.HasPrefix(l, "@") {
			headers++
			continue
		}
		fields := strings.Split(l, "\t")
		if len(fields) < 11 {
			t.Fatalf("short SAM line: %q", l)
		}
		var flag int
		if _, err := fmt.Sscanf(fields[1], "%d", &flag); err != nil {
			t.Fatal(err)
		}
		switch {
		case flag&0x4 != 0:
			unmapped++
		case flag&0x100 != 0:
			secondary++
		default:
			mapped++
		}
	}
	if headers != len(ds.Contigs)+2 {
		t.Errorf("headers = %d, want %d", headers, len(ds.Contigs)+2)
	}
	if mapped == 0 {
		t.Error("no primary alignments in SAM")
	}
	// Every read appears at least once (primary or unmapped).
	if mapped+unmapped != 300 {
		t.Errorf("primary+unmapped = %d, want 300", mapped+unmapped)
	}
}

func TestReadQueriesMissingFile(t *testing.T) {
	if _, err := ReadQueries("/nonexistent/path"); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := ReadFasta("/nonexistent/path"); err == nil {
		t.Error("missing file accepted")
	}
}
