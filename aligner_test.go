package meraligner

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// Build once + N Align calls must match N one-shot AlignThreaded runs
// byte-for-byte, and concurrent callers must agree with sequential ones.
func TestBuildAlignMatchesAlignThreaded(t *testing.T) {
	ds := apiWorkload(t)
	iopt := DefaultIndexOptions(31)
	qopt := DefaultQueryOptions()
	qopt.CollectAlignments = true

	a, err := Build(4, iopt, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	third := len(ds.Reads) / 3
	for bi := 0; bi < 3; bi++ {
		batch := ds.Reads[bi*third : (bi+1)*third]
		oneShot := DefaultOptions(31)
		oneShot.CollectAlignments = true
		want, err := AlignThreaded(4, oneShot, ds.Contigs, batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Align(context.Background(), batch, qopt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Alignments, got.Alignments) {
			t.Fatalf("batch %d: resident Align differs from AlignThreaded", bi)
		}
	}
}

func TestAlignerConcurrentBatches(t *testing.T) {
	ds := apiWorkload(t)
	qopt := DefaultQueryOptions()
	qopt.CollectAlignments = true
	a, err := Build(2, DefaultIndexOptions(31), ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := a.Align(context.Background(), ds.Reads, qopt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got, err := a.AlignWorkers(context.Background(), 1+c%2, ds.Reads, qopt)
			if err != nil {
				errs[c] = err
				return
			}
			if !reflect.DeepEqual(ref.Alignments, got.Alignments) {
				errs[c] = errors.New("concurrent Align results differ")
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", c, err)
		}
	}
}

func TestAlignerContextCancellation(t *testing.T) {
	ds := apiWorkload(t)
	a, err := Build(2, DefaultIndexOptions(31), ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Align(ctx, ds.Reads, DefaultQueryOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAlignPerCallAllocs pins the per-call overhead of the latency-bound
// route, a single-read request: a 1-read batch resolved on the exact-match
// path runs on the calling goroutine of a 4-thread Aligner and allocates
// nothing per worker it cannot use.
func TestAlignPerCallAllocs(t *testing.T) {
	p := genome.HumanLike(60_000)
	p.Depth, p.ErrorRate, p.InsertMean = 2, 0, 0
	ds, err := genome.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Build(4, DefaultIndexOptions(21), ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, opt := context.Background(), DefaultQueryOptions()
	var batch []Seq
	for qi := range ds.Reads {
		res, err := a.Align(ctx, ds.Reads[qi:qi+1], opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExactPathReads == 1 {
			batch = ds.Reads[qi : qi+1]
			break
		}
	}
	if batch == nil {
		t.Fatal("no exact-path read in an error-free workload")
	}
	// Five today: the pool's processor slice and closure, the stop flag, the
	// Results and its Phases. The processor and its buffers (codes, the
	// claim's seeds and answers) come back from the index's pool; under the
	// race detector the pool drops some of them, which costs up to two more.
	const maxAllocs = 8
	avg := testing.AllocsPerRun(100, func() {
		if _, err := a.Align(ctx, batch, opt); err != nil {
			t.Fatal(err)
		}
	})
	if avg > maxAllocs {
		t.Fatalf("Align allocates %.0f objects for a 1-read exact-path batch, want <= %d", avg, maxAllocs)
	}
}

// The streaming SAM path: one header, batches appended, real NM tags.
func TestSAMStreamBatchesAndNM(t *testing.T) {
	// A hand-built workload with known edit distances: reads cut straight
	// from the target (NM 0) and reads with one substituted base (NM 1).
	rng := rand.New(rand.NewSource(7))
	target := Seq{Name: "ref", Seq: dna.Random(rng, 600)}
	ref := target.Seq.String()
	exact := Seq{Name: "exact", Seq: dna.MustPack(ref[100:180])}
	sub := []byte(ref[300:380])
	sub[40] = flipBase(sub[40])
	mutated := Seq{Name: "mutated", Seq: dna.MustPack(string(sub))}

	iopt := DefaultIndexOptions(21)
	qopt := DefaultQueryOptions()
	qopt.CollectAlignments = true
	a, err := Build(2, iopt, []Seq{target})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	stream, err := NewSAMStream(&buf, a.Targets())
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]Seq{{exact}, {mutated}} {
		res, err := a.Align(context.Background(), batch, qopt)
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.WriteBatch(res, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := stream.Flush(); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	if n := strings.Count(out, "@SQ"); n != 1 {
		t.Fatalf("@SQ headers = %d, want 1 (shared across batches)", n)
	}
	nm := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "@") {
			continue
		}
		fields := strings.Split(line, "\t")
		if fields[1] != "0" && fields[1] != "16" {
			continue // only primary records carry the reads we assert on
		}
		for _, f := range fields[11:] {
			if v, ok := strings.CutPrefix(f, "NM:i:"); ok {
				got, err := strconv.Atoi(v)
				if err != nil {
					t.Fatalf("bad NM tag %q", f)
				}
				if prev, dup := nm[fields[0]]; !dup || got < prev {
					nm[fields[0]] = got
				}
			}
		}
	}
	if got, ok := nm["exact"]; !ok || got != 0 {
		t.Errorf("exact read NM = %d (found %v), want 0", got, ok)
	}
	if got, ok := nm["mutated"]; !ok || got != 1 {
		t.Errorf("mutated read NM = %d (found %v), want 1", got, ok)
	}
}

// WriteSAM's cigars must span the full read (soft clips added) so the
// output is valid for downstream tools.
func TestSAMCigarSpansRead(t *testing.T) {
	ds := apiWorkload(t)
	opt := DefaultOptions(31)
	opt.CollectAlignments = true
	res, err := AlignThreaded(4, opt, ds.Contigs, ds.Reads[:200])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSAM(&buf, res, ds.Contigs, ds.Reads[:200]); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "@") {
			continue
		}
		fields := strings.Split(line, "\t")
		if fields[5] == "*" {
			continue
		}
		span := 0
		n := 0
		for i := 0; i < len(fields[5]); i++ {
			c := fields[5][i]
			if c >= '0' && c <= '9' {
				n = n*10 + int(c-'0')
				continue
			}
			if c == 'M' || c == 'I' || c == 'S' {
				span += n
			}
			n = 0
		}
		if span != len(fields[9]) {
			t.Fatalf("cigar %q spans %d, SEQ is %d bases: %s", fields[5], span, len(fields[9]), line)
		}
	}
}

// Gzipped FASTA and FASTQ load transparently through the file readers.
func TestReadGzippedInputs(t *testing.T) {
	ds := apiWorkload(t)
	dir := t.TempDir()

	gzWrite := func(name string, write func(w *gzip.Writer) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		zw := gzip.NewWriter(f)
		if err := write(zw); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}

	faPath := gzWrite("contigs.fa.gz", func(w *gzip.Writer) error {
		return seqio.WriteFasta(w, ds.Contigs)
	})
	fqPath := gzWrite("reads.fq.gz", func(w *gzip.Writer) error {
		return seqio.WriteFastq(w, ds.Reads[:100])
	})

	targets, err := ReadFasta(faPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != len(ds.Contigs) || !targets[0].Seq.Equal(ds.Contigs[0].Seq) {
		t.Fatalf("gzipped FASTA read %d contigs, want %d matching", len(targets), len(ds.Contigs))
	}
	queries, err := ReadQueries(fqPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 100 || !queries[0].Seq.Equal(ds.Reads[0].Seq) {
		t.Fatalf("gzipped FASTQ read %d reads, want 100 matching", len(queries))
	}

	// Gzipped SeqDB is rejected with a useful error, not misparsed.
	rawSdb := filepath.Join(dir, "reads.seqdb")
	sf, err := os.Create(rawSdb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seqio.WriteSeqDB(sf, ds.Reads[:10], 8); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	sdbBytes, err := os.ReadFile(rawSdb)
	if err != nil {
		t.Fatal(err)
	}
	sdbPath := gzWrite("reads.seqdb.gz", func(w *gzip.Writer) error {
		_, err := w.Write(sdbBytes)
		return err
	})
	if _, err := ReadQueries(sdbPath); err == nil || !strings.Contains(err.Error(), "SeqDB") {
		t.Fatalf("gzipped SeqDB err = %v, want SeqDB-specific error", err)
	}
}

// flipBase substitutes a base deterministically for the NM test.
func flipBase(b byte) byte {
	switch b {
	case 'A':
		return 'C'
	case 'C':
		return 'G'
	case 'G':
		return 'T'
	default:
		return 'A'
	}
}
