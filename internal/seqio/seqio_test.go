package seqio

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/lbl-repro/meraligner/internal/dna"
)

func TestFastaRoundTrip(t *testing.T) {
	seqs := []Seq{
		{Name: "contig_1", Seq: dna.MustPack("ACGTACGTACGT")},
		{Name: "contig_2", Seq: dna.MustPack(strings.Repeat("GATTACA", 40))},
		{Name: "x", Seq: dna.MustPack("A")},
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, seqs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFasta(&buf, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(seqs) {
		t.Fatalf("got %d records, want %d", len(got), len(seqs))
	}
	for i := range seqs {
		if got[i].Name != seqs[i].Name || !got[i].Seq.Equal(seqs[i].Seq) {
			t.Errorf("record %d mismatch: %q vs %q", i, got[i].Name, seqs[i].Name)
		}
	}
}

func TestFastaMultiLineAndHeaderFields(t *testing.T) {
	in := ">chr1 description here\nACGT\nACGT\n\n>chr2\nTTTT\n"
	got, err := ReadFasta(strings.NewReader(in), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "chr1" || got[0].Seq.String() != "ACGTACGT" || got[1].Seq.String() != "TTTT" {
		t.Errorf("parsed %+v", got)
	}
}

func TestFastaErrors(t *testing.T) {
	if _, err := ReadFasta(strings.NewReader("ACGT\n"), ParseOptions{}); err == nil {
		t.Error("content before header accepted")
	}
	if _, err := ReadFasta(strings.NewReader(">a\nACGN\n"), ParseOptions{}); err == nil {
		t.Error("N accepted without ReplaceN")
	}
	got, err := ReadFasta(strings.NewReader(">a\nACGN\n"), ParseOptions{ReplaceN: true})
	if err != nil || got[0].Seq.String() != "ACGA" {
		t.Errorf("ReplaceN failed: %v %+v", err, got)
	}
}

func TestFastqRoundTrip(t *testing.T) {
	seqs := []Seq{
		{Name: "read/1", Seq: dna.MustPack("ACGTACGTAC"), Qual: []byte("IIIIIIIIII")},
		{Name: "read/2", Seq: dna.MustPack("TTTT"), Qual: []byte("!!!!")},
	}
	var buf bytes.Buffer
	if err := WriteFastq(&buf, seqs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFastq(&buf, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records", len(got))
	}
	for i := range seqs {
		if got[i].Name != seqs[i].Name || !got[i].Seq.Equal(seqs[i].Seq) || !bytes.Equal(got[i].Qual, seqs[i].Qual) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestFastqErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":   "read\nACGT\n+\nIIII\n",
		"bad plus":     "@r\nACGT\nxIII\nIIII\n",
		"qual len":     "@r\nACGT\n+\nIII\n",
		"truncated":    "@r\nACGT\n+\n",
		"invalid base": "@r\nACXT\n+\nIIII\n",
	}
	for name, in := range cases {
		if _, err := ReadFastq(strings.NewReader(in), ParseOptions{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func randomSeqs(seed int64, n, minLen, maxLen int, withQual bool) []Seq {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Seq, n)
	for i := range out {
		l := minLen + rng.Intn(maxLen-minLen+1)
		s := Seq{Name: "read_" + strings.Repeat("x", rng.Intn(5)) + "_" + string(rune('a'+i%26)), Seq: dna.Random(rng, l)}
		if withQual {
			s.Qual = bytes.Repeat([]byte{byte('!' + rng.Intn(40))}, l)
		}
		out[i] = s
	}
	return out
}

func tempFile(t *testing.T) *os.File {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "test.seqdb"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestSeqDBRoundTrip(t *testing.T) {
	seqs := randomSeqs(1, 1000, 50, 150, true)
	f := tempFile(t)
	chunks, err := WriteSeqDB(f, seqs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 10 {
		t.Fatalf("chunks = %d, want 10", len(chunks))
	}
	db, err := OpenSeqDB(f)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumRecords() != 1000 || db.NumChunks() != 10 {
		t.Fatalf("records=%d chunks=%d", db.NumRecords(), db.NumChunks())
	}
	idx := 0
	for c := 0; c < db.NumChunks(); c++ {
		recs, err := db.ReadChunk(c)
		if err != nil {
			t.Fatal(err)
		}
		info := db.Chunk(c)
		if int(info.First) != idx {
			t.Errorf("chunk %d First=%d, want %d", c, info.First, idx)
		}
		for _, r := range recs {
			want := seqs[idx]
			if r.Name != want.Name || !r.Seq.Equal(want.Seq) || !bytes.Equal(r.Qual, want.Qual) {
				t.Fatalf("record %d corrupted", idx)
			}
			idx++
		}
	}
	if idx != 1000 {
		t.Errorf("decoded %d records", idx)
	}
}

func TestSeqDBUnevenLastChunk(t *testing.T) {
	seqs := randomSeqs(2, 105, 30, 60, false)
	f := tempFile(t)
	chunks, err := WriteSeqDB(f, seqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 3 || chunks[2].Count != 5 {
		t.Fatalf("chunks = %+v", chunks)
	}
	db, err := OpenSeqDB(f)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := db.ReadChunk(2)
	if err != nil || len(recs) != 5 {
		t.Fatalf("last chunk: %v, %d recs", err, len(recs))
	}
}

func TestSeqDBConcurrentChunkReads(t *testing.T) {
	seqs := randomSeqs(3, 400, 80, 120, true)
	f := tempFile(t)
	if _, err := WriteSeqDB(f, seqs, 40); err != nil {
		t.Fatal(err)
	}
	db, err := OpenSeqDB(f)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, db.NumChunks())
	for c := 0; c < db.NumChunks(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			recs, err := db.ReadChunk(c)
			if err != nil {
				errs[c] = err
				return
			}
			first := int(db.Chunk(c).First)
			for i, r := range recs {
				if r.Name != seqs[first+i].Name {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("chunk %d: %v", c, err)
		}
	}
}

func TestSeqDBRejectsGarbage(t *testing.T) {
	f := tempFile(t)
	if _, err := f.Write([]byte("this is not a seqdb file at all, not even close......")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSeqDB(f); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSeqDBTruncatedFile(t *testing.T) {
	seqs := randomSeqs(4, 50, 50, 80, true)
	f := tempFile(t)
	if _, err := WriteSeqDB(f, seqs, 10); err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat()
	// Chop off the index.
	raw := make([]byte, st.Size()-40)
	if _, err := f.ReadAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSeqDB(bytes.NewReader(raw)); err == nil {
		t.Error("truncated file accepted")
	}
}

func TestSeqDBChunkOutOfRange(t *testing.T) {
	seqs := randomSeqs(5, 10, 50, 60, false)
	f := tempFile(t)
	if _, err := WriteSeqDB(f, seqs, 5); err != nil {
		t.Fatal(err)
	}
	db, err := OpenSeqDB(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReadChunk(99); err == nil {
		t.Error("out-of-range chunk accepted")
	}
	if _, err := db.ReadChunk(-1); err == nil {
		t.Error("negative chunk accepted")
	}
}

func TestConvertFastqCompressionRatio(t *testing.T) {
	// §V-A: SeqDB files are typically 40-50% smaller than the FASTQ.
	seqs := randomSeqs(6, 2000, 100, 100, true)
	var fq bytes.Buffer
	if err := WriteFastq(&fq, seqs); err != nil {
		t.Fatal(err)
	}
	f := tempFile(t)
	n, ratio, err := ConvertFastq(bytes.NewReader(fq.Bytes()), f, 256, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Errorf("converted %d records, want 2000", n)
	}
	if ratio > 0.70 || ratio < 0.40 {
		t.Errorf("compression ratio = %.2f, want 0.40-0.70 (40-60%% smaller)", ratio)
	}
	// Verify losslessness.
	db, err := OpenSeqDB(f)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := db.ReadChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Name != seqs[0].Name || !recs[0].Seq.Equal(seqs[0].Seq) || !bytes.Equal(recs[0].Qual, seqs[0].Qual) {
		t.Error("conversion not lossless")
	}
}

func TestSeqDBNoQualSmaller(t *testing.T) {
	withQ := randomSeqs(7, 500, 100, 100, true)
	noQ := make([]Seq, len(withQ))
	for i, s := range withQ {
		noQ[i] = Seq{Name: s.Name, Seq: s.Seq}
	}
	f1, f2 := tempFile(t), tempFile(t)
	if _, err := WriteSeqDB(f1, withQ, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSeqDB(f2, noQ, 100); err != nil {
		t.Fatal(err)
	}
	s1, _ := f1.Stat()
	s2, _ := f2.Stat()
	if s2.Size() >= s1.Size() {
		t.Errorf("qual-less file not smaller: %d vs %d", s2.Size(), s1.Size())
	}
}

func BenchmarkSeqDBReadChunk(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	seqs := make([]Seq, 4096)
	for i := range seqs {
		seqs[i] = Seq{Name: "r", Seq: dna.Random(rng, 100), Qual: bytes.Repeat([]byte{'I'}, 100)}
	}
	f, err := os.CreateTemp(b.TempDir(), "bench.seqdb")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if _, err := WriteSeqDB(f, seqs, 4096); err != nil {
		b.Fatal(err)
	}
	db, err := OpenSeqDB(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ReadChunk(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFastqParse(b *testing.B) {
	seqs := randomSeqs(9, 1000, 100, 100, true)
	var buf bytes.Buffer
	if err := WriteFastq(&buf, seqs); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFastq(bytes.NewReader(raw), ParseOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSeqDBCorruptIndex: a forged chunk index entry is refused by OpenSeqDB
// (or, failing that, by ReadChunk) with an error — never a panic from a
// length taken on trust.
func TestSeqDBCorruptIndex(t *testing.T) {
	f := tempFile(t)
	if _, err := WriteSeqDB(f, randomSeqs(7, 20, 30, 40, true), 10); err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	valid := make([]byte, st.Size())
	if _, err := f.ReadAt(valid, 0); err != nil {
		t.Fatal(err)
	}
	indexOff := binary.LittleEndian.Uint64(valid[24:])
	entry0 := valid[indexOff:] // chunk 0: off, size, first, count
	off0 := binary.LittleEndian.Uint64(entry0[0:])
	for _, tc := range []struct {
		name  string
		field int // byte offset within the entry
		value uint64
	}{
		{"huge count", 24, 1 << 62},
		{"count above size", 24, binary.LittleEndian.Uint64(entry0[8:]) + 1},
		{"huge size", 8, 1 << 62},
		{"size past the index", 8, indexOff - off0 + 1},
		{"offset inside the header", 0, headerSize - 1},
		{"offset past the index", 0, indexOff + 1},
		{"offset wraps", 0, ^uint64(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := bytes.Clone(valid)
			binary.LittleEndian.PutUint64(raw[indexOff+uint64(tc.field):], tc.value)
			db, err := OpenSeqDB(bytes.NewReader(raw))
			if err != nil {
				return
			}
			for i := 0; i < db.NumChunks(); i++ {
				if _, err := db.ReadChunk(i); err != nil {
					return
				}
			}
			t.Fatal("corrupt index entry accepted")
		})
	}
}

// TestSeqDBForgedChunkCount: a header claiming far more chunks than the
// file holds fails on the short index read without first allocating an
// index buffer of the claimed size.
func TestSeqDBForgedChunkCount(t *testing.T) {
	f := tempFile(t)
	if _, err := WriteSeqDB(f, randomSeqs(8, 20, 30, 40, false), 10); err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, st.Size())
	if _, err := f.ReadAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	const forged = 1 << 20 // a 32 MiB index, were it believed
	binary.LittleEndian.PutUint64(raw[16:], forged)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = OpenSeqDB(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged chunk count accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > forged*indexEntry/8 {
		t.Fatalf("OpenSeqDB allocated %d bytes for a forged chunk count", grew)
	}
}
