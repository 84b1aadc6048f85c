package meraligner_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/genome"
)

// TestSnapshotSAMParity is the public round-trip contract: SAM output from
// an Aligner opened from a snapshot is byte-identical to SAM from the
// freshly built index on the same reads — headers, flags, positions,
// cigars, NM tags, everything.
func TestSnapshotSAMParity(t *testing.T) {
	ds := engineWorkload(t)
	qopt := meraligner.DefaultQueryOptions()
	qopt.CollectAlignments = true

	built, err := meraligner.Build(4, meraligner.DefaultIndexOptions(31), ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.merx")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := meraligner.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if !loaded.Mapped() {
		t.Error("opened aligner does not report Mapped")
	}
	if loaded.IndexOptions() != built.IndexOptions() {
		t.Errorf("opened IndexOptions %+v, want %+v", loaded.IndexOptions(), built.IndexOptions())
	}
	if loaded.IndexStats() != built.IndexStats() {
		t.Errorf("opened IndexStats differ: %+v vs %+v", loaded.IndexStats(), built.IndexStats())
	}

	var wantSAM, gotSAM bytes.Buffer
	for _, a := range []struct {
		al  *meraligner.Aligner
		buf *bytes.Buffer
	}{{built, &wantSAM}, {loaded, &gotSAM}} {
		res, err := a.al.Align(context.Background(), ds.Reads, qopt)
		if err != nil {
			t.Fatal(err)
		}
		if err := meraligner.WriteSAM(a.buf, res, a.al.Targets(), ds.Reads); err != nil {
			t.Fatal(err)
		}
	}
	if wantSAM.Len() == 0 {
		t.Fatal("empty SAM from the built index")
	}
	if !bytes.Equal(wantSAM.Bytes(), gotSAM.Bytes()) {
		t.Fatalf("SAM from the loaded snapshot differs from the built index (%d vs %d bytes)", wantSAM.Len(), gotSAM.Len())
	}
}

// TestSnapshotTypedErrors: the public error surface for damaged and alien
// files — a bit-flipped fixture must fail with ErrCorruptIndex naming the
// section, truncation likewise, and a non-snapshot file with
// ErrIncompatibleIndex. Never a panic.
func TestSnapshotTypedErrors(t *testing.T) {
	p := genome.HumanLike(30_000)
	p.Depth = 1
	p.InsertMean = 0
	ds, err := genome.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	built, err := meraligner.Build(2, meraligner.DefaultIndexOptions(21), ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "index.merx")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Bit-flipped fixture: flip one bit in the middle of the payload.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x08
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = meraligner.Open(path)
	if !errors.Is(err, meraligner.ErrCorruptIndex) {
		t.Fatalf("bit-flipped snapshot: got %v, want ErrCorruptIndex", err)
	}
	var ce *meraligner.CorruptIndexError
	if !errors.As(err, &ce) || ce.Section == "" {
		t.Fatalf("bit-flipped snapshot: error %v does not name the failing section", err)
	}

	// Truncated fixture.
	if err := os.WriteFile(path, good[:len(good)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := meraligner.Open(path); !errors.Is(err, meraligner.ErrCorruptIndex) {
		t.Fatalf("truncated snapshot: got %v, want ErrCorruptIndex", err)
	}

	// Not a snapshot at all.
	alien := filepath.Join(dir, "alien.bin")
	if err := os.WriteFile(alien, bytes.Repeat([]byte("FASTA?"), 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := meraligner.Open(alien); !errors.Is(err, meraligner.ErrIncompatibleIndex) {
		t.Fatalf("alien file: got %v, want ErrIncompatibleIndex", err)
	}

	// Restored fixture opens and serves.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := meraligner.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.Align(context.Background(), ds.Reads[:1], meraligner.DefaultQueryOptions()); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSnapshotOpen measures Open on a saved PR-1-workload snapshot —
// the serving cold-start this PR is about.
func BenchmarkSnapshotOpen(b *testing.B) {
	ds := engineWorkload(b)
	a, err := meraligner.Build(runtime.NumCPU(), meraligner.DefaultIndexOptions(31), ds.Contigs)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "index.merx")
	if err := a.Save(path); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := meraligner.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}
