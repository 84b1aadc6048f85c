package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/lbl-repro/meraligner/internal/merx"
)

// saveLoad round-trips a built index through a snapshot file.
func saveLoad(t *testing.T, ix *ThreadedIndex, workers int) (*ThreadedIndex, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.merx")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(workers, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loaded.Close() })
	return loaded, path
}

// TestSnapshotQueryParity: queries against a loaded snapshot must produce
// results identical to the freshly built index — alignments, cigars,
// per-read statuses, everything the engine reports.
func TestSnapshotQueryParity(t *testing.T) {
	ds := testWorkload(t, 60_000, 3, 0.005)
	opt := testOptions(21)
	built, err := BuildIndex(3, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _ := saveLoad(t, built, 3)

	if !loaded.Mapped() {
		t.Error("loaded index does not report Mapped")
	}
	if built.Mapped() {
		t.Error("built index reports Mapped")
	}
	if loaded.Options() != built.Options() {
		t.Errorf("loaded options %+v, want %+v", loaded.Options(), built.Options())
	}
	if loaded.Stats() != built.Stats() {
		t.Errorf("loaded stats %+v, want %+v", loaded.Stats(), built.Stats())
	}

	want, err := built.Query(context.Background(), 2, opt.QueryOptions, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Query(context.Background(), 2, opt.QueryOptions, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Alignments, got.Alignments) {
		t.Fatalf("alignments differ: built %d, loaded %d", len(want.Alignments), len(got.Alignments))
	}
	if want.AlignedReads != got.AlignedReads || want.ExactPathReads != got.ExactPathReads ||
		want.TotalAlignments != got.TotalAlignments || want.SWCalls != got.SWCalls {
		t.Fatalf("result counters differ: built %+v, loaded %+v", want, got)
	}

	// The inline path (a batch of one chunk) and the load-time phase
	// accounting must work too.
	sGot, err := loaded.Query(context.Background(), 2, opt.QueryOptions, ds.Reads[:20])
	if err != nil {
		t.Fatal(err)
	}
	sWant, err := built.Query(context.Background(), 2, opt.QueryOptions, ds.Reads[:20])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sWant.Alignments, sGot.Alignments) {
		t.Fatal("inline-path alignments differ between built and loaded index")
	}
	phases := loaded.BuildPhases()
	if len(phases) != 1 || phases[0].Name != PhaseLoad {
		t.Errorf("loaded BuildPhases = %+v, want a single %q phase", phases, PhaseLoad)
	}
	if loaded.BuildWall() <= 0 {
		t.Error("loaded BuildWall not positive")
	}
}

// TestSnapshotTargetsPreserved: the packed reference must round-trip
// exactly (names, lengths, and bases), since SAM output depends on it.
func TestSnapshotTargetsPreserved(t *testing.T) {
	ds := testWorkload(t, 30_000, 1, 0)
	opt := testOptions(21)
	built, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _ := saveLoad(t, built, 2)
	if len(loaded.Targets()) != len(built.Targets()) {
		t.Fatalf("%d targets loaded, want %d", len(loaded.Targets()), len(built.Targets()))
	}
	for i, want := range built.Targets() {
		got := loaded.Targets()[i]
		if got.Name != want.Name || !got.Seq.Equal(want.Seq) {
			t.Fatalf("target %d (%q) differs after round trip", i, want.Name)
		}
	}
	if loaded.TargetCodesBytes() != built.TargetCodesBytes() {
		t.Errorf("TargetCodesBytes %d, want %d", loaded.TargetCodesBytes(), built.TargetCodesBytes())
	}
}

// rewriteSnapshot copies the snapshot at src to dst section by section
// through merx.Writer, replacing the payload of every section patch names.
func rewriteSnapshot(t *testing.T, src, dst string, patch map[string]func([]byte) []byte) {
	t.Helper()
	in, err := merx.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	w, err := merx.NewWriter(out, snapLayout)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range in.Sections() {
		data := sec.Data
		if fn := patch[sec.Tag]; fn != nil {
			data = fn(bytes.Clone(data))
		}
		if err := w.Section(sec.Tag, func(sw io.Writer) error { _, err := sw.Write(data); return err }); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestCappedSnapshotRefused: a seed table whose DHTS header word 12 is
// nonzero was written with capped location lists. It cannot answer every
// threshold, so both loaders refuse it as incompatible, not corrupt.
func TestCappedSnapshotRefused(t *testing.T) {
	checkRefused(t, "capped", sectionDHT, func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[12:], 6)
		return b
	})
}

// TestTableVersionRefused: a snapshot whose DHTS version word is 1 — the
// 32-byte-slot layout — under valid CRCs is intact but unreadable by this
// build, so both loaders refuse it as incompatible, not corrupt.
func TestTableVersionRefused(t *testing.T) {
	checkRefused(t, "version 1", sectionDHT, func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[0:], 1)
		return b
	})
}

// TestInvalidIndexOptionsRefused: a META whose index options fail
// validation (K 0) under valid CRCs is refused by both loaders as
// incompatible: a seed shard reads its META as a whole snapshot does.
func TestInvalidIndexOptionsRefused(t *testing.T) {
	checkRefused(t, "index options rejected", sectionMeta, func(b []byte) []byte {
		var meta map[string]any
		if err := json.Unmarshal(b, &meta); err != nil {
			t.Fatal(err)
		}
		meta["index_options"].(map[string]any)["K"] = 0
		out, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
}

// checkRefused saves a whole snapshot and a seed shard, rewrites their
// section with patch under fresh CRCs, and requires LoadIndex and
// LoadSeedShard to refuse both as merx.ErrIncompatible, not merx.ErrCorrupt,
// naming want.
func checkRefused(t *testing.T, want, section string, patch func([]byte) []byte) {
	t.Helper()
	ds := testWorkload(t, 30_000, 1, 0)
	built, err := BuildIndex(2, testOptions(21).IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.merx")
	if err := built.Save(whole); err != nil {
		t.Fatal(err)
	}
	seeds, err := built.SaveSeedShards(filepath.Join(dir, "seeds"), 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		src  string
		load func(string) (io.Closer, error)
	}{
		"LoadIndex":     {whole, func(p string) (io.Closer, error) { return LoadIndex(2, p) }},
		"LoadSeedShard": {seeds[0], func(p string) (io.Closer, error) { return LoadSeedShard(p) }},
	} {
		path := filepath.Join(dir, name+".merx")
		rewriteSnapshot(t, tc.src, path, map[string]func([]byte) []byte{section: patch})
		c, err := tc.load(path)
		if err == nil {
			c.Close()
			t.Fatalf("%s accepted a snapshot whose %s section it must refuse as %q", name, section, want)
		}
		if !errors.Is(err, merx.ErrIncompatible) || errors.Is(err, merx.ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %v, want merx.ErrIncompatible naming %q", name, err, want)
		}
	}
}

// TestLoadIndexErrors: missing files, damaged files, and misuse must all
// fail with typed errors, never panic.
func TestLoadIndexErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadIndex(2, filepath.Join(dir, "missing.merx")); err == nil {
		t.Error("missing file accepted")
	}
	junk := filepath.Join(dir, "junk.merx")
	if err := os.WriteFile(junk, make([]byte, 256), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(2, junk); !errors.Is(err, merx.ErrIncompatible) {
		t.Errorf("junk file: got %v, want ErrIncompatible", err)
	}

	ds := testWorkload(t, 30_000, 1, 0)
	built, err := BuildIndex(2, testOptions(21).IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "index.merx")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(0, path); err == nil {
		t.Error("workers=0 accepted")
	}

	// Bit-flip every region of the file: a flip must yield a typed error
	// naming a section (or an incompatibility for header-magic flips).
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	step := len(good)/64 + 1
	for off := 0; off < len(good); off += step {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x10
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := LoadIndex(2, path)
		if err == nil {
			ix.Close()
			t.Fatalf("bit flip at %d/%d went undetected", off, len(good))
		}
		if !errors.Is(err, merx.ErrCorrupt) && !errors.Is(err, merx.ErrIncompatible) {
			t.Fatalf("bit flip at %d: untyped error %v", off, err)
		}
		if errors.Is(err, merx.ErrCorrupt) {
			var ce *merx.CorruptError
			if !errors.As(err, &ce) || ce.Section == "" {
				t.Fatalf("bit flip at %d: corrupt error %v names no section", off, err)
			}
		}
	}

	// Truncations too.
	for _, n := range []int{16, len(good) / 3, len(good) - 1} {
		if err := os.WriteFile(path, good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := LoadIndex(2, path)
		if err == nil {
			ix.Close()
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
		if !errors.Is(err, merx.ErrCorrupt) {
			t.Fatalf("truncation to %d: got %v, want ErrCorrupt", n, err)
		}
	}
}

// TestReadTargetsRejectsInflatedCount: a crafted record count larger than
// the section could possibly hold must be rejected before the slice
// pre-allocation, not OOM the loader.
func TestReadTargetsRejectsInflatedCount(t *testing.T) {
	blob := make([]byte, 4096)
	binary.LittleEndian.PutUint64(blob, 1<<40) // claims ~10^12 records
	if _, err := readTargets(blob); err == nil {
		t.Fatal("inflated target count accepted")
	}
}

// TestSaveFileMode: snapshots are shared serving artifacts; they must be
// world-readable (0644) despite being staged through a 0600 temp file.
func TestSaveFileMode(t *testing.T) {
	ds := testWorkload(t, 30_000, 1, 0)
	built, err := BuildIndex(2, testOptions(21).IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.merx")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Errorf("snapshot mode %v, want -rw-r--r--", st.Mode().Perm())
	}
}

// TestSnapshotCloseIdempotent: Close is safe to call twice and on built
// indexes.
func TestSnapshotCloseIdempotent(t *testing.T) {
	ds := testWorkload(t, 30_000, 1, 0)
	built, err := BuildIndex(2, testOptions(21).IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatalf("Close on built index: %v", err)
	}
	loaded, path := saveLoad(t, built, 2)
	if loaded.SnapshotPath() != path {
		t.Errorf("SnapshotPath %q, want %q", loaded.SnapshotPath(), path)
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if loaded.Mapped() {
		t.Error("Mapped true after Close")
	}
}

// TestSaveDeterministic: saving the same index twice must produce the same
// file (no timestamps or randomness in the format), so snapshot artifacts
// are cacheable and diffable.
func TestSaveDeterministic(t *testing.T) {
	ds := testWorkload(t, 30_000, 2, 0.005)
	built, err := BuildIndex(3, testOptions(21).IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.merx"), filepath.Join(dir, "b.merx")
	if err := built.Save(p1); err != nil {
		t.Fatal(err)
	}
	if err := built.Save(p2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Error("two saves of the same index differ byte for byte")
	}
}

// TestLegacyMetaStillLoads: older snapshots carry more keys in
// META.index_options: Mode, SeedCacheBytes and TargetCacheBytes from before
// the simulated machine moved to internal/sim, and AggS and MaxLocList from
// before the index had one shape. None of them shapes what the loader reads,
// so it ignores them — no format-version bump — and the snapshot serves
// exactly as a freshly saved one does.
func TestLegacyMetaStillLoads(t *testing.T) {
	ds := testWorkload(t, 40_000, 2, 0.005)
	opt := testOptions(21)
	built, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := json.Marshal(built.Stats())
	if err != nil {
		t.Fatal(err)
	}
	legacyMeta := fmt.Sprintf(`{
 "tool": "meraligner",
 "index_options": {
  "K": 21,
  "Mode": 0,
  "AggS": 1000,
  "SeedCacheBytes": 16777216,
  "TargetCacheBytes": 6291456,
  "ExactMatch": true,
  "FragmentLen": 2000,
  "MaxLocList": 0
 },
 "shards": %d,
 "num_targets": %d,
 "num_fragments": %d,
 "stats": %s
}
`, built.sx.Shards(), len(ds.Contigs), built.ft.NumFragments(), stats)

	dir := t.TempDir()
	fresh, path := filepath.Join(dir, "fresh.merx"), filepath.Join(dir, "legacy.merx")
	if err := built.Save(fresh); err != nil {
		t.Fatal(err)
	}
	rewriteSnapshot(t, fresh, path, map[string]func([]byte) []byte{
		sectionMeta: func([]byte) []byte { return []byte(legacyMeta) },
	})

	loaded, err := LoadIndex(2, path)
	if err != nil {
		t.Fatalf("legacy META rejected: %v", err)
	}
	defer loaded.Close()
	if loaded.Options() != built.Options() {
		t.Errorf("loaded options %+v, want %+v", loaded.Options(), built.Options())
	}
	want, err := built.Query(context.Background(), 2, opt.QueryOptions, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Query(context.Background(), 2, opt.QueryOptions, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Alignments) == 0 || !reflect.DeepEqual(want.Alignments, got.Alignments) {
		t.Fatalf("legacy snapshot serves %d alignments, fresh index %d (or they differ)", len(got.Alignments), len(want.Alignments))
	}
}

// BenchmarkLoadIndex times one cold open of a snapshot — map, section CRCs,
// seed-table validation, fragment table — over the 1 Mbp synthetic
// reference of BenchmarkBuildIndex at k = 31, with 2 workers.
func BenchmarkLoadIndex(b *testing.B) {
	const workers = 2
	ix, err := BuildIndex(workers, DefaultIndexOptions(31), syntheticContigs(11, 8, 125_000))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "index.merx")
	if err := ix.Save(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := LoadIndex(workers, path)
		if err != nil {
			b.Fatal(err)
		}
		loaded.Close()
	}
}
