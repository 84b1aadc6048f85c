package meraligner_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportBoundary holds the one dependency direction between the engine
// and the simulated machine: internal/sim (with upc, baseline, fmindex and
// expt, which exist only for the paper's figures) imports the engine, never
// the reverse. No non-test file outside the packages and commands that ARE
// the simulator or its front ends may import any of them — so nothing a
// server links can grow a cost-model parameter again.
func TestImportBoundary(t *testing.T) {
	const mod = "github.com/lbl-repro/meraligner/"
	simOnly := map[string]bool{
		mod + "internal/sim":      true,
		mod + "internal/upc":      true,
		mod + "internal/baseline": true,
		mod + "internal/fmindex":  true,
		mod + "internal/expt":     true,
	}
	mayImport := []string{"internal/sim/", "internal/expt/", "internal/baseline/", "cmd/merbench/", "cmd/meraligner/", "examples/"}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir // bench/ is its own module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		slashed := filepath.ToSlash(path)
		for _, p := range mayImport {
			if strings.HasPrefix(slashed, p) {
				return nil
			}
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if ip, _ := strconv.Unquote(imp.Path.Value); simOnly[ip] {
				t.Errorf("%s imports %s: the simulator depends on the engine, never the reverse", slashed, ip)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
