package meraligner_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
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
	mayImport := []string{"internal/sim/", "internal/expt/", "internal/baseline/", "cmd/merbench/", "examples/"}

	eachSourceFile(t, parser.ImportsOnly, func(slashed string, f *ast.File) {
		for _, p := range mayImport {
			if strings.HasPrefix(slashed, p) {
				return
			}
		}
		for _, imp := range f.Imports {
			if ip, _ := strconv.Unquote(imp.Path.Value); simOnly[ip] {
				t.Errorf("%s imports %s: the simulator depends on the engine, never the reverse", slashed, ip)
			}
		}
	})
}

// TestOneSAMRenderer holds the output face to one module: the strand and
// secondary flag bits are what a function must touch to build a SAM record
// for a hit, so exactly one non-test file — seqio's renderer — may name
// them. A second renderer cannot quietly reappear beside it.
func TestOneSAMRenderer(t *testing.T) {
	for name, files := range filesNaming(t, nil, "FlagReverse", "FlagSecondary") {
		if len(files) != 1 || files[0] != "internal/seqio/sam.go" {
			t.Errorf("seqio.%s is named in %v; only internal/seqio/sam.go may build SAM records", name, files)
		}
	}
}

// TestOneFrontDoor holds both align tiers, merserved and merrouted, to one
// front door: the queue's direct path and its overload error are what a
// serving core must touch to route a request and to answer a full queue
// with 429, and the batching report's mean, coalesced count and deadline
// refusals are what a tier must touch to report or export the door's
// accounting itself — so exactly one non-test file of the two packages may
// name them.
func TestOneFrontDoor(t *testing.T) {
	for name, files := range filesNaming(t, []string{"internal/service/", "internal/cluster/"},
		"Direct", "ErrOverloaded", "MeanBatchReads", "CoalescedBatches", "DeadlineRejected") {
		if len(files) != 1 || files[0] != "internal/service/front.go" {
			t.Errorf("%s is named in %v; only internal/service/front.go may serve, refuse or report an align request", name, files)
		}
	}
}

// filesNaming maps each name to the non-test files under dirs (every
// directory when dirs is nil) whose code names it.
func filesNaming(t *testing.T, dirs []string, names ...string) map[string][]string {
	t.Helper()
	users := map[string][]string{}
	for _, name := range names {
		users[name] = nil
	}
	eachSourceFile(t, parser.SkipObjectResolution, func(slashed string, f *ast.File) {
		if dirs != nil && !slices.ContainsFunc(dirs, func(d string) bool { return strings.HasPrefix(slashed, d) }) {
			return
		}
		seen := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !seen[id.Name] {
				if _, want := users[id.Name]; want {
					seen[id.Name] = true
					users[id.Name] = append(users[id.Name], slashed)
				}
			}
			return true
		})
	})
	return users
}

// TestE2EDriverIsBlackBox holds the real-binary driver to a binary's public
// surface: files under internal/e2e (all _test.go, behind the e2e tag) import
// only the standard library, the client package and internal/faultinject. A
// check there cannot reach a handler in-process; the in-package suites do
// that and stay where they are.
func TestE2EDriverIsBlackBox(t *testing.T) {
	const mod = "github.com/lbl-repro/meraligner"
	files, err := filepath.Glob("internal/e2e/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no driver files under internal/e2e (err %v)", err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			first, _, _ := strings.Cut(ip, "/")
			if strings.Contains(first, ".") && ip != mod+"/client" && ip != mod+"/internal/faultinject" {
				t.Errorf("%s imports %s: the e2e driver is black-box", filepath.ToSlash(path), ip)
			}
		}
	}
}

// eachSourceFile parses every non-test Go file of this module (bench/ is its
// own module) and hands it to fn under its slash-separated path.
func eachSourceFile(t *testing.T, mode parser.Mode, fn func(slashed string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
