//go:build e2e

package e2e

import (
	"bytes"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// usageFlag matches one flag of a -h listing: "  -name" at a line start,
// followed by its type and usage (on the next line, or after a tab for a
// bool).
var usageFlag = regexp.MustCompile(`(?m)^  -(\S+)`)

// TestFlagSurface pins each binary's flag names to testdata/flags/<bin>.txt,
// one per line, sorted: a flag added, renamed or removed shows up in review
// as an edit to that file.
func TestFlagSurface(t *testing.T) {
	for _, bin := range []string{"meraligner", "merbench", "mergen", "merrouted", "merserved", "seqdb"} {
		out, _ := run(bin, "-h") // the usage is the point, whatever the exit status
		var names []string
		for _, m := range usageFlag.FindAllStringSubmatch(out, -1) {
			names = append(names, m[1])
		}
		slices.Sort(names)
		got := []byte(strings.Join(names, "\n") + "\n")
		if want := readFile(t, filepath.Join("testdata", "flags", bin+".txt")); !bytes.Equal(got, want) {
			t.Errorf("%s -h lists the flags\n%s\nwant (testdata/flags/%s.txt)\n%s", bin, got, bin, want)
		}
	}
}
