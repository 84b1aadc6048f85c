package main

import (
	"strings"
	"testing"
)

// TestParseBytes: -resident-budget accepts byte sizes and refuses anything
// that is not a finite size an int64 can hold, instead of running with a
// garbage (unlimited) budget.
func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"2GiB", 2147483648, true},
		{"1.5k", 1536, true},
		{"NaN", 0, false},
		{"Inf", 0, false},
		{"+Inf", 0, false},
		{"1e30", 0, false},
		{"9999999T", 0, false},
		{"0x10", 0, false},
	} {
		got, err := parseBytes(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "not a byte size")) {
			t.Errorf("parseBytes(%q) = %d, %v; want a \"not a byte size\" error", tc.in, got, err)
		}
	}
}
