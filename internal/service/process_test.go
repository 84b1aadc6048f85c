package service

import (
	"flag"
	"log/slog"
	"testing"
	"time"
)

// TestProcessFlagsReachFront: the front-door flags of the shared block land
// in p.Front(), the block both binaries hand their tier's Config.
func TestProcessFlagsReachFront(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want FrontConfig
	}{
		{nil, FrontConfig{MaxBatch: 256}},
		{
			[]string{"-max-batch", "8", "-queue", "40", "-min-deadline", "30ms", "-slow-request-ms", "250"},
			FrontConfig{MaxBatch: 8, QueueReads: 40, MinDeadline: 30 * time.Millisecond, SlowRequest: 250 * time.Millisecond},
		},
	} {
		fs := flag.NewFlagSet("merserved", flag.ContinueOnError)
		pf := RegisterProcessFlags(fs, ":0")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		p := &Process{Logger: slog.New(slog.DiscardHandler), flags: pf}
		tc.want.Logger = p.Logger
		if got := p.Front(); got != tc.want {
			t.Errorf("%q: Front() = %+v, want %+v", tc.args, got, tc.want)
		}
	}
}
