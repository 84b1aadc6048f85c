package main

import (
	"testing"
	"time"
)

// A handler that stalls once must delay every request that was due during
// the stall. A closed loop — or an open loop that times from the send —
// would show one slow request and hide the rest (coordinated omission).
func TestOpenLoopCountsTheQueueBehindAStall(t *testing.T) {
	const (
		rate  = 1000.0
		n     = 400
		stall = 200 * time.Millisecond
		at    = 50 // the request that stalls
	)
	out := openLoop(rate, n, 1, func(i int) bool {
		if i == at {
			time.Sleep(stall)
		}
		return true
	})
	before := percentile(ms(out.lat[:at]), 0.99)
	after := ms(out.lat[at+1:])
	delayed := 0
	for _, l := range after {
		if l > 50 {
			delayed++
		}
	}
	// 200 requests fall due during a 200 ms stall at 1000/s; the queue then
	// drains. Well over a hundred later requests must have waited > 50 ms.
	if delayed < 100 {
		t.Errorf("only %d requests after the stall waited > 50 ms; the stall's queue was not counted", delayed)
	}
	if p99 := percentile(after, 0.99); p99 < 100 || p99 < 10*before {
		t.Errorf("p99 of later requests %.1f ms (before the stall %.2f ms): the stall did not raise it", p99, before)
	}
	if len(out.late) != n || out.wall < time.Duration(n-2)*time.Millisecond {
		t.Errorf("scheduler ran %v for %d requests at %v/s", out.wall, n, rate)
	}
	if g := out.goodput(20 * time.Millisecond); g > 0.6 {
		t.Errorf("goodput %.2f within 20 ms despite a 200 ms stall", g)
	}
}
