package main

import (
	"sync"
	"time"
)

// openLoopOut is one open-loop phase.
type openLoopOut struct {
	lat  []time.Duration // per request, from its due time to its answer
	ok   []bool          // answered, and answered right
	late []time.Duration // how late the scheduler released each request
	wall time.Duration
}

// openLoop offers n requests at a fixed rate whatever the system does: one
// scheduler goroutine releases request i at start + i/rate and never waits
// for an answer. Released requests are carried by at most conns senders (the
// connections); when all are busy a request waits its turn, and that wait is
// part of its latency because the clock started when it was due. A stall
// therefore shows in every request that was due during it, not only in the
// one that hit it (no coordinated omission).
func openLoop(rate float64, n, conns int, do func(i int) bool) openLoopOut {
	out := openLoopOut{
		lat: make([]time.Duration, n), ok: make([]bool, n), late: make([]time.Duration, n),
	}
	type job struct {
		i   int
		due time.Time
	}
	// Sized to the number of sends: the scheduler must never block on a
	// slow system, or it would stop being an open loop.
	work := make(chan job, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				out.ok[j.i] = do(j.i)
				out.lat[j.i] = time.Since(j.due)
			}
		}()
	}
	// With every P held by an engine worker or the collector a sleeping
	// goroutine is released milliseconds late, and a late generator
	// understates every latency measured from a due time it did not keep:
	// out.late records how late each release was, for the caller to judge.
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due) - timerTick)
		now := time.Now()
		out.late[i] = max(now.Sub(due), 0)
		if now.Before(due) {
			due = now // released early: the request's clock starts when it really left
		}
		work <- job{i, due}
	}
	close(work)
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// timerTick is the resolution of a sleeping timer on the reference host (a
// 1000 Hz kernel tick): a sleep returns up to one tick after it was asked to.
// The scheduler therefore aims one tick ahead of each due time and releases
// on waking — up to a tick early, timed from the release, or late, timed from
// the due time. The rate is exact; arrivals jitter by less than a tick. The
// alternative, spinning out the last tick, would cost the two-CPU host a
// quarter of a CPU at 500 requests/s.
const timerTick = time.Millisecond

// goodput is the share of the requests sent that were answered right within
// the limit; a failure or a refusal misses it whenever it came back.
func (o openLoopOut) goodput(limit time.Duration) float64 {
	good := 0
	for i, ok := range o.ok {
		if ok && o.lat[i] <= limit {
			good++
		}
	}
	return float64(good) / float64(max(len(o.ok), 1))
}
