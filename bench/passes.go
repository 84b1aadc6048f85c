package main

import (
	"fmt"
	"math"
	"time"
)

// passOut is one pass over a workload's fixed read set.
type passOut struct {
	ok, failed int             // reads answered, reads failed or refused
	lat        []time.Duration // one per unit of work (chunk or request)
	wall       time.Duration
}

// repeatPasses is the closed-loop timed section: the fixed read set again and
// again until d has passed, at least minPasses times. Every pass does the
// same work, so its reads/s is one sample; the reported value is the median
// pass and all of them are kept. Latencies are kept pass by pass.
//
// In the traced run passes alternate untraced/traced, which puts both kinds
// under the same conditions; the end-to-end values still come from the
// untraced ones and the gap between the two is the tracing overhead.
func repeatPasses(e *env, d time.Duration, pass func(traced bool) (passOut, error)) (passStats, error) {
	const minPasses = 3
	var st passStats
	var rps, tracedRps []float64
	start := time.Now()
	for i := 0; time.Since(start) < d || len(rps) < minPasses || (e.tr != nil && len(tracedRps) < 2); i++ {
		traced := e.tr != nil && i%2 == 1
		out, err := pass(traced)
		if err != nil {
			return st, err
		}
		e.attempted += out.ok + out.failed
		e.failed += out.failed
		if out.ok == 0 {
			return st, fmt.Errorf("pass %d answered no read", i)
		}
		r := float64(out.ok) / out.wall.Seconds()
		if traced {
			tracedRps = append(tracedRps, r)
			st.tracedWall += out.wall
			continue
		}
		rps = append(rps, r)
		st.lat = append(st.lat, ms(out.lat))
	}
	e.setMedian("reads_per_s", rps)
	e.counts["passes"] = len(rps)
	st.traced = len(tracedRps)
	if e.tr != nil {
		e.set("bench.trace_overhead_frac", 1-median(tracedRps)/median(rps))
	}
	return st, nil
}

// passStats is what repeatPasses hands back besides the metrics it records.
type passStats struct {
	lat        [][]float64   // ms, one slice per untraced pass
	traced     int           // traced passes run
	tracedWall time.Duration // and their summed wall time
}

// setLatency records the median and the tail of a run's latency samples
// under lat_p50_ms<suffix> etc., with the sample count beside them.
//
// A percentile is taken group by group — consecutive passes, merged until a
// group holds enough samples that the nearest rank is not its maximum — and
// the reported value is the median group. A burst of interference from the
// shared host lifts the tail of the passes it hits and of no others, so it
// moves a percentile pooled over the run but not the median of the groups.
func setLatency(e *env, suffix string, passes [][]float64) {
	n := 0
	for _, p := range passes {
		n += len(p)
	}
	e.counts["lat_samples"+suffix] = n
	for _, q := range []struct {
		name string
		p    float64
	}{{"lat_p50_ms", 0.50}, {"lat_p95_ms", 0.95}, {"lat_p99_ms", 0.99}} {
		e.setMedian(q.name+suffix, groupPercentiles(passes, q.p))
	}
}

// groupPercentiles merges consecutive passes into groups of at least
// 1/(1-p) samples (20 for p95, 100 for p99) and returns each group's
// nearest-rank p-quantile. Passes left over at the end join the last group;
// a run with fewer samples than one group needs is one group.
func groupPercentiles(passes [][]float64, p float64) []float64 {
	need := int(math.Ceil(1 / (1 - p)))
	var groups [][]float64
	var cur []float64
	for _, pass := range passes {
		cur = append(cur, pass...)
		if len(cur) >= need {
			groups, cur = append(groups, cur), nil
		}
	}
	if len(groups) == 0 {
		groups = append(groups, nil)
	}
	last := len(groups) - 1
	groups[last] = append(groups[last], cur...)
	out := make([]float64, len(groups))
	for i, g := range groups {
		out[i] = percentile(g, p)
	}
	return out
}
