package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/lbl-repro/meraligner/internal/align"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// The traced run records spans from outside the program: around the calls
// into each layer and around the two seams the engine exposes. One span per
// (request or AlignWorkers call, layer), carrying summed busy time and
// counts — never one per Smith-Waterman call or per seed.

// span is one layer's share of one request (or one engine call).
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // 0 for a root
	RequestID int    `json:"request_id"`
	Name      string `json:"name"`
	StartNs   int64  `json:"start_ns"` // since the tracer was made
	EndNs     int64  `json:"end_ns"`
	// BusyNs is the worker time the layer took inside [start, end]: wall x
	// workers for a step the result waits for (a parallel engine call, or a
	// serial render that leaves the other workers idle), the summed call
	// durations for what runs inside one (Smith-Waterman, seed resolution).
	// A layer's self time is its BusyNs minus its children's, so the self
	// times of a trace sum to the wall x workers of its units of work.
	BusyNs int64 `json:"busy_ns"`
	Count  int64 `json:"count,omitempty"` // reads, SW calls or seeds, by layer
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// byWireID finds the client's span of a request from the X-Request-Id
	// it was sent with, which is how a server's own trace of it is matched.
	byWireID map[string]int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), byWireID: map[string]int{}} }

// add records one finished span and returns its id, for children to name.
func (t *tracer) add(parent, request int, name string, start, end time.Time, busy time.Duration, count int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, RequestID: request, Name: name,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0)),
		BusyNs: int64(busy), Count: count,
	})
	return id
}

// addRequest records the client's span of one wire request.
func (t *tracer) addRequest(wireID string, request int, start, end time.Time, reads int) {
	id := t.add(0, request, "client.request", start, end, end.Sub(start), int64(reads))
	t.mu.Lock()
	t.byWireID[wireID] = id
	t.mu.Unlock()
}

// attachServerSpans hangs the stages a server recorded for a request
// (telemetry.Ring: admission, batch_wait, engine or rpc, render) under the
// client's span of the same request. What is left as client.request's self
// time is what no server stage covers: HTTP, the loopback, JSON both ways.
// A router sends one rpc per shard in parallel and waits for all of them, so
// only the longest is charged.
func (t *tracer) attachServerSpans(prefix string, traces []telemetry.RequestTrace) {
	for _, rt := range traces {
		t.mu.Lock()
		parent, ok := t.byWireID[rt.RequestID]
		var p span
		if ok {
			p = t.spans[parent-1]
		}
		t.mu.Unlock()
		if !ok {
			continue
		}
		var rpc *telemetry.Span
		for i, sp := range rt.Spans {
			if sp.Stage == "rpc" {
				if rpc == nil || sp.DurationUs > rpc.DurationUs {
					rpc = &rt.Spans[i]
				}
				continue
			}
			t.addStage(p, prefix, sp)
		}
		if rpc != nil {
			t.addStage(p, prefix, *rpc)
		}
	}
}

func (t *tracer) addStage(parent span, prefix string, sp telemetry.Span) {
	start := t.t0.Add(time.Duration(parent.StartNs) + time.Duration(sp.StartUs)*time.Microsecond)
	d := time.Duration(sp.DurationUs) * time.Microsecond
	t.add(parent.ID, parent.RequestID, prefix+sp.Stage, start, start.Add(d), d, int64(sp.Reads))
}

// selfTimes sums each layer's self time over the whole trace: a span's busy
// time minus the busy time of the spans it caused.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.BusyNs
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.BusyNs - child[s.ID])
	}
	return out
}

// accounted is the share of the traced units of work (bench.unit spans)
// that some layer below them accounts for.
func (t *tracer) accounted() (frac float64, ok bool) {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for _, s := range t.spans {
		if s.Name == "bench.unit" {
			total += s.BusyNs
		}
	}
	if total == 0 {
		return 0, false
	}
	return 1 - float64(self["bench.unit"])/float64(total), true
}

func (t *tracer) write(path, workload string, workers int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeJSON(path, struct {
		Workload string `json:"workload"`
		Workers  int    `json:"workers"`
		Spans    []span `json:"spans"`
	}{workload, workers, t.spans})
}

// swMeter wraps the QueryOptions.Extend seam around align.ExtendSeed. With
// CollectAlignments set (every workload renders SAM) the engine calls
// ExtendSeed itself, so the wrapped path does the same work plus two clock
// reads and three atomic adds per call.
type swMeter struct {
	calls, cells, ns atomic.Int64
}

func (m *swMeter) extend(query, target []byte, qOff, tOff, k int, sc align.Scoring, pad int) align.Result {
	t0 := time.Now()
	r := align.ExtendSeed(query, target, qOff, tOff, k, sc, pad)
	m.ns.Add(int64(time.Since(t0)))
	m.calls.Add(1)
	// The window ExtendSeed searches, as the engine's own cell counter has it.
	lo := max(tOff-qOff-pad, 0)
	hi := min(tOff+(len(query)-qOff)+pad, len(target))
	m.cells.Add(align.Cells(len(query), max(hi-lo, 0)))
	return r
}

// swSample is a reading of the meter; the difference of two is one call's.
type swSample struct{ calls, cells, ns int64 }

func (m *swMeter) sample() swSample {
	return swSample{m.calls.Load(), m.cells.Load(), m.ns.Load()}
}
