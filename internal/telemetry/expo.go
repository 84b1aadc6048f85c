package telemetry

import (
	"fmt"
	"io"
	"runtime"
	"strings"
)

// Exposition writes the Prometheus text format for every /metrics endpoint
// in the repo: a family's # HELP / # TYPE preamble once per name, then its
// samples, with label rendering in one place. There is no registry — each
// server walks its own counters at scrape time and calls this writer.
// Write errors are not reported: the only sink is an HTTP response whose
// status line is already gone.
type Exposition struct {
	w    io.Writer
	name string // family the next samples belong to
}

// NewExposition starts an exposition on w.
func NewExposition(w io.Writer) *Exposition { return &Exposition{w: w} }

func (e *Exposition) family(name, help, typ string) *Exposition {
	fmt.Fprintf(e.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	e.name = name
	return e
}

// Counter starts a counter family.
func (e *Exposition) Counter(name, help string) *Exposition { return e.family(name, help, "counter") }

// Gauge starts a gauge family.
func (e *Exposition) Gauge(name, help string) *Exposition { return e.family(name, help, "gauge") }

// Histogram starts a native cumulative histogram family; add its series
// with Hist.
func (e *Exposition) Histogram(name, help string) *Exposition {
	return e.family(name, help, "histogram")
}

// labelSet renders name, value pairs as {name="value",...}; no pairs
// renders nothing.
func labelSet(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", pairs[i], pairs[i+1])
	}
	return "{" + b.String() + "}"
}

// Int writes one integer sample of the current family; labels are name,
// value pairs.
func (e *Exposition) Int(v int64, labels ...string) *Exposition {
	fmt.Fprintf(e.w, "%s%s %d\n", e.name, labelSet(labels), v)
	return e
}

// Float writes one floating-point sample of the current family.
func (e *Exposition) Float(v float64, labels ...string) *Exposition {
	fmt.Fprintf(e.w, "%s%s %g\n", e.name, labelSet(labels), v)
	return e
}

// Bool writes a 0/1 sample of the current family.
func (e *Exposition) Bool(v bool, labels ...string) *Exposition {
	if v {
		return e.Int(1, labels...)
	}
	return e.Int(0, labels...)
}

// Hist writes the cumulative _bucket{le="..."}, _sum and _count lines of
// one series of the current histogram family, in seconds; the le pair is
// appended to labels.
func (e *Exposition) Hist(s HistSnapshot, labels ...string) *Exposition {
	pairs := append(append([]string{}, labels...), "le", "")
	bucket := func(le string, cum int64) {
		pairs[len(pairs)-1] = le
		fmt.Fprintf(e.w, "%s_bucket%s %d\n", e.name, labelSet(pairs), cum)
	}
	var cum int64
	next := 0
	for exp := promMinExp; exp <= promMaxExp; exp++ {
		// Observations < 2^exp ns occupy buckets [0, exp); le is 2^exp ns
		// in seconds.
		for ; next < exp && next < histBuckets; next++ {
			cum += s.Buckets[next]
		}
		bucket(fmt.Sprintf("%g", float64(int64(1)<<exp)/1e9), cum)
	}
	bucket("+Inf", s.Count)
	fmt.Fprintf(e.w, "%s_sum%s %g\n", e.name, labelSet(labels), float64(s.Sum)/1e9)
	fmt.Fprintf(e.w, "%s_count%s %d\n", e.name, labelSet(labels), s.Count)
	return e
}

// Runtime appends the Go runtime series under the given metric prefix (for
// example "merserved" emits merserved_go_goroutines and friends). It calls
// runtime.ReadMemStats, which briefly stops the world — fine at scrape
// frequency, never on a request path.
func (e *Exposition) Runtime(prefix string) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.Gauge(prefix+"_go_goroutines", "goroutines currently live").Float(float64(runtime.NumGoroutine()))
	e.Gauge(prefix+"_go_heap_alloc_bytes", "heap bytes allocated and still in use").Float(float64(ms.HeapAlloc))
	e.Gauge(prefix+"_go_heap_sys_bytes", "heap bytes obtained from the OS").Float(float64(ms.HeapSys))
	e.Gauge(prefix+"_go_next_gc_bytes", "heap size that triggers the next GC cycle").Float(float64(ms.NextGC))
	e.Counter(prefix+"_go_gc_cycles_total", "completed GC cycles").Float(float64(ms.NumGC))
	e.Counter(prefix+"_go_gc_pause_seconds_total", "cumulative stop-the-world pause time").Float(float64(ms.PauseTotalNs) / 1e9)
	e.Counter(prefix+"_go_alloc_bytes_total", "cumulative bytes allocated").Float(float64(ms.TotalAlloc))
}
