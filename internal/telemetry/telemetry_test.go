package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// ---- span context / traceparent ----

func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewSpanContext()
	if !sc.Valid() {
		t.Fatal("fresh span context invalid")
	}
	tp := sc.Traceparent()
	if !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent shape: %q", tp)
	}
	got, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed", tp)
	}
	if got.TraceID != sc.TraceID || got.SpanID != sc.SpanID {
		t.Fatalf("round trip mismatch: %v vs %v", got, sc)
	}
	if len(sc.RequestID()) != 32 {
		t.Fatalf("request id %q not 32 hex", sc.RequestID())
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"00-short-deadbeefdeadbeef-01",
		"00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-deadbeefdeadbeef-01",
		"00-00000000000000000000000000000000-deadbeefdeadbeef-01", // all-zero trace id
		"not a traceparent",
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

func TestExtractPrecedence(t *testing.T) {
	sc := NewSpanContext()

	h := http.Header{}
	h.Set("traceparent", sc.Traceparent())
	got, supplied := Extract(h)
	if !supplied || got.TraceID != sc.TraceID {
		t.Fatalf("traceparent not honored: %v supplied=%v", got, supplied)
	}
	if got.SpanID == sc.SpanID {
		t.Fatal("Extract must mint a fresh local span id")
	}

	h = http.Header{}
	h.Set(HeaderRequestID, sc.RequestID())
	got, supplied = Extract(h)
	if !supplied || got.TraceID != sc.TraceID {
		t.Fatalf("X-Request-Id fallback not honored: %v supplied=%v", got, supplied)
	}

	got, supplied = Extract(http.Header{})
	if supplied || !got.Valid() {
		t.Fatalf("bare request should mint a fresh context: %v supplied=%v", got, supplied)
	}
}

func TestInjectPrecedence(t *testing.T) {
	tr := NewTrace(NewSpanContext(), "/v1/align")
	ctx := WithTrace(context.Background(), tr)

	h := http.Header{}
	Inject(ctx, h)
	if h.Get(HeaderRequestID) != tr.RequestID() {
		t.Fatalf("ambient trace not injected: %q", h.Get(HeaderRequestID))
	}

	carrier := NewSpanContext()
	h = http.Header{}
	Inject(WithSpanContext(ctx, carrier), h)
	if h.Get(HeaderRequestID) != carrier.RequestID() {
		t.Fatal("explicit span context must override the ambient trace")
	}

	h = http.Header{}
	Inject(context.Background(), h)
	if len(h) != 0 {
		t.Fatalf("traceless context wrote headers: %v", h)
	}
}

// ---- trace recording ----

func TestTraceSpansAndFinish(t *testing.T) {
	tr := NewTrace(NewSpanContext(), "/v1/align")
	tr.SetRef("alpha")
	tr.AddReads(7)
	tr.Add("admission", tr.Start(), 250*time.Microsecond, func(s *Span) { s.Reads = 7 })
	tr.Add("rpc", tr.Start().Add(time.Millisecond), 2*time.Millisecond, func(s *Span) {
		s.Shard, s.Retries, s.Status = "2", 1, "ok"
	})
	rt := tr.Finish(200)
	if rt.RequestID != tr.RequestID() || rt.Path != "/v1/align" || rt.Ref != "alpha" || rt.Reads != 7 || rt.Status != 200 {
		t.Fatalf("finish lost fields: %+v", rt)
	}
	if len(rt.Spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(rt.Spans))
	}
	if rt.Spans[1].StartUs < 1000 || rt.Spans[1].DurationUs != 2000 || rt.Spans[1].Shard != "2" || rt.Spans[1].Retries != 1 {
		t.Fatalf("rpc span mangled: %+v", rt.Spans[1])
	}
	sum := rt.SpanSummary()
	if !strings.Contains(sum, "admission=") || !strings.Contains(sum, "rpc[shard=2]=") || !strings.Contains(sum, "(retries=1)") {
		t.Fatalf("span summary: %q", sum)
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace(NewSpanContext(), "/v1/align")
	for i := 0; i < maxSpans+10; i++ {
		tr.Add("chunk", tr.Start(), time.Microsecond, nil)
	}
	rt := tr.Finish(200)
	if len(rt.Spans) != maxSpans || rt.DroppedSpans != 10 {
		t.Fatalf("cap broken: %d spans, %d dropped", len(rt.Spans), rt.DroppedSpans)
	}
}

// ---- ring ----

func TestRingEvictionAndOrder(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 7; i++ {
		r.Add(RequestTrace{RequestID: fmt.Sprintf("req-%d", i)})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("want 4 retained, got %d", len(snap))
	}
	for i, want := range []string{"req-6", "req-5", "req-4", "req-3"} {
		if snap[i].RequestID != want {
			t.Fatalf("snapshot[%d] = %s, want %s (newest first)", i, snap[i].RequestID, want)
		}
	}
}

func TestRingServeHTTP(t *testing.T) {
	r := NewRing(8)
	r.Add(RequestTrace{RequestID: "abc", Status: 200, Spans: []Span{{Stage: "engine"}}})
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	var body struct {
		Total    int64          `json:"total"`
		Requests []RequestTrace `json:"requests"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if body.Total != 1 || len(body.Requests) != 1 || body.Requests[0].Spans[0].Stage != "engine" {
		t.Fatalf("body: %+v", body)
	}
}

// ---- histogram ----

func TestHistQuantiles(t *testing.T) {
	var h Hist
	for i := 1; i <= 1000; i++ {
		h.Observe(int64(i) * 1000) // 1µs .. 1ms
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("quantiles disordered: p50=%g p99=%g", p50, p99)
	}
	// log2 buckets: p50 must land within a factor-of-2 of the true median.
	if p50 < 250e3 || p50 > 1.5e6 {
		t.Fatalf("p50=%gns implausible for a 1µs..1ms uniform ramp", p50)
	}
}

func TestHistPrometheusSeries(t *testing.T) {
	var h Hist
	h.Observe(2048)    // 2^11: above le=2.048e-06 (2^11 ns), inside le=4.096e-06
	h.Observe(1 << 20) // ~1ms
	h.Observe(1 << 20)

	var b bytes.Buffer
	NewExposition(&b).Histogram("x_duration_seconds", "test").Hist(h.Snapshot(), "ref", "alpha")
	out := b.String()

	if !strings.Contains(out, "# TYPE x_duration_seconds histogram\n") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	for _, want := range []string{
		`x_duration_seconds_bucket{ref="alpha",le="1.024e-06"} 0`,
		`x_duration_seconds_bucket{ref="alpha",le="4.096e-06"} 1`,
		`x_duration_seconds_bucket{ref="alpha",le="+Inf"} 3`,
		`x_duration_seconds_count{ref="alpha"} 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Cumulative counts must be monotone.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "x_duration_seconds_bucket") {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("non-monotone buckets at %q", line)
		}
		last = n
	}
	// _sum is in seconds.
	wantSum := float64(2048+2*(1<<20)) / 1e9
	var gotSum float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `x_duration_seconds_sum{ref="alpha"}`) {
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &gotSum)
		}
	}
	if gotSum < wantSum*0.999 || gotSum > wantSum*1.001 {
		t.Fatalf("sum=%g want %g", gotSum, wantSum)
	}

	// Unlabeled series render without braces on _sum/_count.
	b.Reset()
	NewExposition(&b).Histogram("y", "test").Hist(h.Snapshot())
	if !strings.Contains(b.String(), "y_bucket{le=\"+Inf\"} 3\n") || !strings.Contains(b.String(), "y_count 3\n") {
		t.Fatalf("unlabeled series:\n%s", b.String())
	}
}

// ---- exposition writer ----

func TestExpositionFamiliesAndLabels(t *testing.T) {
	var b bytes.Buffer
	m := NewExposition(&b)
	m.Counter("x_total", "things counted").Int(7).Int(9, "ref", "alpha")
	m.Gauge("x_bytes", "a size").Float(1234567, "shard", "0", "addr", `http://h:1/"q"`)
	m.Gauge("x_up", "a flag").Bool(true).Bool(false, "shard", "1")
	m.Summary("x_seconds", "quantiles").Float(0.25, "quantile", "0.5")
	want := `# HELP x_total things counted
# TYPE x_total counter
x_total 7
x_total{ref="alpha"} 9
# HELP x_bytes a size
# TYPE x_bytes gauge
x_bytes{shard="0",addr="http://h:1/\"q\""} 1.234567e+06
# HELP x_up a flag
# TYPE x_up gauge
x_up 1
x_up{shard="1"} 0
# HELP x_seconds quantiles
# TYPE x_seconds summary
x_seconds{quantile="0.5"} 0.25
`
	if got := b.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// ---- runtime metrics ----

func TestWriteRuntimeMetrics(t *testing.T) {
	var b bytes.Buffer
	NewExposition(&b).Runtime("merserved")
	out := b.String()
	for _, want := range []string{
		"merserved_go_goroutines ",
		"merserved_go_heap_alloc_bytes ",
		"merserved_go_gc_pause_seconds_total ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// ---- logging ----

func TestPlainHandlerShape(t *testing.T) {
	var b bytes.Buffer
	l, err := NewLogger(&b, "merserved: ", "text", "debug")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("listening on 127.0.0.1:9000")
	l.Warn("slow request", "request_id", "abc", "spans", "engine=1.0ms")
	l.Debug("request", "status", 200)
	l.With("ref", "alpha").Info("swapped")
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	want := []string{
		"merserved: listening on 127.0.0.1:9000",
		`merserved: warn: slow request request_id=abc spans="engine=1.0ms"`,
		"merserved: debug: request status=200",
		"merserved: swapped ref=alpha",
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d:\n got %q\nwant %q", i, lines[i], want[i])
		}
	}
}

func TestLoggerLevelGate(t *testing.T) {
	var b bytes.Buffer
	l, err := NewLogger(&b, "x: ", "text", "warn")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hidden")
	l.Warn("shown")
	if strings.Contains(b.String(), "hidden") || !strings.Contains(b.String(), "shown") {
		t.Fatalf("level gate broken: %q", b.String())
	}
	if _, err := NewLogger(&b, "x: ", "text", "loud"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger(&b, "x: ", "xml", "info"); err == nil {
		t.Fatal("bad format accepted")
	}
}

func TestJSONLogger(t *testing.T) {
	var b bytes.Buffer
	l, err := NewLogger(&b, "merrouted: ", "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("request", "request_id", "abc123", "status", 200)
	var rec map[string]any
	if err := json.Unmarshal(b.Bytes(), &rec); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, b.String())
	}
	if rec["msg"] != "request" || rec["request_id"] != "abc123" || rec["logger"] != "merrouted" {
		t.Fatalf("record: %v", rec)
	}
}

func TestCaptureStdLog(t *testing.T) {
	var b bytes.Buffer
	l, err := NewLogger(&b, "mergen: ", "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	defer log.SetOutput(io.Discard)
	CaptureStdLog(l)
	log.Printf("wrote %d reads", 42)
	if got := b.String(); got != "mergen: wrote 42 reads\n" {
		t.Fatalf("bridge output: %q", got)
	}
}
