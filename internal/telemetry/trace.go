package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// HeaderRequestID is the response (and accepted request) header carrying
// the request ID — the hex trace ID of the request's span context.
const HeaderRequestID = "X-Request-Id"

// headerTraceparent is the W3C trace-context header: 00-<32 hex trace
// id>-<16 hex parent span id>-<2 hex flags>.
const headerTraceparent = "traceparent"

// SpanContext identifies one request across process boundaries: a 128-bit
// trace ID shared by every tier the request touches and a 64-bit span ID
// naming the local hop.
type SpanContext struct {
	TraceID [16]byte
	SpanID  [8]byte
}

// NewSpanContext returns a span context with fresh random IDs.
func NewSpanContext() SpanContext {
	var sc SpanContext
	var b [24]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand is documented never to fail on supported
		// platforms; fall back to a timestamp so IDs stay non-zero.
		ns := time.Now().UnixNano()
		for i := 0; i < 8; i++ {
			b[i] = byte(ns >> (8 * i))
			b[8+i] = byte(ns >> (8 * i))
			b[16+i] = byte(ns >> (8 * i))
		}
	}
	copy(sc.TraceID[:], b[:16])
	copy(sc.SpanID[:], b[16:])
	return sc
}

// Valid reports whether the context carries a non-zero trace ID.
func (sc SpanContext) Valid() bool { return sc.TraceID != [16]byte{} }

// RequestID renders the trace ID as the 32-hex request ID echoed in
// X-Request-Id headers, logs, and error payloads.
func (sc SpanContext) RequestID() string { return hex.EncodeToString(sc.TraceID[:]) }

// Traceparent renders the W3C traceparent header value (version 00,
// sampled flag set).
func (sc SpanContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-01", hex.EncodeToString(sc.TraceID[:]), hex.EncodeToString(sc.SpanID[:]))
}

// ChildOf returns a context that keeps sc's trace ID but names a fresh
// local span, for propagating the trace across the next hop.
func (sc SpanContext) ChildOf() SpanContext {
	child := NewSpanContext()
	child.TraceID = sc.TraceID
	return child
}

// ParseTraceparent parses a W3C traceparent header value. It accepts any
// version byte and ignores the flags, returning ok=false on malformed
// input or an all-zero trace ID.
func ParseTraceparent(s string) (SpanContext, bool) {
	var sc SpanContext
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return sc, false
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(parts[1])); err != nil {
		return sc, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(parts[2])); err != nil {
		return sc, false
	}
	return sc, sc.Valid()
}

// Extract returns the span context carried by incoming request headers:
// the traceparent header when present, else an X-Request-Id holding 32
// hex digits (with a fresh local span ID), else a brand-new context. The
// second return reports whether the caller supplied the trace.
func Extract(h http.Header) (SpanContext, bool) {
	if sc, ok := ParseTraceparent(h.Get(headerTraceparent)); ok {
		return sc.ChildOf(), true
	}
	if id := strings.TrimSpace(h.Get(HeaderRequestID)); len(id) == 32 {
		var sc SpanContext
		if _, err := hex.Decode(sc.TraceID[:], []byte(id)); err == nil && sc.Valid() {
			return sc.ChildOf(), true
		}
	}
	return NewSpanContext(), false
}

// Inject writes the context's span context (an explicit WithSpanContext
// value, else the ambient trace's) into outgoing request headers as
// traceparent + X-Request-Id. A context with no trace writes nothing.
func Inject(ctx context.Context, h http.Header) {
	sc, ok := SpanContextFrom(ctx)
	if !ok {
		return
	}
	h.Set(headerTraceparent, sc.Traceparent())
	h.Set(HeaderRequestID, sc.RequestID())
}

type ctxKey int

const (
	traceKey ctxKey = iota
	spanCtxKey
)

// WithTrace attaches an in-flight trace recorder to the context.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey, tr)
}

// TraceFrom returns the trace recorder attached by WithTrace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey).(*Trace)
	return tr
}

// WithSpanContext attaches a bare span context for outbound propagation,
// overriding any ambient trace. Batchers use this to stamp a coalesced
// carrier trace onto the scatter RPC.
func WithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey, sc)
}

// SpanContextFrom returns the effective outbound span context: an
// explicit WithSpanContext value first, else the ambient trace's.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	if sc, ok := ctx.Value(spanCtxKey).(SpanContext); ok && sc.Valid() {
		return sc, true
	}
	if tr := TraceFrom(ctx); tr != nil {
		return tr.SpanContext(), true
	}
	return SpanContext{}, false
}

// maxSpans bounds one trace's span list so a pathological stream request
// cannot grow memory without bound; further spans are counted, not kept.
const maxSpans = 64

// Span is one recorded stage of a request: where time went, and on
// whose behalf. Offsets are microseconds relative to the request start.
type Span struct {
	Stage       string `json:"stage"`
	StartUs     int64  `json:"start_us"`
	DurationUs  int64  `json:"duration_us"`
	Shard       string `json:"shard,omitempty"`        // shard ID, RPC spans only
	Replica     string `json:"replica,omitempty"`      // replica index within the shard, RPC spans only
	Addr        string `json:"addr,omitempty"`         // shard address, RPC spans only
	Retries     int    `json:"retries,omitempty"`      // attempts before this one in its RPC
	Hedged      bool   `json:"hedged,omitempty"`       // this attempt started early, as a hedge
	Requests    int    `json:"requests,omitempty"`     // member requests in a coalesced call
	Reads       int    `json:"reads,omitempty"`        // reads carried by this stage
	SWCalls     int64  `json:"sw_calls,omitempty"`     // Smith-Waterman invocations (engine spans)
	SeedLookups int64  `json:"seed_lookups,omitempty"` // seed-table probes (engine spans)
	Link        string `json:"link,omitempty"`         // downstream trace ID propagated on this hop
	Status      string `json:"status,omitempty"`
	Error       string `json:"error,omitempty"`
}

// RequestTrace is the completed-request record kept in the debug ring
// and logged for slow requests.
type RequestTrace struct {
	RequestID    string    `json:"request_id"`
	Traceparent  string    `json:"traceparent"`
	Path         string    `json:"path"`
	Ref          string    `json:"ref,omitempty"`
	Start        time.Time `json:"start"`
	DurationUs   int64     `json:"duration_us"`
	Status       int       `json:"status"`
	Reads        int       `json:"reads"`
	DroppedSpans int       `json:"dropped_spans,omitempty"`
	Spans        []Span    `json:"spans"`
}

// SpanSummary renders a compact one-line view of the spans for text
// logs: "admission=0.2ms batch_wait=1.1ms rpc[shard=0]=3.4ms ...".
func (rt RequestTrace) SpanSummary() string {
	var b strings.Builder
	for i, s := range rt.Spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.Stage)
		if s.Shard != "" {
			fmt.Fprintf(&b, "[shard=%s]", s.Shard)
		}
		fmt.Fprintf(&b, "=%.1fms", float64(s.DurationUs)/1e3)
		if s.Retries > 0 {
			fmt.Fprintf(&b, "(retries=%d)", s.Retries)
		}
	}
	return b.String()
}

// Trace accumulates the spans of one in-flight request. It is safe for
// concurrent use: scatter goroutines may add RPC spans while the
// request goroutine records render.
type Trace struct {
	sc    SpanContext
	start time.Time

	mu      sync.Mutex
	path    string
	ref     string
	reads   int
	dropped int
	spans   []Span
}

// NewTrace starts recording a request that arrived now with the given
// span context.
func NewTrace(sc SpanContext, path string) *Trace {
	return &Trace{sc: sc, start: time.Now(), path: path}
}

// SpanContext returns the trace's identity.
func (t *Trace) SpanContext() SpanContext { return t.sc }

// RequestID returns the hex trace ID.
func (t *Trace) RequestID() string { return t.sc.RequestID() }

// Start returns when the request began.
func (t *Trace) Start() time.Time { return t.start }

// SetRef records which reference the request targeted.
func (t *Trace) SetRef(ref string) {
	t.mu.Lock()
	t.ref = ref
	t.mu.Unlock()
}

// AddReads accumulates the request's accepted read count.
func (t *Trace) AddReads(n int) {
	t.mu.Lock()
	t.reads += n
	t.mu.Unlock()
}

// Add records one span. start/d are absolute; they are stored as offsets
// from the request start. fill, when non-nil, decorates the span with
// stage-specific fields before it is stored. Spans beyond the cap are
// counted as dropped instead of stored.
func (t *Trace) Add(stage string, start time.Time, d time.Duration, fill func(*Span)) {
	s := Span{
		Stage:      stage,
		StartUs:    max64(start.Sub(t.start).Microseconds(), 0),
		DurationUs: max64(d.Microseconds(), 0),
	}
	if fill != nil {
		fill(&s)
	}
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// Finish seals the trace into a RequestTrace with the given HTTP status
// and the wall time elapsed since the request began.
func (t *Trace) Finish(status int) RequestTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	return RequestTrace{
		RequestID:    t.sc.RequestID(),
		Traceparent:  t.sc.Traceparent(),
		Path:         t.path,
		Ref:          t.ref,
		Start:        t.start,
		DurationUs:   max64(time.Since(t.start).Microseconds(), 0),
		Status:       status,
		Reads:        t.reads,
		DroppedSpans: t.dropped,
		Spans:        spans,
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
