package service

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// Lifecycle is the request lifecycle the three HTTP tiers share — the align
// server (Server), the seed-shard node (SeedShardServer) and the
// scatter/gather router (cluster.Router): the draining gate their Drain
// waits on, the liveness/readiness answers, and the traced-request
// middleware feeding the /debug/requests ring and the request log.
type Lifecycle struct {
	// Logger is the server's structured logger, never nil.
	Logger *slog.Logger

	ring *telemetry.Ring
	slow time.Duration

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when inflight reaches zero
	inflight int
	draining bool
}

// NewLifecycle builds a tier's lifecycle: logger nil discards, slowRequest
// > 0 logs the full span trace of slower requests at warn, traceCapacity
// <= 0 means telemetry.DefaultRingCapacity.
func NewLifecycle(logger *slog.Logger, slowRequest time.Duration, traceCapacity int) *Lifecycle {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	l := &Lifecycle{Logger: logger, ring: telemetry.NewRing(traceCapacity), slow: slowRequest}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// TraceRing exposes the ring of completed request traces, for mounting at
// /debug/requests on a private debug listener (telemetry.NewDebugMux) and
// for tests.
func (l *Lifecycle) TraceRing() *telemetry.Ring { return l.ring }

// Draining reports whether StartDrain has run.
func (l *Lifecycle) Draining() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.draining
}

// StartDrain closes the gate: Enter refuses from now on and the probes
// answer 503. Idempotent.
func (l *Lifecycle) StartDrain() {
	l.mu.Lock()
	l.draining = true
	l.mu.Unlock()
}

// Enter admits one request unless draining. The check and the in-flight
// increment are one critical section, so a request can never pass the check
// after WaitIdle has already seen the gate empty — the caller of Drain may
// unmap what requests read the moment it returns.
func (l *Lifecycle) Enter() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.draining {
		return false
	}
	l.inflight++
	return true
}

// Exit retires one admitted request.
func (l *Lifecycle) Exit() {
	l.mu.Lock()
	l.inflight--
	if l.inflight == 0 {
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// WaitIdle blocks until every admitted request has exited, or ctx expires.
// Call after StartDrain.
func (l *Lifecycle) WaitIdle(ctx context.Context) error {
	idle := make(chan struct{})
	go func() {
		l.mu.Lock()
		for l.inflight > 0 {
			l.cond.Wait()
		}
		l.mu.Unlock()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Gated wraps an align handler in the gate: 503 draining once StartDrain
// has run, otherwise the request counts as in flight until h returns.
func (l *Lifecycle) Gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !l.Enter() {
			WriteError(w, r, http.StatusServiceUnavailable, &client.ErrorResponse{Error: "draining"})
			return
		}
		defer l.Exit()
		h(w, r)
	}
}

// AnswerDraining writes the probes' 503 answer when draining and reports
// whether it did.
func (l *Lifecycle) AnswerDraining(w http.ResponseWriter) bool {
	if !l.Draining() {
		return false
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	io.WriteString(w, "draining\n")
	return true
}

// Healthz is the liveness probe: 200 while serving, 503 while draining.
func (l *Lifecycle) Healthz(w http.ResponseWriter, r *http.Request) {
	if !l.AnswerDraining(w) {
		io.WriteString(w, "ok\n")
	}
}

// Readyz is the readiness probe of a tier that is servable as soon as it is
// constructed: 200 once serving, 503 while draining (the build/open window
// before construction answers 503 warming from the process skeleton's
// warming handler). Routers and orchestrators gate traffic on this;
// Healthz stays the liveness probe.
func (l *Lifecycle) Readyz(w http.ResponseWriter, r *http.Request) {
	if !l.AnswerDraining(w) {
		io.WriteString(w, "ready\n")
	}
}

// Traced wraps a handler with request-scoped tracing: extract or mint the
// request's span context, echo X-Request-Id immediately (error responses
// carry it too), thread the trace recorder through the request context,
// then record the completed trace in the debug ring and log it — at warn
// level with the full span trace when it was slower than the slow-request
// threshold. Spans are recorded per request, never per read, so the
// engine's allocation-free query path is untouched.
func (l *Lifecycle) Traced(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sc, _ := telemetry.Extract(r.Header)
		tr := telemetry.NewTrace(sc, r.URL.Path)
		w.Header().Set(telemetry.HeaderRequestID, sc.RequestID())
		sw := &telemetry.StatusRecorder{ResponseWriter: w, Code: http.StatusOK}
		aborted := true
		// The deferred finish also runs when a streaming handler aborts
		// the connection (panic(http.ErrAbortHandler)); the panic
		// propagates past it untouched.
		defer func() { l.finishTrace(tr, sw, aborted) }()
		h(sw, r.WithContext(telemetry.WithTrace(r.Context(), tr)))
		aborted = false
	}
}

// finishTrace seals one request's trace into the debug ring and emits its
// structured log line.
func (l *Lifecycle) finishTrace(tr *telemetry.Trace, sw *telemetry.StatusRecorder, aborted bool) {
	rt := tr.Finish(sw.Code)
	l.ring.Add(rt)
	slow := l.slow > 0 && time.Duration(rt.DurationUs)*time.Microsecond >= l.slow
	if !slow && !l.Logger.Enabled(context.Background(), slog.LevelDebug) {
		return // the common case: nothing to log, so build no attributes
	}
	attrs := []any{
		"request_id", rt.RequestID,
		"path", rt.Path,
		"status", rt.Status,
		"reads", rt.Reads,
		"duration_ms", float64(rt.DurationUs) / 1e3,
	}
	if rt.Ref != "" {
		attrs = append(attrs, "ref", rt.Ref)
	}
	if aborted {
		attrs = append(attrs, "aborted", true)
	}
	if slow {
		l.Logger.Warn("slow request", append(attrs, "spans", rt.SpanSummary())...)
		return
	}
	l.Logger.Debug("request", attrs...)
}

// ---- response plumbing ----

// MaybeGzip wraps the response in gzip when the client accepts it. finish
// closes the gzip stream (a no-op otherwise); call it once after the last
// body write.
func MaybeGzip(w http.ResponseWriter, r *http.Request) (io.Writer, func() error) {
	if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		return w, func() error { return nil }
	}
	w.Header().Set("Content-Encoding", "gzip")
	w.Header().Add("Vary", "Accept-Encoding")
	gz := gzip.NewWriter(w)
	return gz, gz.Close
}

// WriteJSON answers with v as a JSON document under the given status.
func WriteJSON(w http.ResponseWriter, r *http.Request, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	body, finish := MaybeGzip(w, r)
	if code != http.StatusOK {
		w.WriteHeader(code)
	}
	_ = json.NewEncoder(body).Encode(v) // headers are gone; nothing more to report to the client
	_ = finish()
}

// WriteError answers with a JSON error document. Error payloads echo the
// request ID alongside the X-Request-Id header, so a failure pasted into a
// bug report still names its trace.
func WriteError(w http.ResponseWriter, r *http.Request, code int, er *client.ErrorResponse) {
	if tr := telemetry.TraceFrom(r.Context()); tr != nil && er.RequestID == "" {
		er.RequestID = tr.RequestID()
	}
	WriteJSON(w, r, code, er)
}

// WantsSAM reports whether the request asked for SAM output.
func WantsSAM(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "sam")
}
