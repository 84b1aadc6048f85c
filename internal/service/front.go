package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/coalesce"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// The align front door both align tiers share: merserved's per-reference
// tenant (R = *engineCall) and merrouted's Router (R = *gather) each own a
// Front and keep only what is theirs. A request is admitted (deadline, then
// the body at the tier's seed length K), queued or sent down the direct
// path, accounted, and answered with one status map.

// RetryAfter is the Retry-After header of every refusal a client should
// retry later: the 429s, the doomed-deadline 503s and the router's warming
// 503s (half a second, rounded up to whole seconds).
const RetryAfter = "1"

// maxRequestBytes bounds an align request body; a gzip body's decompressed
// stream is capped at 8x.
const maxRequestBytes = 64 << 20

// FrontConfig is the front-door block both tiers' Config embed. Every zero
// value defaults.
type FrontConfig struct {
	// Micro-batcher knobs: the latency/throughput trade. Batching is
	// continuous — an idle callee dispatches immediately, and arrivals
	// coalesce while a call is in flight. MaxBatch caps reads per call
	// (default 256; requests at least that big skip the queue). MaxWait caps
	// how long a queued request waits behind a busy callee before an
	// overlapping call dispatches anyway (zero means 2ms; negative disables
	// window-holding). QueueReads bounds the reads admitted to the queue
	// before new requests are refused with 429 (default 4*MaxBatch, never
	// below MaxBatch).
	MaxBatch   int
	MaxWait    time.Duration
	QueueReads int

	// MinDeadline, when > 0, enables deadline admission: an align request
	// whose propagated X-Deadline-Ms budget is below it is rejected with 503
	// instead of computing an answer the caller will have stopped waiting
	// for. Requests without the header are never deadline-rejected.
	MinDeadline time.Duration

	// Logger receives the tier's structured logs (request completions at
	// debug, slow requests at warn, the router's shard health). nil discards.
	Logger *slog.Logger

	// SlowRequest, when > 0, logs the full span trace of any align request
	// slower than this at warn level (the -slow-request-ms flag).
	SlowRequest time.Duration

	// TraceCapacity bounds the /debug/requests ring of completed request
	// traces. <= 0 means telemetry.DefaultRingCapacity.
	TraceCapacity int
}

// withDefaults resolves the caller's config to the effective one. Apply it
// once: a negative MaxWait becomes 0, which a second pass reads as unset.
func (c FrontConfig) withDefaults() FrontConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	switch {
	case c.MaxWait == 0:
		c.MaxWait = 2 * time.Millisecond
	case c.MaxWait < 0:
		c.MaxWait = 0 // explicit opt-out of window-holding
	}
	if c.QueueReads <= 0 {
		c.QueueReads = 4 * c.MaxBatch
	}
	// A queue smaller than MaxBatch would permanently 429 requests sized
	// between the two (too big to ever queue, too small for the direct path)
	// even on an idle server.
	c.QueueReads = max(c.QueueReads, c.MaxBatch)
	return c
}

// knobs is a front-door report carrying only the effective batching knobs.
func (c FrontConfig) knobs() client.FrontStats {
	return client.FrontStats{MaxBatch: c.MaxBatch, MaxWaitMs: float64(c.MaxWait) / float64(time.Millisecond)}
}

// Tier is what an align tier plugs into its front door.
type Tier[R any] struct {
	// Call serves one batch of reads: an engine call, or a scatter.
	Call coalesce.Func[meraligner.Seq, R]
	// Prepare and Release are the queue's optional hooks (coalesce.Config).
	Prepare coalesce.Prepare
	Release func(R)
	// Record adds the tier's spans of a served window's call to a request's
	// trace, after the front door's batch_wait.
	Record func(*telemetry.Trace, *coalesce.Window[R])
	// Status maps a failure of the tier's own to its HTTP status and error
	// text; code 0 leaves err to the shared map.
	Status func(err error) (code int, msg string)
}

// Front is one align front door: admission, the coalescing queue with its
// direct path, the request accounting, and the status map.
type Front[R any] struct {
	cfg  FrontConfig
	tier Tier[R]
	co   *coalesce.Coalescer[meraligner.Seq, R]

	start            time.Time
	requests         atomic.Int64 // align requests served to completion
	rejected         atomic.Int64 // 429s
	reads            atomic.Int64 // reads accepted into the queue
	tooShort         atomic.Int64 // reads rejected as shorter than K
	deadlineRejected atomic.Int64 // 503s: propagated deadline below MinDeadline
	queue            coalesce.Stats
	latency          telemetry.Hist // request wall time, enqueue -> result ready
}

// NewFront starts a front door whose queued calls derive from base. cfg is
// taken as the caller set it; its defaults are applied here.
func NewFront[R any](base context.Context, cfg FrontConfig, tier Tier[R]) *Front[R] {
	f := &Front[R]{cfg: cfg.withDefaults(), tier: tier, start: time.Now()}
	f.co = coalesce.New(base, coalesce.Config[meraligner.Seq, R]{
		Call:     tier.Call,
		MaxBatch: f.cfg.MaxBatch,
		MaxWait:  f.cfg.MaxWait,
		Capacity: f.cfg.QueueReads,
		Stats:    &f.queue,
		Prepare:  tier.Prepare,
		Release:  tier.Release,
	})
	return f
}

// Drain stops admission and returns once queued and in-flight calls are
// done, or ctx expires.
func (f *Front[R]) Drain(ctx context.Context) error { return f.co.Drain(ctx) }

// Close stops admission without waiting.
func (f *Front[R]) Close() { f.co.Close() }

// Align serves one align request: deadline admission, body admission at
// seed length k, the queue or the direct path, then render under a render
// span. Every refusal and failure is answered here.
func (f *Front[R]) Align(w http.ResponseWriter, r *http.Request, k int, render func(http.ResponseWriter, *http.Request, []meraligner.Seq, *coalesce.Window[R])) {
	r, reads, cancel, ok := f.admit(w, r, k)
	if !ok {
		return
	}
	defer cancel()
	win, err := f.serve(r.Context(), reads)
	if err != nil {
		f.fail(w, r, err)
		return
	}
	defer win.Release() // rendered: a pinned result may drop
	tr := telemetry.TraceFrom(r.Context())
	f.record(tr, win)
	start := time.Now()
	render(w, r, reads, win)
	if tr != nil {
		tr.Add("render", start, time.Since(start), nil)
	}
}

// record replays a served window into a request's trace: the queue wait
// (enqueue to dispatch) as a batch_wait span, then the tier's own spans.
func (f *Front[R]) record(tr *telemetry.Trace, win *coalesce.Window[R]) {
	if tr == nil {
		return
	}
	tr.Add("batch_wait", win.Enq, win.Disp.Sub(win.Enq), func(sp *telemetry.Span) {
		sp.Requests = win.Requests
		sp.Reads = win.Hi - win.Lo
	})
	f.tier.Record(tr, win)
}

// admit is the one admission path of both align endpoints, Align and the
// streaming handler. Deadline admission first: a request that propagates an
// X-Deadline-Ms budget below MinDeadline is refused with 503 and counted —
// work the caller will have abandoned before it finishes. Then the body:
// it must parse (ParseReads) into a non-empty batch of reads each long
// enough to carry a seed of length k. Too-short reads are a client error
// (HTTP 400) carrying the typed per-read detail — the service-side face of
// the engine's QueryTooShort status (same rule: length < K) — and are
// counted. On success the request's trace gains its admission span, and an
// accepted budget, counted from arrival, bounds the returned request's
// context, so a doomed call cannot outlive its caller (and shard RPCs
// inherit and re-propagate the remaining time). ok false means the response
// is written; otherwise call cancel when the request is done.
func (f *Front[R]) admit(w http.ResponseWriter, r *http.Request, k int) (_ *http.Request, reads []meraligner.Seq, cancel context.CancelFunc, ok bool) {
	start := time.Now()
	budget, has := client.DeadlineFromHeader(r.Header)
	if min := f.cfg.MinDeadline; has && min > 0 && budget < min {
		f.deadlineRejected.Add(1)
		w.Header().Set("Retry-After", RetryAfter)
		WriteError(w, r, http.StatusServiceUnavailable, &client.ErrorResponse{
			Error: fmt.Sprintf("deadline budget %s below the %s admission floor: rejecting doomed work", budget, min)})
		return nil, nil, nil, false
	}
	reads, err := ParseReads(w, r, maxRequestBytes)
	if err != nil {
		WriteError(w, r, parseStatus(err), &client.ErrorResponse{Error: err.Error()})
		return nil, nil, nil, false
	}
	if len(reads) == 0 {
		WriteError(w, r, http.StatusBadRequest, &client.ErrorResponse{Error: "empty request: no reads"})
		return nil, nil, nil, false
	}
	var short []string
	for i := range reads {
		if reads[i].Seq.Len() < k {
			short = append(short, reads[i].Name)
		}
	}
	if short != nil {
		f.tooShort.Add(int64(len(short)))
		WriteError(w, r, http.StatusBadRequest, &client.ErrorResponse{
			Error:    fmt.Sprintf("%d read(s) shorter than the seed length K=%d cannot be aligned", len(short), k),
			TooShort: short,
		})
		return nil, nil, nil, false
	}
	if tr := telemetry.TraceFrom(r.Context()); tr != nil {
		tr.AddReads(len(reads))
		tr.Add("admission", start, time.Since(start), func(sp *telemetry.Span) { sp.Reads = len(reads) })
	}
	if !has || budget <= 0 {
		return r, reads, func() {}, true
	}
	ctx, cancel := context.WithDeadline(r.Context(), start.Add(budget))
	return r.WithContext(ctx), reads, cancel, true
}

// serve routes one request's reads: MaxBatch or more run directly under the
// caller's context (nothing to coalesce; a disconnect cancels the call
// itself) and count as a batch of one request, fewer ride the queue.
// Requests and reads count served work only; the caller must Release the
// window after its last use of the result.
func (f *Front[R]) serve(ctx context.Context, reads []meraligner.Seq) (*coalesce.Window[R], error) {
	start := time.Now()
	var win *coalesce.Window[R]
	var err error
	if len(reads) >= f.cfg.MaxBatch {
		if win, err = f.co.Direct(ctx, reads); err == nil {
			f.queue.ObserveBatch(1, len(reads))
		}
	} else {
		win, err = f.submit(ctx, reads)
	}
	if err != nil {
		return nil, err
	}
	f.reads.Add(int64(len(reads)))
	f.served(start)
	return win, nil
}

// stream serves reads as MaxBatch-read chunks through the queue, one in
// flight at a time: each served chunk is counted, traced, handed to each and
// released. A refusal of the first chunk is answered here; a later one
// aborts the connection, as a cleanly ended body would hide the truncation.
// It reports whether every chunk was handed over.
func (f *Front[R]) stream(w http.ResponseWriter, r *http.Request, reads []meraligner.Seq, each func(*coalesce.Window[R]) error) bool {
	start := time.Now()
	tr := telemetry.TraceFrom(r.Context())
	for lo := 0; lo < len(reads); lo += f.cfg.MaxBatch {
		chunk := reads[lo:min(lo+f.cfg.MaxBatch, len(reads))]
		win, err := f.submit(r.Context(), chunk)
		if err != nil {
			if lo == 0 { // nothing sent yet: a real status can still go out
				f.fail(w, r, err)
				return false
			}
			panic(http.ErrAbortHandler)
		}
		f.reads.Add(int64(len(chunk)))
		f.record(tr, win) // per-chunk batch_wait + tier spans (span cap applies)
		if err := func() error { defer win.Release(); return each(win) }(); err != nil {
			return false
		}
	}
	f.served(start)
	return true
}

// served counts one request served in full, with its wall time since start.
func (f *Front[R]) served(start time.Time) {
	f.requests.Add(1)
	f.latency.Observe(time.Since(start).Nanoseconds())
}

// refuse answers a tier's own overload refusal (merserved's per-reference
// inflight quota) with 429 + Retry-After, counted with the queue's.
func (f *Front[R]) refuse(w http.ResponseWriter, r *http.Request, msg string) {
	f.rejected.Add(1)
	w.Header().Set("Retry-After", RetryAfter)
	WriteError(w, r, http.StatusTooManyRequests, &client.ErrorResponse{Error: msg})
}

// submit queues one submission, counting a refusal by the full queue.
func (f *Front[R]) submit(ctx context.Context, reads []meraligner.Seq) (*coalesce.Window[R], error) {
	win, err := f.co.Submit(ctx, reads)
	if errors.Is(err, coalesce.ErrOverloaded) {
		f.rejected.Add(1)
	}
	return win, err
}

// fail answers a serve failure: a full queue is 429 with Retry-After,
// draining is 503, the tier's own failures carry its status, a client that
// is gone gets nothing (net/http drops the connection), and anything else
// is a 500.
func (f *Front[R]) fail(w http.ResponseWriter, r *http.Request, err error) {
	code, msg := f.tier.Status(err)
	switch {
	case errors.Is(err, coalesce.ErrOverloaded):
		w.Header().Set("Retry-After", RetryAfter)
		code, msg = http.StatusTooManyRequests, "overloaded: admission queue full"
	case errors.Is(err, coalesce.ErrDraining):
		code, msg = http.StatusServiceUnavailable, "draining"
	case code != 0: // the tier's own
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return
	default:
		code, msg = http.StatusInternalServerError, err.Error()
	}
	WriteError(w, r, code, &client.ErrorResponse{Error: msg})
}

// Stats renders the front door's report: its counters, queue observations,
// request latency quantiles and batching knobs. Both tiers' stats documents
// embed it as it is.
func (f *Front[R]) Stats() client.FrontStats {
	st := f.cfg.knobs()
	st.UptimeSeconds = time.Since(f.start).Seconds()
	st.Requests = f.requests.Load()
	st.Rejected = f.rejected.Load()
	st.Canceled = f.queue.Canceled.Load()
	st.Reads = f.reads.Load()
	st.TooShort = f.tooShort.Load()
	st.DeadlineRejected = f.deadlineRejected.Load()
	st.Batches = f.queue.Batches.Load()
	st.BatchedReads = f.queue.Items.Load()
	st.CoalescedBatches = f.queue.Coalesced.Load()
	st.MaxBatchReads = f.queue.MaxItems.Load()
	if st.Batches > 0 {
		st.MeanBatchReads = float64(st.BatchedReads) / float64(st.Batches)
	}
	st.QueueReads = int64(f.co.QueuedItems())
	st.RequestP50Ms = f.latency.Quantile(0.50) / 1e6
	st.RequestP99Ms = f.latency.Quantile(0.99) / 1e6
	return st
}

// WriteFrontMetrics writes a tier's front-door metric families — the
// request and batching counters and gauges, and the request wall-time
// histogram — named prefix_*, with one series per front door labelled by
// labels[i]. merserved passes one front per reference, merrouted its one;
// the families are listed here alone, so both tiers export the same ones.
func WriteFrontMetrics[R any](m *telemetry.Exposition, prefix string, fronts []*Front[R], labels [][]string) {
	sts := make([]client.FrontStats, len(fronts))
	for i, f := range fronts {
		sts[i] = f.Stats()
	}
	for _, c := range []struct {
		name, help string
		v          func(*client.FrontStats) int64
	}{
		{"_requests_total", "align requests served to completion", func(st *client.FrontStats) int64 { return st.Requests }},
		{"_rejected_total", "requests rejected with 429 (queue full or inflight limit)", func(st *client.FrontStats) int64 { return st.Rejected }},
		{"_canceled_total", "requests canceled by client disconnect", func(st *client.FrontStats) int64 { return st.Canceled }},
		{"_reads_total", "reads accepted for alignment", func(st *client.FrontStats) int64 { return st.Reads }},
		{"_too_short_reads_total", "reads rejected as shorter than K", func(st *client.FrontStats) int64 { return st.TooShort }},
		{"_deadline_rejected_total", "requests rejected as already doomed by their propagated deadline", func(st *client.FrontStats) int64 { return st.DeadlineRejected }},
		{"_batches_total", "batches served (engine calls or scatters, coalesced and direct)", func(st *client.FrontStats) int64 { return st.Batches }},
		{"_batched_reads_total", "reads across those batches", func(st *client.FrontStats) int64 { return st.BatchedReads }},
		{"_coalesced_batches_total", "batches serving >= 2 requests", func(st *client.FrontStats) int64 { return st.CoalescedBatches }},
	} {
		m.Counter(prefix+c.name, c.help)
		for i := range sts {
			m.Int(c.v(&sts[i]), labels[i]...)
		}
	}
	for _, g := range []struct {
		name, help string
		v          func(*client.FrontStats) float64
	}{
		{"_batch_reads_max", "largest batch", func(st *client.FrontStats) float64 { return float64(st.MaxBatchReads) }},
		{"_batch_reads_mean", "mean reads per batch", func(st *client.FrontStats) float64 { return st.MeanBatchReads }},
		{"_queue_reads", "reads queued for the next batching window", func(st *client.FrontStats) float64 { return float64(st.QueueReads) }},
	} {
		m.Gauge(prefix+g.name, g.help)
		for i := range sts {
			m.Float(g.v(&sts[i]), labels[i]...)
		}
	}
	m.Histogram(prefix+"_request_duration_seconds", "request wall time histogram")
	for i, f := range fronts {
		m.Hist(f.latency.Snapshot(), labels[i]...)
	}
}
