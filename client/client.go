// Package client is the Go client of merserved — the merAligner network
// alignment service — and the home of its JSON wire schema. The service
// (internal/service) and this package share these types, so the wire
// contract lives in exactly one place.
//
// A Client talks to one server:
//
//	c := client.New("http://127.0.0.1:8490")
//	resp, err := c.Align(ctx, client.AlignRequest{Reads: []client.Read{
//		{Name: "r1", Seq: "ACGTACGT..."},
//	}})
//
// Single-read and small-batch calls are coalesced server-side by the
// dynamic micro-batcher, so many concurrent Clients share one resident
// engine call per batching window. Overload surfaces as *RetryError (HTTP
// 429 with Retry-After); other failures as *StatusError.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/seqio"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// Read is one query read on the wire.
type Read struct {
	Name string `json:"name"`
	Seq  string `json:"seq"`
	Qual string `json:"qual,omitempty"`
}

// AlignRequest is the JSON body of POST /v1/align and /v1/align/stream.
// The same endpoints also accept a raw FASTQ body (gzip transparently
// sniffed) with any non-JSON content type.
type AlignRequest struct {
	Reads []Read `json:"reads"`
}

// Alignment is one reported hit of a read, in wire terms: the target is
// named, the strand is "+"/"-", intervals are half-open as in the native
// API, and NM is the SAM edit distance computed server-side (the server
// holds the target bases; a scatter/gather router does not), -1 when
// underivable. It is the output module's hit record itself: what a server
// renders as SAM and what it puts on the wire are one value, so a router
// renders SAM from decoded alignments with the server's own renderer.
type Alignment = meraligner.Hit

// CanonicalizeAlignments sorts one read's wire alignments into the canonical
// output order (score descending, then target name, position, strand, query
// interval, cigar). A server's own responses arrive in it; a router merging
// per-shard lists applies it and lands on exactly the order a single
// whole-reference server emits.
func CanonicalizeAlignments(as []Alignment) { slices.SortStableFunc(as, seqio.CompareHits) }

// Read statuses on the wire (ReadResult.Status).
const (
	StatusOK       = "ok"        // at least one alignment reported
	StatusUnmapped = "unmapped"  // aligned nowhere
	StatusTooShort = "too_short" // shorter than the seed length K
)

// ReadResult is one read's outcome. Alignments are in the canonical
// deterministic order (see CanonicalizeAlignments); the first — which is
// always a best-scoring one — is the primary SAM record.
type ReadResult struct {
	Name       string      `json:"name"`
	Status     string      `json:"status"`
	Alignments []Alignment `json:"alignments,omitempty"`
}

// AlignResponse is the JSON body of a successful POST /v1/align; on
// /v1/align/stream the same ReadResult objects arrive as NDJSON lines.
type AlignResponse struct {
	Reads []ReadResult `json:"reads"`
	// DegradedShards names the shard nodes whose results are missing from
	// this response — only ever set by a scatter/gather router running with
	// the serve-partial-results degraded policy. Empty (and omitted) on
	// whole responses, so a complete router response stays byte-identical
	// to a single-node one.
	DegradedShards []string `json:"degraded_shards,omitempty"`
}

// ErrorResponse is the JSON body of a non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// TooShort names the reads shorter than the seed length K when the
	// request was rejected with 400 for that reason.
	TooShort []string `json:"too_short,omitempty"`
	// RequestID echoes the request's trace identifier (also in the
	// X-Request-Id response header), so a failed call can be correlated
	// with server-side logs and /debug/requests traces.
	RequestID string `json:"request_id,omitempty"`
}

// FrontStats is the align front door's report: request accounting,
// micro-batcher observations, request latency quantiles and the effective
// batching knobs. merserved and merrouted share one front door, so both
// stats documents embed this one struct, and its keys sit at the top level
// of either JSON body.
type FrontStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	// Request accounting.
	Requests         int64 `json:"requests"`
	Rejected         int64 `json:"rejected"` // 429s (queue full)
	Canceled         int64 `json:"canceled"` // client disconnects
	Reads            int64 `json:"reads"`    // reads accepted for alignment
	TooShort         int64 `json:"too_short_reads"`
	DeadlineRejected int64 `json:"deadline_rejected"` // 503s: propagated deadline below the admission floor

	// Micro-batcher observations: one batch is one engine call (merserved)
	// or one scatter (merrouted). MeanBatchReads > 1 is the signature of
	// coalescing actually happening under concurrent single-read load.
	Batches          int64   `json:"batches"`
	BatchedReads     int64   `json:"batched_reads"`
	CoalescedBatches int64   `json:"coalesced_batches"` // batches gluing >= 2 requests
	MeanBatchReads   float64 `json:"mean_batch_reads"`
	MaxBatchReads    int64   `json:"max_batch_reads"`
	QueueReads       int64   `json:"queue_reads"` // queued right now

	// Request wall time quantiles (enqueue to response ready).
	RequestP50Ms float64 `json:"request_p50_ms"`
	RequestP99Ms float64 `json:"request_p99_ms"`

	// Effective batching knobs: reads per call, and the bound on calls in
	// flight (merserved's engine workers, merrouted's replicas of its
	// narrowest shard).
	MaxBatch int `json:"max_batch"`
	MaxCalls int `json:"max_calls"`
}

// Stats is the JSON body of GET /v1/stats (single-index servers) and of
// GET /v1/{ref}/stats (catalog servers): the front door's report plus the
// per-read engine latency and the resident index's identity.
type Stats struct {
	// Ref names the reference these stats belong to on a multi-genome
	// catalog server; empty on a single-index server.
	Ref string `json:"ref,omitempty"`

	Version  string `json:"version"`
	Draining bool   `json:"draining"`

	FrontStats

	// Per-read engine time quantiles (from the engine's per-query stats).
	AlignReadP50Us float64 `json:"align_read_p50_us"`
	AlignReadP99Us float64 `json:"align_read_p99_us"`

	// Resident index.
	K             int   `json:"k"`
	DistinctSeeds int64 `json:"distinct_seeds"`
	TotalLocs     int64 `json:"total_locs"`
	ResidentBytes int64 `json:"resident_bytes"`
}

// TargetInfo is one reference sequence of a GET /v1/targets body: its name
// and length, the material of one SAM @SQ header line.
type TargetInfo struct {
	Name   string `json:"name"`
	Length int    `json:"length"`
}

// ShardMeta identifies a served index as one slice of a sharded reference:
// its position in the fleet and the global target/fragment offsets of its
// slice (recorded by `meraligner -shard-save`, carried in the snapshot's
// SHRD section).
type ShardMeta struct {
	ID           int `json:"id"`            // this shard's position, 0-based
	Count        int `json:"count"`         // shards in the fleet
	TargetBase   int `json:"target_base"`   // global index of this shard's first target
	FragmentBase int `json:"fragment_base"` // global id of this shard's first fragment
}

// TargetsResponse is the JSON body of GET /v1/targets (and, on a catalog
// server, GET /v1/{ref}/targets): the served reference's sequences in @SQ
// order, the index's seed length, and — when the index is a shard — its
// place in the fleet. A scatter/gather router assembles its global target
// catalog and SAM header from the shards' TargetsResponses, in shard order.
type TargetsResponse struct {
	K       int          `json:"k"`
	Shard   *ShardMeta   `json:"shard,omitempty"`
	Targets []TargetInfo `json:"targets"`
}

// Circuit-breaker states of one router replica, as reported in
// ReplicaStatus.State and the merrouted_replica_state metric. closed
// admits traffic; open admits none (consecutive failures crossed the
// threshold); half_open admits one trial call at a time while readiness
// probes and trial traffic decide between closing and re-opening.
const (
	BreakerClosed   = "closed"
	BreakerHalfOpen = "half_open"
	BreakerOpen     = "open"
)

// ReplicaStatus is one replica's live state inside a ShardStatus: its
// circuit breaker, last probe result, and per-replica RPC counters.
type ReplicaStatus struct {
	Addr      string  `json:"addr"`
	State     string  `json:"state"`    // BreakerClosed | BreakerHalfOpen | BreakerOpen
	Up        bool    `json:"up"`       // last readiness probe succeeded
	Calls     int64   `json:"calls"`    // align RPC attempts issued
	Retries   int64   `json:"retries"`  // attempts that were not their shard RPC's first
	Errors    int64   `json:"errors"`   // failed attempts (canceled ones excluded)
	Inflight  int64   `json:"inflight"` // attempts in flight right now
	CallP50Ms float64 `json:"call_p50_ms"`
	CallP99Ms float64 `json:"call_p99_ms"`
}

// ShardStatus is one upstream shard's live state in a router's /v1/stats
// body. With replicated shards the top-level counters aggregate across
// replicas, Addr joins the replica addresses with "|", Up means at least
// one replica is up, and Replicas carries the per-replica breakdown.
type ShardStatus struct {
	ID        int             `json:"id"`
	Addr      string          `json:"addr"`
	Up        bool            `json:"up"`       // at least one replica's last probe succeeded
	Calls     int64           `json:"calls"`    // align RPC attempts issued
	Retries   int64           `json:"retries"`  // attempts beyond each shard RPC's first, across its replicas
	Errors    int64           `json:"errors"`   // failed attempts (canceled ones excluded)
	Inflight  int64           `json:"inflight"` // attempts in flight right now
	CallP50Ms float64         `json:"call_p50_ms"`
	CallP99Ms float64         `json:"call_p99_ms"`
	Replicas  []ReplicaStatus `json:"replicas,omitempty"`
}

// RouterStats is the JSON body of GET /v1/stats on a scatter/gather router
// (merrouted): the front door's report, as on a single node, plus the
// degraded-policy and replica counters and per-shard health.
type RouterStats struct {
	Version  string `json:"version"`
	Draining bool   `json:"draining"`
	Ready    bool   `json:"ready"`    // global target catalog assembled
	Degraded string `json:"degraded"` // configured policy: "fail" or "partial"

	FrontStats

	DegradedServed int64 `json:"degraded_requests"` // partial responses served
	FailedRequests int64 `json:"failed_requests"`   // requests failed on shard errors
	Failovers      int64 `json:"failovers"`         // attempts started on another replica right after a failure
	Hedges         int64 `json:"hedges"`            // attempts started early, beside a slow one
	HedgeWins      int64 `json:"hedge_wins"`        // hedges that answered first

	K      int           `json:"k"`
	Shards []ShardStatus `json:"shards"`
}

// RefInfo is one servable reference of a catalog server (one element of
// the GET /v1/refs body): its name and whether its index is currently
// memory-mapped and resident.
type RefInfo struct {
	Ref           string `json:"ref"`
	Open          bool   `json:"open"`
	ResidentBytes int64  `json:"resident_bytes,omitempty"` // 0 unless open
}

// CatalogCounters are the index-lifecycle counters of a catalog server:
// residency against the budget, lazy opens, LRU evictions, zero-downtime
// hot-swaps, and serves of indexes too large for the budget.
type CatalogCounters struct {
	OpenRefs       int   `json:"open_refs"`
	ResidentBytes  int64 `json:"resident_bytes"`
	BudgetBytes    int64 `json:"budget_bytes"` // 0 = unlimited
	Opens          int64 `json:"opens"`
	Evictions      int64 `json:"evictions"`
	HotSwaps       int64 `json:"hot_swaps"`
	UncachedServes int64 `json:"uncached_serves"`
}

// CatalogStats is the JSON body of GET /v1/stats on a catalog server: the
// lifecycle counters plus one Stats per reference that has served traffic.
type CatalogStats struct {
	Version  string          `json:"version"`
	Draining bool            `json:"draining"`
	Catalog  CatalogCounters `json:"catalog"`
	Refs     []Stats         `json:"refs,omitempty"`
}

// FromSeqs converts native reads to wire reads.
func FromSeqs(reads []meraligner.Seq) []Read {
	out := make([]Read, len(reads))
	for i, r := range reads {
		out[i] = Read{Name: r.Name, Seq: r.Seq.String(), Qual: string(r.Qual)}
	}
	return out
}

// RetryError is an HTTP 429: the service's admission queue is full. Back
// off for After and retry.
type RetryError struct {
	After time.Duration
}

// Error formats the overload report including the retry delay.
func (e *RetryError) Error() string {
	return fmt.Sprintf("client: server overloaded, retry after %s", e.After)
}

// StatusError is any other non-2xx response.
type StatusError struct {
	Code     int
	Message  string
	TooShort []string // read names, when the 400 was a too-short rejection
	// After is the server's Retry-After hint when it sent one (503s during
	// warmup or drain carry it); zero otherwise. RetryPolicy honors it.
	After time.Duration
}

// Error formats the HTTP status and the server's message.
func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Code, e.Message)
}

// Client talks to one merserved instance — the whole server, or (with
// WithRef / NewRef) one reference of a multi-genome catalog server. It is
// safe for concurrent use.
type Client struct {
	base  string
	ref   string
	hc    *http.Client
	retry *RetryPolicy // nil: single attempt
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transport limits, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetry makes every request retry transient failures under p: 429s
// (honoring the server's Retry-After), 502/503/504s, and transport errors,
// with capped jittered exponential backoff between attempts. Alignment is
// a pure function of the request, so retrying a POST /v1/align is safe.
// Without this option a Client makes exactly one attempt per call.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { pc := p; c.retry = &pc }
}

// WithRef scopes the Client to one reference of a catalog server: Align,
// AlignSAM, AlignStream, and Stats target /v1/<ref>/... instead of
// /v1/.... Refs, CatalogStats, and Health stay server-wide.
func WithRef(ref string) Option {
	return func(c *Client) { c.ref = ref }
}

// New returns a Client for the service at base (e.g. "http://host:8490").
func New(base string, opts ...Option) *Client {
	c := &Client{base: base, hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// NewRef returns a Client scoped to one reference of a catalog server:
// shorthand for New(base, WithRef(ref), opts...).
func NewRef(base, ref string, opts ...Option) *Client {
	return New(base, append([]Option{WithRef(ref)}, opts...)...)
}

// v1 resolves a /v1 path under the Client's reference scope.
func (c *Client) v1(path string) string {
	if c.ref == "" {
		return c.base + "/v1" + path
	}
	return c.base + "/v1/" + url.PathEscape(c.ref) + path
}

// Align posts one batch and returns the per-read results.
func (c *Client) Align(ctx context.Context, req AlignRequest) (*AlignResponse, error) {
	body, err := c.post(ctx, "/align", req, "application/json")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	var out AlignResponse
	if err := json.NewDecoder(body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decoding response: %w", err)
	}
	return &out, nil
}

// AlignSAM posts one batch and returns the response as a SAM document
// (header plus one record set), byte-identical to a local WriteSAM over a
// direct Align call.
func (c *Client) AlignSAM(ctx context.Context, req AlignRequest) ([]byte, error) {
	body, err := c.post(ctx, "/align", req, "text/x-sam")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return io.ReadAll(body)
}

// AlignStream posts one batch to the streaming endpoint and calls fn for
// each ReadResult as it arrives (NDJSON). fn returning an error aborts the
// stream and surfaces that error.
func (c *Client) AlignStream(ctx context.Context, req AlignRequest, fn func(ReadResult) error) error {
	body, err := c.post(ctx, "/align/stream", req, "application/x-ndjson")
	if err != nil {
		return err
	}
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rr ReadResult
		if err := json.Unmarshal(sc.Bytes(), &rr); err != nil {
			return fmt.Errorf("client: decoding stream line: %w", err)
		}
		if err := fn(rr); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Stats fetches the service's live statistics (GET /v1/stats; with a
// WithRef scope, GET /v1/{ref}/stats).
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	if err := c.getJSON(ctx, c.v1("/stats"), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Refs lists the references a catalog server can serve and which are
// currently resident (GET /v1/refs). Server-wide: the Client's WithRef
// scope does not apply.
func (c *Client) Refs(ctx context.Context) ([]RefInfo, error) {
	var out []RefInfo
	if err := c.getJSON(ctx, c.base+"/v1/refs", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CatalogStats fetches a catalog server's server-wide stats document
// (GET /v1/stats): lifecycle counters plus per-reference stats. The
// Client's WithRef scope does not apply.
func (c *Client) CatalogStats(ctx context.Context) (*CatalogStats, error) {
	var out CatalogStats
	if err := c.getJSON(ctx, c.base+"/v1/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Targets fetches the served reference's catalog (GET /v1/targets; with a
// WithRef scope, GET /v1/{ref}/targets): target names and lengths in @SQ
// order, the seed length K, and the shard identity when the server holds
// one slice of a sharded reference.
func (c *Client) Targets(ctx context.Context) (*TargetsResponse, error) {
	var out TargetsResponse
	if err := c.getJSON(ctx, c.v1("/targets"), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready probes /readyz: nil once the server is warmed and servable, an
// error while it is still opening or warming its index (503), draining, or
// unreachable. Orchestrators and routers gate traffic on it; Health stays
// the liveness probe.
func (c *Client) Ready(ctx context.Context) error { return c.probe(ctx, "/readyz") }

// HeaderDeadlineMs propagates the caller's remaining time budget down one
// hop, in integer milliseconds. The client stamps it from the attempt
// context's deadline; a server's admission control may reject work that
// cannot finish inside it instead of computing an answer nobody will read.
const HeaderDeadlineMs = "X-Deadline-Ms"

// InjectDeadline stamps HeaderDeadlineMs from ctx's deadline, if any. An
// already-expired deadline is stamped as 0 — the server's rejection is
// cheaper and clearer than a mid-flight cancellation.
// InjectDeadline is exported for sibling network tiers (the seed-lookup
// client) that speak the same deadline convention outside this package.
func InjectDeadline(ctx context.Context, h http.Header) {
	d, ok := ctx.Deadline()
	if !ok {
		return
	}
	h.Set(HeaderDeadlineMs, strconv.FormatInt(max(time.Until(d).Milliseconds(), 0), 10))
}

// DeadlineFromHeader reads HeaderDeadlineMs from an incoming request's
// headers: the remaining budget and true when present and well-formed.
// A malformed value reads as absent — a confused client should not get
// its work rejected over a header it may not even know it sent.
func DeadlineFromHeader(h http.Header) (time.Duration, bool) {
	v := h.Get(HeaderDeadlineMs)
	if v == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms < 0 {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// getJSON fetches one URL and decodes its JSON body into out, retrying
// transient failures when the Client has a retry policy.
func (c *Client) getJSON(ctx context.Context, url string, out any) error {
	return c.attempt(ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		telemetry.Inject(ctx, req.Header)
		InjectDeadline(ctx, req.Header)
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return c.asError(resp)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("client: decoding response: %w", err)
		}
		return nil
	})
}

// Health probes /healthz: nil when serving, an error when unreachable or
// draining.
func (c *Client) Health(ctx context.Context) error { return c.probe(ctx, "/healthz") }

// probe makes one GET of a server-wide probe path: nil on 200, the typed
// error otherwise. A probe reports the state right now, so it never retries.
func (c *Client) probe(ctx context.Context, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c.asError(resp)
	}
	return nil
}

// post sends an AlignRequest and returns the response body on 200, or a
// typed error otherwise. With WithRetry configured, transient failures are
// retried under the policy before the last error surfaces.
func (c *Client) post(ctx context.Context, path string, req AlignRequest, accept string) (io.ReadCloser, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var body io.ReadCloser
	err = c.attempt(ctx, func(ctx context.Context) error {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.v1(path), bytes.NewReader(payload))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set("Accept", accept)
		telemetry.Inject(ctx, hreq.Header)
		InjectDeadline(ctx, hreq.Header)
		resp, err := c.hc.Do(hreq)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			defer resp.Body.Close()
			return c.asError(resp)
		}
		body = resp.Body
		return nil
	})
	if err != nil {
		return nil, err
	}
	return body, nil
}

// attempt runs one request function under the Client's retry policy, or
// exactly once when none is configured.
func (c *Client) attempt(ctx context.Context, fn func(context.Context) error) error {
	if c.retry == nil {
		return fn(ctx)
	}
	return c.retry.Do(ctx, fn)
}

// asError converts a non-2xx response into *RetryError or *StatusError.
func (c *Client) asError(resp *http.Response) error {
	after := parseRetryAfter(resp.Header.Get("Retry-After"))
	if resp.StatusCode == http.StatusTooManyRequests {
		if after <= 0 {
			after = time.Second
		}
		return &RetryError{After: after}
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var er ErrorResponse
	if json.Unmarshal(raw, &er) == nil && er.Error != "" {
		return &StatusError{Code: resp.StatusCode, Message: er.Error, TooShort: er.TooShort, After: after}
	}
	return &StatusError{Code: resp.StatusCode, Message: string(bytes.TrimSpace(raw)), After: after}
}

// parseRetryAfter decodes a Retry-After header's delay-seconds form (the
// only form merserved emits); 0 when absent or unparseable.
func parseRetryAfter(s string) time.Duration {
	if s == "" {
		return 0
	}
	secs, err := strconv.ParseFloat(s, 64)
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs * float64(time.Second))
}
