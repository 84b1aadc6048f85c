// Package service implements merserved: an HTTP/JSON alignment service
// over resident aligners. In single-index mode the seed index is built or
// mapped exactly once (by the caller) and the service serves alignment
// traffic against it forever — the network face of the paper's build-once/
// serve-many design, shaped like the SNAP/MICA servers the ROADMAP points
// at: many small requests funneled onto one resident many-core engine. In
// catalog mode (Config.IndexDir) the service fronts a directory of .merx
// snapshots: N references served behind one listener, each memory-mapped
// lazily on first request, kept resident under a byte budget with LRU
// eviction, and hot-swapped with zero downtime when its snapshot file is
// atomically replaced on disk (internal/catalog owns that lifecycle).
//
// Single-index endpoints:
//
//	POST /v1/align        one batch in (JSON or FASTQ), results out
//	                      (JSON, or SAM with Accept: text/x-sam)
//	POST /v1/align/stream chunked results as they are computed
//	                      (NDJSON, or SAM with Accept: text/x-sam)
//	GET  /v1/stats        live counters, batcher observations, latency
//	GET  /healthz         200 while serving, 503 while draining
//	GET  /metrics         Prometheus text exposition
//
// Catalog endpoints (ref is the snapshot file name without .merx):
//
//	POST /v1/{ref}/align         as /v1/align, against one reference
//	POST /v1/{ref}/align/stream  as /v1/align/stream
//	GET  /v1/{ref}/stats         one reference's counters and latency
//	GET  /v1/refs                the servable references and their state
//	GET  /v1/stats               catalog-wide stats: lifecycle counters
//	                             plus every active reference's stats
//	GET  /healthz, /metrics      as above; metrics carry a ref label
//
// Each reference owns a front door (Front, shared with merrouted): every
// request rides the reference's queue, small ones coalesce, and a request
// of MaxBatch reads or more is a call of its own. Responses are
// byte-identical to a local Align call over the same reads against the
// same snapshot. Accept-Encoding: gzip is honored on every response body.
package service

import (
	"cmp"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/catalog"
	"github.com/lbl-repro/meraligner/internal/coalesce"
	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/seqio"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// SnapshotExt is the file extension a catalog directory entry must carry
// (re-exported from internal/catalog for the CLI and embedders).
const SnapshotExt = catalog.SnapshotExt

// Config shapes one Server. Exactly one of Aligner (single-index mode) and
// IndexDir (catalog mode) is required; everything else defaults.
type Config struct {
	// Aligner is the one resident index of single-index mode.
	Aligner *meraligner.Aligner

	// IndexDir selects catalog mode: every <ref>.merx snapshot in the
	// directory is served at /v1/<ref>/..., opened lazily on first request.
	IndexDir string

	// ResidentBudget bounds the total ResidentBytes of open catalog
	// indexes; least-recently-used references are evicted (their snapshots
	// stay warm in the page cache). <= 0 means unlimited. Catalog mode only.
	ResidentBudget int64

	// SwapPoll rate-limits the hot-swap freshness check: a reference's
	// snapshot file is re-stat'd at most once per SwapPoll. 0 means the 1s
	// default; negative disables hot-swap. Catalog mode only.
	SwapPoll time.Duration

	Query meraligner.QueryOptions // CollectAlignments/CollectPerQuery are forced on

	// The front door (queue, admission, logging); in catalog mode each
	// reference gets its own queue with these knobs, so one hot reference
	// fills only its own queue, and the references' dispatchers take the
	// shared call tokens in turn.
	FrontConfig

	// Workers is the engine pool size (default: the Aligner's build-time
	// thread count in single-index mode, the host CPU count in catalog
	// mode). It is also the bound on engine calls in flight: every
	// reference's queue draws on one pool of Workers call tokens.
	Workers int

	// Version is reported in /v1/stats (ldflags-injected by cmd/merserved).
	Version string
}

// withDefaults fills the server's own zero values; the front-door block is
// defaulted once, by NewFront.
func (c Config) withDefaults() Config {
	if c.IndexDir != "" && c.SwapPoll == 0 {
		c.SwapPoll = time.Second
	}
	return c
}

// Server is the HTTP handler. Create with New, serve with net/http, stop
// with Drain (graceful) and Close (hard).
type Server struct {
	*Lifecycle

	cfg   Config
	qopt  meraligner.QueryOptions
	mux   *http.ServeMux
	calls coalesce.Limit // Workers tokens, shared by every reference's queue

	// Exactly one of the two is set: single serves Config.Aligner through
	// the same tenant machinery catalog mode uses for each reference.
	single *tenant
	cat    *catalog.Catalog

	tmu     sync.Mutex // guards tenants (catalog mode)
	tenants map[string]*tenant

	baseCtx context.Context
	cancel  context.CancelFunc
}

// tenant is the serving state of one reference: its front door, per-read
// engine latency, and the Source resolving its current index. A tenant is
// permanent once created — it survives eviction and hot-swap of the index
// underneath (the catalog hands out a fresh pin per engine call).
type tenant struct {
	s         *Server
	ref       string // "" in single-index mode
	src       catalog.Source
	front     *Front[*engineCall]
	alignRead telemetry.Hist // per-read engine nanos (engine PerQuery stats)

	// Last-observed identity of the reference's index, refreshed on every
	// acquisition; stats report these even while the index is evicted.
	k             atomic.Int32
	distinctSeeds atomic.Int64
	totalLocs     atomic.Int64
	resident      atomic.Int64
}

// New builds a Server over cfg.Aligner or cfg.IndexDir. Indexes must
// already be built; New does no heavy work (catalog snapshots open lazily,
// on first request).
func New(cfg Config) (*Server, error) {
	if (cfg.Aligner == nil) == (cfg.IndexDir == "") {
		return nil, errors.New("service: exactly one of Config.Aligner and Config.IndexDir is required")
	}
	cfg = cfg.withDefaults()
	qopt := cfg.Query
	qopt.CollectAlignments = true // responses need the records
	qopt.CollectPerQuery = true   // stats need per-read latency
	s := &Server{cfg: cfg, qopt: qopt}
	s.Lifecycle = NewLifecycle(cfg.Logger, cfg.SlowRequest, cfg.TraceCapacity)
	s.baseCtx, s.cancel = context.WithCancel(context.Background())

	// Align endpoints run traced (the 503s are traced too) behind the gate.
	wrap := func(h http.HandlerFunc) http.HandlerFunc { return s.Traced(s.Gated(h)) }
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.Healthz)
	mux.HandleFunc("GET /readyz", s.Readyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Workers <= 0 {
		s.cfg.Workers = runtime.NumCPU()
		if cfg.Aligner != nil {
			s.cfg.Workers = cfg.Aligner.Threads()
		}
	}
	s.calls = coalesce.NewLimit(s.cfg.Workers)
	if cfg.Aligner != nil {
		t := s.newTenant("", catalog.Static(cfg.Aligner))
		t.noteIndex(cfg.Aligner)
		s.single = t
		mux.HandleFunc("POST /v1/align", wrap(s.singleHandler((*tenant).handleAlign)))
		mux.HandleFunc("POST /v1/align/stream", wrap(s.singleHandler((*tenant).handleAlignStream)))
		mux.HandleFunc("GET /v1/targets", s.handleTargets)
	} else {
		cat, err := catalog.New(catalog.Options{
			Dir:      cfg.IndexDir,
			Budget:   cfg.ResidentBudget,
			Threads:  s.cfg.Workers,
			SwapPoll: s.cfg.SwapPoll,
		})
		if err != nil {
			return nil, err
		}
		s.cat = cat
		s.tenants = make(map[string]*tenant)
		mux.HandleFunc("POST /v1/{ref}/align", wrap(s.refHandler((*tenant).handleAlign)))
		mux.HandleFunc("POST /v1/{ref}/align/stream", wrap(s.refHandler((*tenant).handleAlignStream)))
		mux.HandleFunc("GET /v1/{ref}/stats", s.handleRefStats)
		mux.HandleFunc("GET /v1/{ref}/targets", s.handleRefTargets)
		mux.HandleFunc("GET /v1/refs", s.handleRefs)
	}
	s.mux = mux
	return s, nil
}

// newTenant wires one reference's front door. Its results pin the index
// they were computed on (engineCall), so Release drops the pin once the
// last member response has rendered.
func (s *Server) newTenant(ref string, src catalog.Source) *tenant {
	t := &tenant{s: s, ref: ref, src: src}
	t.front = NewFront(s.baseCtx, s.cfg.FrontConfig, Tier[*engineCall]{
		Call:    t.alignBatch,
		Calls:   s.calls,
		Release: func(c *engineCall) { c.pin.Release() },
		Record:  recordEngine,
		Status:  catalogStatus,
	})
	return t
}

// noteIndex records the index identity behind this tenant for stats.
func (t *tenant) noteIndex(al *meraligner.Aligner) {
	t.k.Store(int32(al.IndexOptions().K))
	ix := al.IndexStats()
	t.distinctSeeds.Store(int64(ix.DistinctSeeds))
	t.totalLocs.Store(int64(ix.TotalLocs))
	t.resident.Store(al.ResidentBytes())
}

// tenantFor returns ref's permanent tenant, creating it on first use. The
// caller must have resolved ref against the catalog first (unknown refs
// must never leave a tenant — and its dispatcher goroutine — behind).
// Creation is refused once draining so Drain's tenant snapshot is complete.
func (s *Server) tenantFor(ref string) (*tenant, error) {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if s.Draining() {
		return nil, coalesce.ErrDraining
	}
	t, ok := s.tenants[ref]
	if !ok {
		t = s.newTenant(ref, s.cat.Ref(ref))
		s.tenants[ref] = t
	}
	return t, nil
}

// allTenants snapshots the serving tenants (both modes).
func (s *Server) allTenants() []*tenant {
	if s.single != nil {
		return []*tenant{s.single}
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ref < out[j].ref })
	return out
}

// singleHandler wraps a tenant handler for single-index mode.
func (s *Server) singleHandler(h func(*tenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { s.dispatch(s.single, h, w, r) }
}

// refHandler wraps a tenant handler for catalog mode: it resolves {ref}
// against the catalog before any per-ref state exists (unknown references
// 404 without leaving a tenant behind; the acquisition also performs the
// lazy open and hot-swap check), refreshes the tenant's index identity,
// then runs the handler.
func (s *Server) refHandler(h func(*tenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ref := r.PathValue("ref")
		hdl, err := s.cat.Acquire(ref)
		if err != nil {
			s.acquireError(w, r, err)
			return
		}
		t, err := s.tenantFor(ref)
		if err != nil {
			hdl.Release()
			WriteError(w, r, http.StatusServiceUnavailable, &client.ErrorResponse{Error: "draining"})
			return
		}
		t.noteIndex(hdl.Aligner())
		hdl.Release()
		s.dispatch(t, h, w, r)
	}
}

// dispatch names the reference in the request's trace and runs one handler.
func (s *Server) dispatch(t *tenant, h func(*tenant, http.ResponseWriter, *http.Request), w http.ResponseWriter, r *http.Request) {
	if tr := telemetry.TraceFrom(r.Context()); tr != nil {
		tr.SetRef(t.ref)
	}
	h(t, w, r)
}

// catalogStatus maps a catalog failure to its HTTP status: an unknown
// reference (or one whose snapshot vanished between admission and the
// engine call) is 404, a closed catalog is draining.
func catalogStatus(err error) (int, string) {
	switch {
	case errors.Is(err, catalog.ErrUnknownRef):
		return http.StatusNotFound, err.Error()
	case errors.Is(err, catalog.ErrCatalogClosed):
		return http.StatusServiceUnavailable, "draining"
	}
	return 0, ""
}

// acquireError answers a catalog acquisition failure. Beyond catalogStatus
// it is a present but unreadable snapshot (corrupt, incompatible), a 500
// whose typed merx error names the failing section.
func (s *Server) acquireError(w http.ResponseWriter, r *http.Request, err error) {
	code, msg := catalogStatus(err)
	if code == 0 {
		code, msg = http.StatusInternalServerError, err.Error()
	}
	WriteError(w, r, code, &client.ErrorResponse{Error: msg})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain gracefully stops the service: admission closes (healthz and new
// align requests answer 503), queued requests still execute, in-flight
// engine calls finish and their responses render; in catalog mode every
// reference's queue drains concurrently and the catalog closes last, so no
// index unmaps before its final responses render. When ctx expires first,
// in-flight work is aborted via the base context and ctx's error is
// returned.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	ts := s.allTenants()
	errs := make([]error, len(ts)+1)
	var wg sync.WaitGroup
	for i, t := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = t.front.Drain(ctx)
		}()
	}
	wg.Wait()
	errs[len(ts)] = s.WaitIdle(ctx)
	failed := cmp.Or(errs...) // the first failure
	if failed != nil {
		s.cancel() // abort in-flight engine calls
	}
	if s.cat != nil {
		s.cat.Close()
	}
	return failed
}

// Close hard-stops: cancels every in-flight engine call, stops the queues'
// dispatchers (queued requests fail fast against the dead base context),
// and closes the catalog. Use after a failed Drain or for tests.
func (s *Server) Close() {
	s.StartDrain()
	s.cancel()
	for _, t := range s.allTenants() {
		t.front.Close()
	}
	if s.cat != nil {
		s.cat.Close()
	}
}

// engineCall is the outcome of one engine call plus the pin that keeps its
// index alive. SAM rendering dereferences the target sequence bytes, which
// live in the snapshot mapping — so a catalog-managed index evicted or
// hot-swapped out mid-response must not unmap until every member request
// has finished rendering: the queue reference-counts the call across its
// member windows (coalesce.Config.Release) and unpins on the last release.
// targets is captured from the pinned index at call time, so responses
// render against the index that actually served them even if the reference
// was swapped meanwhile.
type engineCall struct {
	res     *meraligner.Results
	reads   []meraligner.Seq // every read of the call, in Results query order
	targets []meraligner.Seq
	pin     *catalog.Handle
}

// window is one request's view of an engine call: Result is the shared
// call, [Lo, Hi) the request's query range within it. The holder must
// Release it exactly once, after its last use of the call's Results or
// targets.
type window = coalesce.Window[*engineCall]

// recordEngine adds a request's engine span to tr: the shared call itself,
// annotated with the call's aggregate read stats.
func recordEngine(tr *telemetry.Trace, w *window) {
	tr.Add("engine", w.Disp, w.Done.Sub(w.Disp), func(sp *telemetry.Span) {
		sp.Requests = w.Requests
		sp.Reads = len(w.Result.reads)
		sp.SWCalls = w.Result.res.SWCalls
		sp.SeedLookups = w.Result.res.SeedLookups
	})
}

// alignBatch is the queue's engine call: pin the reference's current index,
// align, and hand the pin to the engineCall.
func (t *tenant) alignBatch(ctx context.Context, reads []meraligner.Seq) (*engineCall, error) {
	h, err := t.src.Acquire()
	if err != nil {
		return nil, err
	}
	al := h.Aligner()
	res, err := al.AlignWorkers(ctx, t.s.cfg.Workers, reads, t.s.qopt)
	if err != nil {
		h.Release()
		return nil, err
	}
	for i := range res.PerQuery {
		t.alignRead.Observe(res.PerQuery[i].Nanos)
	}
	return &engineCall{res: res, reads: reads, targets: al.Targets(), pin: h}, nil
}

// ---- request parsing ----

// ParseReads decodes an align request body into native reads: a JSON
// AlignRequest when the content type says JSON, a FASTQ document otherwise
// (gzip sniffed transparently, matching the CLI's file handling). Wire
// sequences are normalized exactly as this service does (N bases replaced
// with A, bases packed), so any front end using this — the scatter/gather
// router included — hands the engine, and re-serializes to other nodes,
// byte-identical reads. Names and qualities are copied into SAM records
// verbatim, so either path rejects a read whose name is not 1-254 graphic
// ASCII bytes free of '@' (SAM's QNAME alphabet: a leading '@' would pass
// for a header line) or whose qualities are not empty or one graphic ASCII
// byte per base: a tab or newline there would forge fields or whole
// records. A read longer than maxReadBases is refused too: extension keeps
// one direction byte per (read x window) cell, so one long read that misses
// the exact path could exhaust the process. Bodies over maxBytes surface as
// *http.MaxBytesError (parseStatus maps them to 413).
func ParseReads(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]meraligner.Seq, error) {
	reads, err := decodeReads(w, r, maxBytes)
	if err != nil {
		return nil, err
	}
	for i := range reads {
		q := &reads[i]
		if n := len(q.Name); n < 1 || n > 254 || !graphic(q.Name) || strings.Contains(q.Name, "@") {
			return nil, fmt.Errorf("read %d: name must be 1-254 printable ASCII bytes with no spaces and no '@'", i)
		}
		if n := len(q.Qual); (n != 0 && n != q.Seq.Len()) || !graphic(q.Qual) {
			return nil, fmt.Errorf("read %d (%s): qual must be empty or one printable ASCII byte per base", i, q.Name)
		}
		if n := q.Seq.Len(); n > maxReadBases {
			return nil, fmt.Errorf("read %d (%s): %d bases, over the %d-base read limit", i, q.Name, n, maxReadBases)
		}
	}
	return reads, nil
}

// maxReadBases bounds one read: ~1.1 MB of extension direction bytes
// against a window the engine widens by 24 bases on both sides
// (1,024 x (1,024 + 2*24)).
// It is an input bound; short-read workloads are 100-150 bases.
const maxReadBases = 1024

// graphic reports whether s is all '!'..'~': what SAM allows in QNAME/QUAL.
func graphic[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '!' || s[i] > '~' {
			return false
		}
	}
	return true
}

// decodeReads is ParseReads before validation: either body format to reads.
func decodeReads(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]meraligner.Seq, error) {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	ct := r.Header.Get("Content-Type")
	if strings.Contains(ct, "json") {
		var req client.AlignRequest
		dec := json.NewDecoder(body)
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("decoding JSON request: %w", err)
		}
		reads := make([]meraligner.Seq, len(req.Reads))
		for i, wr := range req.Reads {
			seq, err := packWire(wr.Seq)
			if err != nil {
				return nil, fmt.Errorf("read %q: %w", wr.Name, err)
			}
			reads[i] = meraligner.Seq{Name: wr.Name, Seq: seq, Qual: []byte(wr.Qual)}
		}
		return reads, nil
	}
	br, wasGzip, err := seqio.MaybeDecompress(body)
	if err != nil {
		return nil, fmt.Errorf("decompressing request body: %w", err)
	}
	var rd io.Reader = br
	if wasGzip {
		// MaxBytesReader bounded only the compressed bytes; cap the
		// decompressed stream too, or a small gzip bomb expands unbounded.
		// 8x leaves room for FASTQ's honest ~4x gzip ratio.
		rd = &capReader{r: br, n: 8 * maxBytes}
	}
	reads, err := seqio.ReadFastq(rd, seqio.ParseOptions{ReplaceN: true})
	if err != nil {
		return nil, fmt.Errorf("parsing FASTQ request body: %w", err)
	}
	return reads, nil
}

// errDecompressedTooLarge marks a gzipped body whose expansion exceeded the
// decompressed-size cap; parseStatus maps it to 413 like its compressed
// counterpart.
var errDecompressedTooLarge = errors.New("decompressed request body too large")

// capReader fails (rather than silently truncating) once n bytes have been
// read — the decompressed-stream counterpart of http.MaxBytesReader.
type capReader struct {
	r io.Reader
	n int64
}

func (c *capReader) Read(p []byte) (int, error) {
	if c.n <= 0 {
		return 0, errDecompressedTooLarge
	}
	if int64(len(p)) > c.n {
		p = p[:c.n]
	}
	m, err := c.r.Read(p)
	c.n -= int64(m)
	return m, err
}

// parseStatus maps a ParseReads failure to its HTTP status: 413 when the
// body exceeded the byte bound compressed or its decompressed cap (split
// the batch and retry), 400 for malformed input (don't retry).
func parseStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) || errors.Is(err, errDecompressedTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// packWire packs a wire sequence, replacing ambiguous N bases with A (the
// pipeline's convention for every other input path).
func packWire(seq string) (dna.Packed, error) {
	b := []byte(seq)
	for i, c := range b {
		if c == 'N' || c == 'n' {
			b[i] = 'A'
		}
	}
	return dna.PackBytes(b)
}

// ---- /v1/align and /v1/{ref}/align ----

// handleAlign serves one batch through the front door. K is the tenant's
// last-observed seed length; the engine itself re-checks, so a hot-swap
// changing K mid-request degrades to the engine's per-read status rather
// than a wrong rejection.
func (t *tenant) handleAlign(w http.ResponseWriter, r *http.Request) {
	t.front.Align(w, r, int(t.k.Load()), func(w http.ResponseWriter, r *http.Request, _ []meraligner.Seq, win *window) {
		if WantsSAM(r) {
			writeSAM(w, r, win)
		} else {
			WriteJSON(w, r, http.StatusOK, buildResponse(win))
		}
	})
}

// AlignBatched submits one request's reads through the single-index
// service exactly as POST /v1/align does — micro-batching, admission
// control, stats — but in-process, with no HTTP in the path. Embedders and
// the service benchmark use it to measure or reuse the serving core
// directly. Its share of the coalesced Results comes back rebased into a
// standalone, heap-only value. Errors: coalesce.ErrOverloaded (the 429
// case), coalesce.ErrDraining (the 503 case), or the caller's context
// error.
func (s *Server) AlignBatched(ctx context.Context, reads []meraligner.Seq) (*meraligner.Results, error) {
	if s.single == nil {
		return nil, errors.New("service: AlignBatched needs single-index mode")
	}
	if !s.Enter() {
		return nil, coalesce.ErrDraining
	}
	defer s.Exit()
	win, err := s.single.front.serve(ctx, reads)
	if err != nil {
		return nil, err
	}
	defer win.Release()
	return win.Result.res.Slice(win.Lo, win.Hi), nil // heap-only: outlives the pin
}

// buildResponse renders a window as the JSON wire response: the same hits
// the SAM face renders (meraligner.ReadHits, resolved against the engine
// call's own pinned index — hot-swap safe), which are the wire alignments.
// They arrive canonically ordered with NM computed, so the document is
// self-contained: a scatter/gather router can merge shard responses and
// render SAM records byte-identical to this node's own without ever seeing
// the target bases.
func buildResponse(win *window) *client.AlignResponse {
	call := win.Result
	out := &client.AlignResponse{Reads: make([]client.ReadResult, win.Hi-win.Lo)}
	meraligner.ReadHits(call.res, call.targets, call.reads, win.Lo, win.Hi, func(qi int, hits []meraligner.Hit) {
		rr := &out.Reads[qi-win.Lo]
		rr.Name, rr.Status = call.reads[qi].Name, client.StatusUnmapped
		if len(hits) > 0 {
			rr.Status, rr.Alignments = client.StatusOK, slices.Clone(hits)
		}
	})
	short := call.res.TooShort // sorted by query
	first, _ := slices.BinarySearch(short, int32(win.Lo))
	for _, qi := range short[first:] {
		if int(qi) >= win.Hi {
			break
		}
		out.Reads[int(qi)-win.Lo].Status = client.StatusTooShort
	}
	return out
}

// writeSAM streams a window's records as a SAM document straight from the
// shared coalesced Results (SAMStream.WriteRange) — no per-request slicing.
// The header and the records both come from the engine call's pinned
// targets, whose mapped sequence bytes stay valid until win.Release().
func writeSAM(w http.ResponseWriter, r *http.Request, win *window) {
	w.Header().Set("Content-Type", "text/x-sam")
	body, finish := MaybeGzip(w, r)
	stream, err := meraligner.NewSAMStream(body, win.Result.targets)
	if err == nil {
		err = stream.WriteRange(win.Result.res, win.Result.reads, win.Lo, win.Hi)
	}
	if err == nil {
		err = stream.Flush()
	}
	if err == nil {
		err = finish()
	}
	_ = err // headers are gone; nothing more to report to the client
}

// ---- /v1/align/stream and /v1/{ref}/align/stream ----

// handleAlignStream admits the request as Align does (Front.admit: deadline,
// then body), then aligns the batch in MaxBatch-read chunks (Front.stream),
// flushing each chunk's results as soon as the engine returns them: NDJSON
// ReadResult lines, or an incrementally-written SAM document under Accept:
// text/x-sam. The request's own context is propagated into every chunk's
// engine call, so a disconnect cancels the remaining work.
func (t *tenant) handleAlignStream(w http.ResponseWriter, r *http.Request) {
	r, reads, cancel, ok := t.front.admit(w, r, int(t.k.Load()))
	if !ok {
		return
	}
	defer cancel()

	sam := WantsSAM(r)
	if sam {
		w.Header().Set("Content-Type", "text/x-sam")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	body, finish := MaybeGzip(w, r)

	// The SAM header is deferred until the first chunk succeeds, so a
	// first-chunk admission failure can still answer with a real status.
	var stream *meraligner.SAMStream
	var streamTargets []meraligner.Seq // the header's target set
	enc := json.NewEncoder(body)
	if t.front.stream(w, r, reads, func(win *window) (err error) {
		if !sam {
			for _, rr := range buildResponse(win).Reads {
				if err := enc.Encode(rr); err != nil {
					return err
				}
			}
		} else if stream == nil {
			streamTargets = win.Result.targets
			if stream, err = meraligner.NewSAMStream(body, streamTargets); err != nil {
				return err
			}
		} else if !sameTargets(streamTargets, win.Result.targets) {
			// A hot-swap replaced the reference mid-stream: the SAM header
			// already written names the old target set, and this chunk's
			// records index the new one. Mixing them would be silent
			// corruption — abort the connection so the client retries
			// against the swapped index.
			panic(http.ErrAbortHandler)
		}
		if sam {
			if err := stream.WriteRange(win.Result.res, win.Result.reads, win.Lo, win.Hi); err != nil {
				return err
			}
			if err := stream.Flush(); err != nil {
				return err
			}
		}
		if gz, ok := body.(*gzip.Writer); ok {
			gz.Flush()
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		return nil
	}) {
		_ = finish()
	}
}

// sameTargets reports whether two target sets are the same backing slice
// (one index instance's Targets() is stable across calls, so identity is
// the cheap and sufficient check).
func sameTargets(a, b []meraligner.Seq) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// ---- observability endpoints ----

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if s.single != nil {
		WriteJSON(w, r, http.StatusOK, s.Snapshot())
		return
	}
	WriteJSON(w, r, http.StatusOK, s.CatalogSnapshot())
}

// handleRefStats serves one reference's stats. A reference that exists but
// has never been queried reports zero counters (no tenant is created).
func (s *Server) handleRefStats(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("ref")
	s.tmu.Lock()
	t := s.tenants[ref]
	s.tmu.Unlock()
	if t != nil {
		WriteJSON(w, r, http.StatusOK, t.snapshotStats())
		return
	}
	refs, err := s.cat.Refs()
	if err != nil {
		WriteError(w, r, http.StatusInternalServerError, &client.ErrorResponse{Error: err.Error()})
		return
	}
	for _, ri := range refs {
		if ri.Ref == ref {
			st := s.stats()
			st.Ref = ref
			WriteJSON(w, r, http.StatusOK, st)
			return
		}
	}
	WriteError(w, r, http.StatusNotFound, &client.ErrorResponse{Error: (&catalog.UnknownRefError{Ref: ref}).Error()})
}

// handleRefs lists the servable references.
func (s *Server) handleRefs(w http.ResponseWriter, r *http.Request) {
	refs, err := s.cat.Refs()
	if err != nil {
		WriteError(w, r, http.StatusInternalServerError, &client.ErrorResponse{Error: err.Error()})
		return
	}
	out := make([]client.RefInfo, len(refs))
	for i, ri := range refs {
		out[i] = client.RefInfo{Ref: ri.Ref, Open: ri.Open, ResidentBytes: ri.ResidentBytes}
	}
	WriteJSON(w, r, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	body, finish := MaybeGzip(w, r)
	var cat *client.CatalogCounters
	if s.cat != nil {
		c := s.catalogCounters()
		cat = &c
	}
	writeMetrics(body, s.allTenants(), cat)
	_ = finish()
}

// TargetsOf renders one resident index's /v1/targets document: every target
// name and length in @SQ order, the seed length, and the shard identity of
// a shard snapshot. Exported for the scatter/gather router's loopback and
// test paths.
func TargetsOf(al *meraligner.Aligner) *client.TargetsResponse {
	targets := al.Targets()
	out := &client.TargetsResponse{
		K:       al.IndexOptions().K,
		Targets: make([]client.TargetInfo, len(targets)),
	}
	for i, t := range targets {
		out.Targets[i] = client.TargetInfo{Name: t.Name, Length: t.Seq.Len()}
	}
	if si := al.ShardInfo(); si != nil {
		out.Shard = &client.ShardMeta{ID: si.ID, Count: si.Count, TargetBase: si.TargetBase, FragmentBase: si.FragmentBase}
	}
	return out
}

// handleTargets serves the single-index reference catalog (GET /v1/targets):
// the material a router needs to build the global SAM header and run
// admission checks without holding any reference bases.
func (s *Server) handleTargets(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, r, http.StatusOK, TargetsOf(s.cfg.Aligner))
}

// handleRefTargets is handleTargets for one reference of a catalog server
// (GET /v1/{ref}/targets). The acquisition pins the index only while the
// response is built — names and lengths are materialized, not aliased.
func (s *Server) handleRefTargets(w http.ResponseWriter, r *http.Request) {
	hdl, err := s.cat.Acquire(r.PathValue("ref"))
	if err != nil {
		s.acquireError(w, r, err)
		return
	}
	resp := TargetsOf(hdl.Aligner())
	hdl.Release()
	WriteJSON(w, r, http.StatusOK, resp)
}

// stats is a stats document carrying only the server's identity and the
// batching knobs every reference's front door runs with.
func (s *Server) stats() client.Stats {
	return client.Stats{Version: s.cfg.Version, Draining: s.Draining(), FrontStats: s.cfg.FrontConfig.withDefaults().knobs(s.calls)}
}

// snapshotStats renders one tenant's wire Stats: its front door's report
// plus the reference's own fields.
func (t *tenant) snapshotStats() client.Stats {
	return client.Stats{
		Ref:            t.ref,
		Version:        t.s.cfg.Version,
		Draining:       t.s.Draining(),
		FrontStats:     t.front.Stats(),
		AlignReadP50Us: t.alignRead.Quantile(0.50) / 1e3,
		AlignReadP99Us: t.alignRead.Quantile(0.99) / 1e3,
		K:              int(t.k.Load()),
		DistinctSeeds:  t.distinctSeeds.Load(),
		TotalLocs:      t.totalLocs.Load(),
		ResidentBytes:  t.resident.Load(),
	}
}

// Snapshot returns the single-index server's wire Stats (the /v1/stats
// body), also available in-process for embedders and benchmarks. A catalog
// server's per-reference stats are its CatalogSnapshot's Refs; there
// Snapshot carries only the server's identity and batching knobs.
func (s *Server) Snapshot() client.Stats {
	if s.single == nil {
		return s.stats()
	}
	return s.single.snapshotStats()
}

// catalogCounters maps the catalog's lifecycle stats to the wire type.
func (s *Server) catalogCounters() client.CatalogCounters {
	cs := s.cat.Stats()
	return client.CatalogCounters{
		OpenRefs:       cs.OpenRefs,
		ResidentBytes:  cs.ResidentBytes,
		BudgetBytes:    cs.Budget,
		Opens:          cs.Opens,
		Evictions:      cs.Evictions,
		HotSwaps:       cs.HotSwaps,
		UncachedServes: cs.Uncached,
	}
}

// CatalogSnapshot returns the catalog-wide stats document (the /v1/stats
// body of a catalog-mode server): lifecycle counters plus one Stats per
// active reference. Panics-free on single-index servers: the catalog
// section is zero and Refs holds the single tenant.
func (s *Server) CatalogSnapshot() client.CatalogStats {
	out := client.CatalogStats{Version: s.cfg.Version, Draining: s.Draining()}
	if s.cat != nil {
		out.Catalog = s.catalogCounters()
	}
	for _, t := range s.allTenants() {
		out.Refs = append(out.Refs, t.snapshotStats())
	}
	return out
}
