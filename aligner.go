package meraligner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/merx"
)

// This file is the persistent half of the public API: build the seed index
// once with Build, then serve query batches against the resident index with
// (*Aligner).Align from any number of goroutines. The one-shot functions
// (AlignThreaded, AlignFiles) are convenience wrappers that compose
// these two steps for a single batch.

// Re-exported option halves: IndexOptions configures what Build constructs
// (seed length, fragmentation, exact matching);
// QueryOptions configures a single Align call (sensitivity threshold,
// scoring, extension). See core.Options for the one-shot union.
type (
	IndexOptions = core.IndexOptions
	QueryOptions = core.QueryOptions

	// QueryStatus and QueryStat surface per-query admission and accounting:
	// Results.TooShort lists reads shorter than K (typed QueryTooShort
	// status instead of a silent drop), and Results.PerQuery carries one
	// QueryStat per read when QueryOptions.CollectPerQuery is set — the
	// latency source behind a service's p50/p99 reporting.
	QueryStatus = core.QueryStatus
	QueryStat   = core.QueryStat
)

// Per-query statuses (see Results.TooShort and Results.PerQuery).
const (
	QueryOK       = core.QueryOK
	QueryTooShort = core.QueryTooShort
)

// DefaultIndexOptions returns the paper's build-time configuration for seed
// length k (51 for the human/wheat runs, 19 for E. coli).
func DefaultIndexOptions(k int) IndexOptions { return core.DefaultIndexOptions(k) }

// DefaultQueryOptions returns the paper's query-time configuration.
func DefaultQueryOptions() QueryOptions { return core.DefaultQueryOptions() }

// Aligner is a resident, concurrency-safe aligner over one target set: the
// product of Build. The seed index, fragment table, and single-copy flags
// are constructed exactly once; afterwards the Aligner is immutable, and
// Align may be called from any number of goroutines concurrently.
type Aligner struct {
	ix      *core.ThreadedIndex
	threads int

	// Close/Align coordination: Align holds the read side for the duration
	// of its engine call, Close takes the write side, so Close blocks until
	// every in-flight Align drains and no Align can start against a released
	// mapping (it gets ErrAlignerClosed instead of a fault).
	mu     sync.RWMutex
	closed bool
}

// ErrAlignerClosed is returned by Align calls that arrive after Close: the
// snapshot mapping (if any) is released and the Aligner must not be used.
var ErrAlignerClosed = errors.New("meraligner: aligner is closed")

// acquire pins the Aligner for one engine call; the caller must release()
// when the call returns. It fails once Close has begun.
func (a *Aligner) acquire() error {
	a.mu.RLock()
	if a.closed {
		a.mu.RUnlock()
		return ErrAlignerClosed
	}
	return nil
}

func (a *Aligner) release() { a.mu.RUnlock() }

// Build constructs the seed index over targets with the execution engine
// (§III of the paper: fragmentation, parallel seed extraction with
// aggregating stores, lock-free drain, single-copy marking) and returns the
// resident Aligner. threads is the worker-pool size used both for
// construction and as the default pool size of each Align call.
func Build(threads int, opt IndexOptions, targets []Seq) (*Aligner, error) {
	ix, err := core.BuildIndex(threads, opt, targets)
	if err != nil {
		return nil, err
	}
	return &Aligner{ix: ix, threads: threads}, nil
}

// BuildFiles reads targets from a FASTA file (gzip transparently handled)
// and builds the resident Aligner; the parsed targets are available via
// (*Aligner).Targets.
func BuildFiles(threads int, opt IndexOptions, targetPath string) (*Aligner, error) {
	targets, err := ReadFasta(targetPath)
	if err != nil {
		return nil, fmt.Errorf("meraligner: reading targets: %w", err)
	}
	return Build(threads, opt, targets)
}

// Align aligns one batch of queries against the resident index (the
// aligning phase of Algorithm 1 with the exact-match fast path, seed-hit
// threshold, and Smith-Waterman extension of every candidate: with
// traceback when alignments are collected, score-only on statistics-only
// calls). It is safe to call concurrently: every call owns its worker pool
// and result buffers. The pool is the Build-time thread count but never
// more than one worker per 256 reads, so a batch of at most 256 reads runs
// on the calling goroutine. Cancellation is honored between
// work chunks — when ctx is done, Align stops claiming query batches and
// returns ctx.Err(). Results carry this call's wall-clock align-phase stat;
// alignments are byte-identical to a one-shot AlignThreaded run over the
// same inputs and options.
func (a *Aligner) Align(ctx context.Context, queries []Seq, opt QueryOptions) (*Results, error) {
	return a.AlignWorkers(ctx, a.threads, queries, opt)
}

// AlignWorkers is Align with an explicit worker-pool size for this call,
// overriding the Build-time default — e.g. a server dedicating fewer
// workers per request under concurrent load.
func (a *Aligner) AlignWorkers(ctx context.Context, workers int, queries []Seq, opt QueryOptions) (*Results, error) {
	if err := a.acquire(); err != nil {
		return nil, err
	}
	defer a.release()
	return a.ix.Query(ctx, workers, opt, queries)
}

// Targets returns the target set the index was built over (needed by the
// SAM writers).
func (a *Aligner) Targets() []Seq { return a.ix.Targets() }

// Threads returns the Build-time worker-pool size — the default pool of
// each Align call (services sizing their own pools start from it).
func (a *Aligner) Threads() int { return a.threads }

// IndexOptions returns the build-time options of the resident index.
func (a *Aligner) IndexOptions() IndexOptions { return a.ix.Options() }

// IndexStats returns the seed-index statistics snapshot taken when the
// build sealed the table.
func (a *Aligner) IndexStats() dht.Stats { return a.ix.Stats() }

// BuildPhases returns the wall-clock phases of index construction.
func (a *Aligner) BuildPhases() []core.Phase { return a.ix.BuildPhases() }

// BuildWall is the end-to-end wall-clock seconds of index construction.
func (a *Aligner) BuildWall() float64 { return a.ix.BuildWall() }

// ResidentBytes estimates the memory held by the resident index: the
// sealed seed table plus the unpacked target codes used for extension. For
// an Aligner produced by Open, the seed-table portion is file-backed — it
// lives in the shared page cache rather than this process's heap, and
// replicas serving the same snapshot on one host pay for it once.
func (a *Aligner) ResidentBytes() int64 {
	return a.ix.ResidentBytes() + a.ix.TargetCodesBytes()
}

// Snapshot persistence: ErrCorruptIndex matches (with errors.Is) every
// error Open returns for a damaged snapshot — truncated file, checksum
// mismatch, impossible offsets — and ErrIncompatibleIndex every error for a
// file this build cannot use: not a .merx snapshot, a future format
// version, or a different struct layout. The concrete error types carry the
// failing section and reason.
var (
	ErrCorruptIndex      = merx.ErrCorrupt
	ErrIncompatibleIndex = merx.ErrIncompatible
)

// Typed snapshot errors: CorruptIndexError names the damaged file section
// ("header", "section table", "META", "TARG", "DHTS") and the validation
// that failed; IncompatibleIndexError explains why the file, though
// possibly intact, cannot be used by this build.
type (
	CorruptIndexError      = merx.CorruptError
	IncompatibleIndexError = merx.IncompatibleError
)

// Save writes the resident index as a .merx snapshot at path: a versioned,
// checksummed binary image of the sealed seed table, the packed reference,
// and the build options (docs/INDEX_FORMAT.md specifies the format). The
// write is atomic — a temporary file renamed into place — so a crash never
// leaves a truncated snapshot where Open might find it. The snapshot
// depends only on the index contents, not on the worker count that built
// it; a saved-then-opened Aligner produces byte-identical alignments.
func (a *Aligner) Save(path string) error {
	if err := a.acquire(); err != nil {
		return err
	}
	defer a.release()
	return a.ix.Save(path)
}

// Open memory-maps a .merx snapshot written by Save and returns a resident
// Aligner without rebuilding anything: the sealed seed table and the packed
// reference are used zero-copy from the read-only mapping, so cold start
// costs milliseconds instead of an index construction, and N replicas
// opening the same file on one host share a single physical copy of the
// table through the page cache. The Align-call default worker-pool size is
// the host CPU count; use OpenThreads to pick another.
//
// Damaged files fail with an error matching ErrCorruptIndex (naming the
// bad section); files this build cannot use fail with one matching
// ErrIncompatibleIndex. Release the mapping with Close when done.
func Open(path string) (*Aligner, error) { return OpenThreads(runtime.NumCPU(), path) }

// OpenThreads is Open with an explicit default worker-pool size for Align
// calls (the role Build's threads parameter plays for built indexes).
func OpenThreads(threads int, path string) (*Aligner, error) {
	ix, err := core.LoadIndex(threads, path)
	if err != nil {
		return nil, err
	}
	return &Aligner{ix: ix, threads: threads}, nil
}

// Mapped reports whether this Aligner serves a memory-mapped snapshot
// (true after Open) rather than a heap-built index (false after Build).
func (a *Aligner) Mapped() bool { return a.ix.Mapped() }

// Close releases the snapshot mapping of an Aligner produced by Open; the
// Aligner must not be used afterwards. Close is drain-aware: it blocks
// until every in-flight Align/AlignWorkers/Save call has returned, then
// releases the mapping, and any call racing past that point fails with
// ErrAlignerClosed instead of touching unmapped memory. On a
// Build-produced Aligner the mapping release is a no-op, but the
// closed-state transition still applies, so deferring Close is always
// safe. Close is idempotent.
func (a *Aligner) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	return a.ix.Close()
}
