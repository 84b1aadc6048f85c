// Package catalog manages a directory of .merx index snapshots as one
// multi-genome serving catalog: N references, each a memory-mapped
// snapshot, opened lazily on first request, kept resident under a byte
// budget with LRU eviction, and hot-swapped with zero downtime when the
// snapshot file changes on disk.
//
// The lifecycle contract is refcount-based. Acquire pins the reference's
// current index and returns a Handle; every in-flight engine call holds
// one, so an index that is evicted (budget pressure) or retired (hot-swap,
// catalog shutdown) is only Closed after the last Handle is released —
// a pinned index never closes mid-batch. Because snapshots are mmap'd,
// eviction is cheap: the table's pages stay in the host page cache, and
// reopening the same file later costs milliseconds, not an index rebuild.
//
// Hot-swap: each open index records the identity (mtime, size) of the file
// it was opened from. When an Acquire notices the file has changed (checks
// are rate-limited by Options.SwapPoll), it opens the new snapshot, swaps
// it in atomically, and retires the old one — in-flight calls drain on the
// old index, new calls land on the new one, and no request ever fails or
// blocks on the transition.
package catalog

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/cache"
)

// SnapshotExt is the file extension a catalog directory entry must carry;
// the reference name is the file name with the extension stripped.
const SnapshotExt = ".merx"

// ErrUnknownRef matches (with errors.Is) every error Acquire returns for a
// reference the catalog does not serve: no such snapshot file, or a name
// that is not a valid reference name.
var ErrUnknownRef = errors.New("catalog: unknown reference")

// ErrCatalogClosed is returned by Acquire after Close.
var ErrCatalogClosed = errors.New("catalog: closed")

// UnknownRefError is the concrete ErrUnknownRef: it names the reference.
type UnknownRefError struct {
	Ref string
}

// Error names the missing reference.
func (e *UnknownRefError) Error() string {
	return fmt.Sprintf("catalog: unknown reference %q", e.Ref)
}

// Is matches ErrUnknownRef.
func (e *UnknownRefError) Is(target error) bool { return target == ErrUnknownRef }

// Options shapes one Catalog. Dir is required.
type Options struct {
	// Dir is the snapshot directory: every <ref>.merx file in it is a
	// servable reference. Files may appear, disappear, or be atomically
	// replaced while the catalog is serving.
	Dir string

	// Budget bounds the resident bytes of open indexes
	// (Aligner.ResidentBytes each); least-recently-used references are
	// evicted to stay under it. <= 0 means unlimited: an LRU that never
	// evicts, so every opened index stays resident until Close. A single
	// index larger than the whole budget is served uncached — opened for
	// the requests that need it and closed as soon as they drain.
	Budget int64

	// Threads is the worker-pool default of lazily opened indexes (the
	// OpenThreads parameter). <= 0 means the host CPU count.
	Threads int

	// SwapPoll rate-limits the freshness check behind hot-swap: a
	// reference's snapshot file identity (mtime, size) is re-stat'd at most
	// once per SwapPoll. 0 checks on every Acquire (tests); < 0 disables
	// hot-swap entirely.
	SwapPoll time.Duration
}

// Handle is one pin on an open index. The Aligner is valid until Release;
// callers must Release exactly once, after which the index may close (if
// it was evicted or swapped out while pinned).
type Handle struct {
	al      *meraligner.Aligner
	release func()
}

// Aligner returns the pinned resident index.
func (h *Handle) Aligner() *meraligner.Aligner { return h.al }

// Release drops the pin. The Handle must not be used afterwards.
func (h *Handle) Release() {
	if h.release != nil {
		h.release()
		h.release = nil
	}
}

// Source yields pinned handles on one reference's current index: the seam
// between a serving tenant and the index lifecycle behind it. A Catalog
// provides one Source per reference; Static adapts a fixed resident
// Aligner (single-index serving) to the same seam.
type Source interface {
	Acquire() (*Handle, error)
}

// Static is a Source over one fixed resident Aligner with no lifecycle:
// Acquire always succeeds and Release is a no-op. It adapts single-index
// serving to the catalog seam.
func Static(al *meraligner.Aligner) Source { return staticSource{al} }

type staticSource struct{ al *meraligner.Aligner }

// Acquire returns an unmanaged handle on the fixed aligner.
func (s staticSource) Acquire() (*Handle, error) {
	return &Handle{al: s.al, release: func() {}}, nil
}

// instance is one open index: an Aligner plus the identity of the snapshot
// file it came from and the pin count that defers its Close.
type instance struct {
	ref   string
	al    *meraligner.Aligner
	bytes int64 // ResidentBytes at open, the LRU charge

	// Identity of the snapshot file this instance was opened from;
	// a mismatch against a fresh stat triggers hot-swap.
	mtime time.Time
	size  int64

	// refs counts pins: one held by the catalog while the instance is
	// current (dropped by retire), plus one per outstanding Handle. The
	// aligner closes when the count reaches zero.
	refs    atomic.Int64
	retired atomic.Bool
}

// tryPin adds one pin unless the count already reached zero — the instance
// was retired and its last Handle released, so the aligner is closed (or
// closing) and must not be handed out again. Retirement runs under lmu, not
// the entry lock, so only the count itself can arbitrate this race.
func (i *instance) tryPin() bool {
	for {
		n := i.refs.Load()
		if n == 0 {
			return false
		}
		if i.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// unref drops one pin, closing the aligner on the last one. Aligner.Close
// is itself drain-aware, so even a mis-sequenced release cannot unmap a
// table under a running engine call.
func (i *instance) unref() {
	if i.refs.Add(-1) == 0 {
		i.al.Close()
	}
}

// retire drops the catalog's own pin exactly once: the instance is no
// longer current (evicted, swapped out, or the catalog is closing) and
// will close as soon as outstanding Handles drain.
func (i *instance) retire() {
	if !i.retired.Swap(true) {
		i.unref()
	}
}

// entry is the permanent per-reference record: it survives eviction (the
// serving tenant above it keeps batcher and stats across the open/evict/
// reopen cycle) and serializes opens and swaps for its reference.
type entry struct {
	ref  string
	path string

	mu        sync.Mutex // serializes open/swap; held across the (slow) open
	cur       *instance  // current index; nil or retired when not open
	lastCheck time.Time  // last freshness stat, rate-limited by SwapPoll
}

// Catalog serves handles over a directory of snapshots. Safe for
// concurrent use.
type Catalog struct {
	opt Options

	mu      sync.Mutex // guards entries
	entries map[string]*entry
	closed  bool

	// lmu guards lru and the retire decisions linked to it. It is a leaf
	// lock: nothing else is acquired under it (instance.retire can close an
	// aligner, but only when no pins remain — a fast munmap).
	lmu sync.Mutex
	lru *cache.LRU[string, *instance] // capped at Budget, or never full

	opens    atomic.Int64 // snapshot opens (cold + reopen + swap)
	evicts   atomic.Int64 // budget evictions
	swaps    atomic.Int64 // hot-swaps
	uncached atomic.Int64 // serves of indexes larger than the whole budget
}

// New opens a catalog over opt.Dir. The directory must exist; its
// snapshots are discovered lazily, so an empty directory is a valid (if
// unhelpful) catalog.
func New(opt Options) (*Catalog, error) {
	st, err := os.Stat(opt.Dir)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("catalog: %s is not a directory", opt.Dir)
	}
	if opt.Threads <= 0 {
		opt.Threads = runtime.NumCPU()
	}
	capBytes := opt.Budget
	if capBytes <= 0 {
		capBytes = math.MaxInt64 // unlimited: an LRU that never evicts
	}
	return &Catalog{opt: opt, entries: make(map[string]*entry), lru: cache.NewLRU[string, *instance](capBytes)}, nil
}

// validRef reports whether name is a servable reference name: it must map
// to a file directly inside the catalog directory, so path separators,
// "..", and a leading dot (hidden/temp files) are all rejected.
func validRef(name string) bool {
	if name == "" || name[0] == '.' {
		return false
	}
	if strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return false
	}
	return true
}

// entryFor returns the permanent record of ref, creating it on first use.
func (c *Catalog) entryFor(ref string) (*entry, error) {
	if !validRef(ref) {
		return nil, &UnknownRefError{Ref: ref}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrCatalogClosed
	}
	e, ok := c.entries[ref]
	if !ok {
		e = &entry{ref: ref, path: filepath.Join(c.opt.Dir, ref+SnapshotExt)}
		c.entries[ref] = e
	}
	return e, nil
}

// Acquire pins the current index of ref, lazily opening (or hot-swapping)
// its snapshot, and returns the Handle. Unknown references fail with an
// error matching ErrUnknownRef; damaged snapshots surface their typed
// merx error.
func (c *Catalog) Acquire(ref string) (*Handle, error) {
	e, err := c.entryFor(ref)
	if err != nil {
		return nil, err
	}
	inst, old, err := c.pin(e)
	if err != nil {
		return nil, err
	}

	// LRU bookkeeping happens outside the entry lock, so a budget eviction
	// of reference B triggered by touching reference A never waits on B's
	// (possibly mid-open) entry lock.
	c.touch(inst, old)
	return &Handle{al: inst.al, release: inst.unref}, nil
}

// pin returns ref's current instance with one pin added for the caller's
// Handle, opening or swapping first when needed. old is the instance a
// hot-swap just replaced (nil otherwise); the caller must retire it after
// LRU bookkeeping.
func (c *Catalog) pin(e *entry) (inst, old *instance, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	if e.cur != nil && e.cur.retired.Load() {
		e.cur = nil // evicted while we weren't looking; reopen below
	}
	if e.cur != nil && c.opt.SwapPoll >= 0 && time.Since(e.lastCheck) >= c.opt.SwapPoll {
		e.lastCheck = time.Now()
		if st, serr := os.Stat(e.path); serr == nil {
			if !st.ModTime().Equal(e.cur.mtime) || st.Size() != e.cur.size {
				// The snapshot changed on disk: swap. The old instance keeps
				// serving its in-flight calls until they drain.
				next, oerr := c.open(e)
				if oerr != nil {
					// The replacement is unreadable (e.g. caught mid-write
					// before an atomic rename, or genuinely corrupt): keep
					// serving the healthy old index; a later check retries.
					next = nil
				} else {
					old, e.cur = e.cur, next
					c.swaps.Add(1)
				}
			}
		}
		// A stat failure (file deleted) keeps the open index serving: the
		// mapping stays valid on every unix, and a catalog with traffic on
		// a ref should not fail it because of a transient directory state.
	}
	for {
		if e.cur == nil {
			next, oerr := c.open(e)
			if oerr != nil {
				return nil, nil, oerr
			}
			e.cur = next
		}
		if e.cur.tryPin() { // the Handle's pin
			return e.cur, old, nil
		}
		// A budget eviction retired and closed the instance after the
		// retired check above (eviction holds lmu, not e.mu): reopen. A
		// freshly opened instance is known only here, so the retry pins.
		e.cur = nil
	}
}

// open maps e's snapshot file and returns the new instance holding the
// catalog's pin. Called with e.mu held: concurrent cold requests for one
// reference wait here and share the single open.
func (c *Catalog) open(e *entry) (*instance, error) {
	// Stat before opening: if the file is atomically replaced between the
	// two calls, the recorded identity is stale and the next freshness
	// check converges with one redundant swap — never a missed one.
	st, err := os.Stat(e.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &UnknownRefError{Ref: e.ref}
		}
		return nil, fmt.Errorf("catalog: %s: %w", e.ref, err)
	}
	al, err := meraligner.OpenThreads(c.opt.Threads, e.path)
	if err != nil {
		return nil, fmt.Errorf("catalog: opening %s: %w", e.ref, err)
	}
	c.opens.Add(1)
	inst := &instance{
		ref:   e.ref,
		al:    al,
		bytes: al.ResidentBytes(),
		mtime: st.ModTime(),
		size:  st.Size(),
	}
	inst.refs.Store(1) // the catalog's pin, dropped by retire
	e.lastCheck = time.Now()
	return inst, nil
}

// touch records inst as most recently used, charges it to the budget, and
// retires old (the hot-swapped-out predecessor, if any). Evictions the
// charge causes are retired here too.
func (c *Catalog) touch(inst, old *instance) {
	c.lmu.Lock()
	defer c.lmu.Unlock()
	if old != nil {
		// Uncharge the swapped-out instance. Another goroutine may already
		// have charged the successor under this key; only remove what we
		// meant to remove.
		if v, ok := c.lru.Remove(inst.ref); ok && v != old {
			c.lru.Put(inst.ref, v, v.bytes)
		}
		old.retire()
	}
	if inst.retired.Load() {
		return // evicted between pin and here; its Handle still serves
	}
	if _, hit := c.lru.Get(inst.ref); hit {
		return // recency updated
	}
	stored, evicted := c.lru.Put(inst.ref, inst, inst.bytes)
	if !stored {
		// Bigger than the whole budget: serve uncached. The caller's Handle
		// keeps it alive for this request; it closes on release.
		c.uncached.Add(1)
		inst.retire()
	}
	for _, ev := range evicted {
		c.evicts.Add(1)
		ev.Value.retire()
	}
}

// Ref returns the Source of one reference, for a serving tenant to hold:
// each Acquire on it resolves the catalog's then-current index of ref.
func (c *Catalog) Ref(ref string) Source { return refSource{c: c, ref: ref} }

type refSource struct {
	c   *Catalog
	ref string
}

// Acquire pins the reference's current index via the owning catalog.
func (s refSource) Acquire() (*Handle, error) { return s.c.Acquire(s.ref) }

// RefInfo describes one servable reference for listings.
type RefInfo struct {
	Ref           string `json:"ref"`
	Open          bool   `json:"open"`
	ResidentBytes int64  `json:"resident_bytes,omitempty"` // 0 unless open
}

// Refs lists the servable references: every valid *.merx file currently in
// the directory, plus the open state of each. Sorted by name.
func (c *Catalog) Refs() ([]RefInfo, error) {
	des, err := os.ReadDir(c.opt.Dir)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	var out []RefInfo
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, SnapshotExt) {
			continue
		}
		ref := strings.TrimSuffix(name, SnapshotExt)
		if !validRef(ref) {
			continue
		}
		info := RefInfo{Ref: ref}
		c.mu.Lock()
		e := c.entries[ref]
		c.mu.Unlock()
		if e != nil {
			e.mu.Lock()
			if e.cur != nil && !e.cur.retired.Load() {
				info.Open = true
				info.ResidentBytes = e.cur.bytes
			}
			e.mu.Unlock()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ref < out[j].Ref })
	return out, nil
}

// Stats is a point-in-time view of the catalog's lifecycle counters.
type Stats struct {
	OpenRefs      int   `json:"open_refs"`
	ResidentBytes int64 `json:"resident_bytes"`
	Budget        int64 `json:"budget_bytes"` // 0 = unlimited
	Opens         int64 `json:"opens"`
	Evictions     int64 `json:"evictions"`
	HotSwaps      int64 `json:"hot_swaps"`
	Uncached      int64 `json:"uncached_serves"`
}

// Stats snapshots the lifecycle counters and the current residency.
func (c *Catalog) Stats() Stats {
	st := Stats{
		Budget:    c.opt.Budget,
		Opens:     c.opens.Load(),
		Evictions: c.evicts.Load(),
		HotSwaps:  c.swaps.Load(),
		Uncached:  c.uncached.Load(),
	}
	if c.opt.Budget < 0 {
		st.Budget = 0
	}
	st.OpenRefs = c.lru.Len()
	st.ResidentBytes = c.lru.UsedBytes()
	return st
}

// ResidentBytes reports the bytes currently charged to the budget.
func (c *Catalog) ResidentBytes() int64 { return c.Stats().ResidentBytes }

// Close retires every open index and rejects further Acquires. Indexes
// pinned by outstanding Handles close when those are released; callers
// wanting a fully quiesced shutdown drain their request paths first (as
// the service's Drain does).
func (c *Catalog) Close() error {
	c.mu.Lock()
	c.closed = true
	entries := make([]*entry, 0, len(c.entries))
	for _, e := range c.entries {
		entries = append(entries, e)
	}
	c.mu.Unlock()
	for _, e := range entries {
		e.mu.Lock()
		cur := e.cur
		e.cur = nil
		e.mu.Unlock()
		if cur != nil {
			c.lmu.Lock()
			if v, ok := c.lru.Remove(cur.ref); ok && v != cur {
				// A successor slipped in; retire it too (we are closing).
				v.retire()
			}
			cur.retire()
			c.lmu.Unlock()
		}
	}
	return nil
}
