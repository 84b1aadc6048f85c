// Package coalesce implements the continuous micro-batching queue shared by
// meraligner's two serving tiers: concurrent small submissions glue into
// shared calls, so a per-call cost — an engine dispatch, an HTTP round-trip
// per shard — is paid once per call instead of once per submitter. This is
// the paper's aggregating-stores idea (§III-A) in the MICA/SNAP serving
// shape: one queue, parameterized over the item type and the call result,
// so the align server (internal/service, items = reads, result = a pinned
// engine call) and the scatter/gather router (internal/cluster, items =
// reads) run literally the same code. The network-DHT client needs no
// queue: the engine already hands it a whole claim's seed lookups per call.
//
// Batching is continuous, not clocked, and dispatch is bounded by a Limit:
// one token per call that may run at once (merserved's engine workers,
// merrouted's replicas of its narrowest shard). The dispatcher sends the
// next queued batch the moment it holds a token, and holds the queue only
// while every token is taken: arrivals then accumulate, and the call that
// takes the next free token carries them all, up to MaxBatch items. Under
// concurrent load batches grow to the arrival rate with no tuning. Submit is
// the only way into a call, whatever a submission's size. Capacity bounds
// the queued items: a submission that would push a non-empty queue past it
// is rejected at once (ErrOverloaded), so under sustained overload the
// queue refuses work instead of stacking calls, and latency stays bounded.
// An empty queue admits any one submission, which dispatches whole.
package coalesce

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel errors callers translate to their transport's statuses (the HTTP
// tiers map them to 429 + Retry-After and 503 draining).
var (
	// ErrOverloaded: the submission would push the queue past its admission
	// bound; the caller should shed load or retry later.
	ErrOverloaded = errors.New("coalesce: admission queue full")
	// ErrDraining: the coalescer no longer admits work.
	ErrDraining = errors.New("coalesce: draining")
)

// Limit is a pool of call tokens, one per call that may run at once; its
// capacity is the bound. The coalescers sharing one Limit together never
// run more calls than that (merserved's references share the engine's).
type Limit chan struct{}

// NewLimit returns a pool of n tokens, at least one.
func NewLimit(n int) Limit { return make(Limit, max(n, 1)) }

// Func runs one coalesced call over the concatenated items of a batch.
type Func[T, R any] func(ctx context.Context, items []T) (R, error)

// Prepare lets the owner derive call-scoped context state from a batch's
// member contexts just before dispatch (the router uses this to stamp a
// carrier span context, adopting a lone member's trace so shard-side logs
// join up). A nil Prepare dispatches with the group context unchanged.
type Prepare func(ctx context.Context, members []context.Context) context.Context

// Stats are the lock-free counters a coalescer's owner embeds in its own
// stats: written by the dispatcher, read whole by stats and metrics
// endpoints. The zero value is ready; a nil *Stats in Config disables
// observation.
type Stats struct {
	Batches   atomic.Int64 // successful calls
	Items     atomic.Int64 // items across those calls
	Coalesced atomic.Int64 // calls gluing >= 2 submissions
	MaxItems  atomic.Int64 // largest call seen
	Canceled  atomic.Int64 // members whose context died before delivery
}

// ObserveBatch records one successful call: how many member submissions
// shared it and how many items they contributed in total. Only completed
// calls count — failed or fully-canceled batches served nothing.
func (s *Stats) ObserveBatch(requests, items int) {
	s.Batches.Add(1)
	s.Items.Add(int64(items))
	if requests >= 2 {
		s.Coalesced.Add(1)
	}
	for {
		cur := s.MaxItems.Load()
		if int64(items) <= cur || s.MaxItems.CompareAndSwap(cur, int64(items)) {
			return
		}
	}
}

// Window is one submission's view of a call: the shared result plus this
// member's item range within the concatenated batch, and the timings needed
// to replay the queue wait into a request trace.
type Window[R any] struct {
	Result R
	Lo, Hi int // this member's items occupy batch positions [Lo, Hi)

	Enq      time.Time // when this member entered the queue
	Disp     time.Time // when its call dispatched
	Done     time.Time // when the call finished
	Requests int       // member submissions sharing the call

	claim *claim[R] // nil unless Config.Release is set
}

// Release drops this window's claim on Result. With Config.Release set the
// holder must call it exactly once, after its last use of Result; otherwise
// it is a no-op.
func (w *Window[R]) Release() {
	if w.claim != nil {
		w.claim.drop()
	}
}

// claim reference-counts one call's result on behalf of Config.Release: one
// reference per member, which its delivered window holds until its holder
// releases it, or which the demux drops for a member already gone. So the
// last holder's Release is the one that releases the result.
type claim[R any] struct {
	res     R
	left    atomic.Int32
	release func(R)
}

func newClaim[R any](res R, refs int, release func(R)) *claim[R] {
	c := &claim[R]{res: res, release: release}
	c.left.Store(int32(refs))
	return c
}

func (c *claim[R]) drop() {
	if c.left.Add(-1) == 0 {
		c.release(c.res)
	}
}

// pending is one queued submission.
type pending[T, R any] struct {
	ctx   context.Context
	items []T
	enq   time.Time
	win   *Window[R]
	err   error
	done  chan struct{}
}

// Config assembles a Coalescer. Call is required; everything else has a
// workable zero value except MaxBatch and Capacity, which bound batch size
// and admitted backlog and must be positive for the queue to admit anything.
type Config[T, R any] struct {
	Call     Func[T, R]
	MaxBatch int     // items per coalesced call
	Capacity int     // admission bound on queued items
	Limit    Limit   // bound on calls in flight; nil means one at a time
	Stats    *Stats  // optional counters
	Prepare  Prepare // optional pre-dispatch context hook

	// Release, when set, makes results pinned resources (the align server's
	// engine calls pin a mapped index that SAM rendering still reads): it
	// runs exactly once per successful call, after the dispatcher and every
	// member handed a Window have let go — members by Window.Release, and
	// the coalescer itself on behalf of a member whose context died before
	// or while its window was handed over. A failed Call must have released
	// whatever it pinned itself.
	Release func(R)
}

// Coalescer is the continuous micro-batching queue. Create with New; it owns
// one dispatcher goroutine until Close or Drain completes.
type Coalescer[T, R any] struct {
	call     Func[T, R]
	prepare  Prepare
	release  func(R)
	maxBatch int
	capacity int // admission bound on queued items
	limit    Limit
	base     context.Context
	st       *Stats

	mu       sync.Mutex
	cond     *sync.Cond // broadcast on queue/inflight transitions
	queue    []*pending[T, R]
	queued   int // items queued
	inflight int // this coalescer's calls running
	closed   bool

	wake    chan struct{} // 1-buffered dispatcher kick
	stopped chan struct{} // dispatcher exited
}

// New starts a coalescer whose calls derive from base.
func New[T, R any](base context.Context, cfg Config[T, R]) *Coalescer[T, R] {
	c := &Coalescer[T, R]{
		call:     cfg.Call,
		prepare:  cfg.Prepare,
		release:  cfg.Release,
		maxBatch: cfg.MaxBatch,
		capacity: cfg.Capacity,
		limit:    cfg.Limit,
		base:     base,
		st:       cfg.Stats,
		wake:     make(chan struct{}, 1),
		stopped:  make(chan struct{}),
	}
	if c.limit == nil {
		c.limit = NewLimit(1)
	}
	c.cond = sync.NewCond(&c.mu)
	go c.run()
	return c
}

// QueuedItems reports the items currently waiting (for stats).
func (c *Coalescer[T, R]) QueuedItems() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queued
}

// Inflight reports this coalescer's running calls (for tests).
func (c *Coalescer[T, R]) Inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// Submit enqueues one submission's items and blocks until its call completes
// or ctx is done. A non-empty queue refuses a submission that would push it
// past Capacity; an empty one admits any.
func (c *Coalescer[T, R]) Submit(ctx context.Context, items []T) (*Window[R], error) {
	p := &pending[T, R]{ctx: ctx, items: items, enq: time.Now(), done: make(chan struct{})}
	c.mu.Lock()
	switch {
	case c.closed:
		c.mu.Unlock()
		return nil, ErrDraining
	case c.queued > 0 && c.queued+len(items) > c.capacity:
		c.mu.Unlock()
		return nil, ErrOverloaded
	}
	c.queue = append(c.queue, p)
	c.queued += len(items)
	c.mu.Unlock()
	c.kick()

	select {
	case <-p.done:
		return p.win, p.err
	case <-ctx.Done():
		// The dispatcher observes the dead ctx at take or demux time and
		// discards this member's share; batchmates are unaffected. The demux
		// may still have assigned a window — both channels can be ready at
		// once — so release the orphan once the dispatcher is done with it,
		// or a pinned result would leak.
		if c.release != nil {
			go func() {
				<-p.done
				if p.win != nil {
					p.win.Release()
				}
			}()
		}
		return nil, ctx.Err()
	}
}

// kick nudges the dispatcher without blocking.
func (c *Coalescer[T, R]) kick() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Close stops admission without waiting; the dispatcher flushes any
// remaining queue and exits. Safe to call more than once.
func (c *Coalescer[T, R]) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.kick()
}

// Drain stops admission and flushes: queued submissions still execute, then
// in-flight calls finish. Returns when empty or ctx expires.
func (c *Coalescer[T, R]) Drain(ctx context.Context) error {
	c.Close()

	idle := make(chan struct{})
	go func() {
		c.mu.Lock()
		for len(c.queue) > 0 || c.inflight > 0 {
			c.cond.Wait()
		}
		c.mu.Unlock()
		close(idle)
	}()
	select {
	case <-idle:
		<-c.stopped
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run is the dispatcher: one goroutine owning batch formation. With work
// queued it waits for a token, so the queue is held only while every token
// is taken, and spawns the call, so arrivals accumulate while it runs.
func (c *Coalescer[T, R]) run() {
	defer close(c.stopped)
	for c.waitForWork() {
		c.limit <- struct{}{}
		if batch, items := c.take(); len(batch) > 0 {
			go c.execute(batch, items)
		} else {
			<-c.limit // every queued member gave up while the token was awaited
		}
	}
}

// waitForWork blocks until the queue is nonempty; false means closed with
// an empty queue.
func (c *Coalescer[T, R]) waitForWork() bool {
	for {
		c.mu.Lock()
		n, closed := len(c.queue), c.closed
		c.mu.Unlock()
		if n > 0 {
			return true
		}
		if closed {
			return false
		}
		<-c.wake
	}
}

// take pops the next coalesced batch: pendings in arrival order up to
// maxBatch items (a lone oversized submission still goes whole); dead-ctx
// submissions complete with their error and never dispatch.
func (c *Coalescer[T, R]) take() ([]*pending[T, R], int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var batch []*pending[T, R]
	items := 0
	for len(c.queue) > 0 {
		p := c.queue[0]
		if err := p.ctx.Err(); err != nil {
			c.pop()
			p.err = err
			close(p.done)
			if c.st != nil {
				c.st.Canceled.Add(1)
			}
			continue
		}
		if items > 0 && items+len(p.items) > c.maxBatch {
			break
		}
		c.pop()
		batch = append(batch, p)
		items += len(p.items)
	}
	if len(batch) > 0 {
		c.inflight++
	}
	c.cond.Broadcast()
	return batch, items
}

// pop removes the queue head (caller holds mu).
func (c *Coalescer[T, R]) pop() {
	p := c.queue[0]
	c.queue[0] = nil
	c.queue = c.queue[1:]
	c.queued -= len(p.items)
}

// execute runs one coalesced call and demuxes the shared result to every
// member by item range.
func (c *Coalescer[T, R]) execute(batch []*pending[T, R], items int) {
	all := make([]T, 0, items)
	for _, p := range batch {
		all = append(all, p.items...)
	}
	ctx, cancel := groupContext(c.base, batch)
	if c.prepare != nil {
		members := make([]context.Context, len(batch))
		for i, p := range batch {
			members[i] = p.ctx
		}
		ctx = c.prepare(ctx, members)
	}
	disp := time.Now()
	res, err := c.call(ctx, all)
	finished := time.Now()
	cancel()
	if err == nil && c.st != nil {
		c.st.ObserveBatch(len(batch), items)
	}

	var cl *claim[R]
	if err == nil && c.release != nil {
		cl = newClaim(res, len(batch), c.release)
	}
	lo := 0
	for _, p := range batch {
		hi := lo + len(p.items)
		switch {
		case err != nil:
			p.err = err
		case p.ctx.Err() != nil:
			p.err = p.ctx.Err()
			if c.st != nil {
				c.st.Canceled.Add(1)
			}
			if cl != nil {
				cl.drop()
			}
		default:
			p.win = &Window[R]{Result: res, Lo: lo, Hi: hi, Enq: p.enq, Disp: disp, Done: finished, Requests: len(batch), claim: cl}
		}
		close(p.done)
		lo = hi
	}
	<-c.limit // the freed token lets a held batch dispatch
	c.mu.Lock()
	c.inflight-- // wakes Drain
	c.cond.Broadcast()
	c.mu.Unlock()
}

// groupContext derives the call context of one coalesced batch: done when
// the base context is, or when every member's own context is — a lone
// disconnect never kills its batchmates' call. When every member has a
// deadline the call carries the latest of them, so work it hands on (shard
// RPCs) sees the remaining budget; one member without a deadline leaves the
// call without one, and no timer.
func groupContext[T, R any](base context.Context, batch []*pending[T, R]) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, p := range batch {
		d, ok := p.ctx.Deadline()
		if !ok {
			latest = time.Time{}
			break
		}
		if d.After(latest) {
			latest = d
		}
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if latest.IsZero() {
		ctx, cancel = context.WithCancel(base)
	} else {
		ctx, cancel = context.WithDeadline(base, latest)
	}
	var left atomic.Int32
	left.Store(int32(len(batch)))
	for _, p := range batch {
		go func(done <-chan struct{}) {
			select {
			case <-done:
				if left.Add(-1) == 0 {
					cancel()
				}
			case <-ctx.Done():
			}
		}(p.ctx.Done())
	}
	return ctx, cancel
}
