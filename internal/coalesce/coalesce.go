// Package coalesce implements the continuous micro-batching queue shared by
// every network tier of meraligner: concurrent small submissions glue into
// shared calls, so a per-call cost — an engine dispatch, an HTTP round-trip
// per shard, a seed-lookup RPC per owner — is paid once per batching window
// instead of once per submitter. This is the paper's aggregating-stores
// idea (§III-A) in the MICA/SNAP serving shape: one queue, parameterized
// over the item type and the call result, so the align server
// (internal/service, items = reads, result = a pinned engine call), the
// scatter/gather router (internal/cluster, items = reads) and the
// network-DHT client (internal/dhtnet, items = seed lookups) run literally
// the same code.
//
// Batching is continuous, not clocked: when no call is in flight the next
// queued submission dispatches immediately (an idle engine is never held
// hostage to a timer), and while a call is in flight new arrivals
// accumulate — the following call takes them all, up to MaxBatch items.
// Under concurrent load batches grow to the arrival rate with no tuning.
// MaxWait caps how long a queued submission may wait behind a busy call
// before an overlapping call is dispatched anyway (so one slow mega-batch
// cannot stall the queue), and Capacity bounds the queued items: a
// submission that would exceed it is rejected at once (ErrOverloaded), so
// latency stays bounded instead of the queue growing under overload.
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

// Func runs one coalesced call over the concatenated items of a batch.
type Func[T, R any] func(ctx context.Context, items []T) (R, error)

// Prepare lets the owner derive call-scoped context state from a batch's
// member contexts just before dispatch (the router uses this to stamp a
// carrier span context, adopting a lone member's trace so shard-side logs
// join up). A nil Prepare dispatches with the group context unchanged.
type Prepare func(ctx context.Context, members []context.Context) context.Context

// Stats are the lock-free counters a coalescer's owner embeds in its own
// stats: written by the dispatcher (and by owners counting their direct
// calls), read whole by stats and metrics endpoints. The zero value is
// ready; a nil *Stats in Config disables observation.
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

// claim reference-counts one call's result on behalf of Config.Release: the
// dispatcher holds one reference while demuxing and every delivered window
// one until its holder releases it.
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
	MaxBatch int           // items per coalesced call
	MaxWait  time.Duration // window held open behind a busy call; <=0 disables
	Capacity int           // admission bound on queued items
	Stats    *Stats        // optional counters
	Prepare  Prepare       // optional pre-dispatch context hook

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
	maxWait  time.Duration
	capacity int // admission bound on queued items
	base     context.Context
	st       *Stats

	mu       sync.Mutex
	cond     *sync.Cond // broadcast on queue/inflight transitions
	queue    []*pending[T, R]
	queued   int // items queued
	inflight int // calls running
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
		maxWait:  cfg.MaxWait,
		capacity: cfg.Capacity,
		base:     base,
		st:       cfg.Stats,
		wake:     make(chan struct{}, 1),
		stopped:  make(chan struct{}),
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

// Inflight reports the calls currently running (for tests).
func (c *Coalescer[T, R]) Inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// Direct runs Call over one big submission's items without queueing, under
// the caller's own context (no coalescing to gain; a disconnect cancels the
// call itself). It shares the inflight count, so queued small submissions
// coalesce behind it instead of dispatching into an already-busy callee,
// and Drain waits for it. Stats are the caller's to record.
func (c *Coalescer[T, R]) Direct(ctx context.Context, items []T) (*Window[R], error) {
	c.mu.Lock()
	c.inflight++
	c.mu.Unlock()
	start := time.Now()
	res, err := c.call(ctx, items)
	finished := time.Now()
	c.finishCall()
	if err != nil {
		return nil, err
	}
	w := &Window[R]{Result: res, Hi: len(items), Enq: start, Disp: start, Done: finished, Requests: 1}
	if c.release != nil {
		w.claim = newClaim(res, 1, c.release)
	}
	return w, nil
}

// finishCall retires one running call and lets a held window dispatch.
func (c *Coalescer[T, R]) finishCall() {
	c.mu.Lock()
	c.inflight--
	c.cond.Broadcast()
	c.mu.Unlock()
	c.kick()
}

// Submit enqueues one submission's items and blocks until its call completes
// or ctx is done.
func (c *Coalescer[T, R]) Submit(ctx context.Context, items []T) (*Window[R], error) {
	p := &pending[T, R]{ctx: ctx, items: items, enq: time.Now(), done: make(chan struct{})}
	c.mu.Lock()
	switch {
	case c.closed:
		c.mu.Unlock()
		return nil, ErrDraining
	case c.queued+len(items) > c.capacity:
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

// run is the dispatcher: one goroutine owning batch formation; executions
// are spawned so arrivals accumulate while a call is in flight.
func (c *Coalescer[T, R]) run() {
	defer close(c.stopped)
	for {
		if !c.waitForWork() {
			return
		}
		c.waitWindow()
		batch, items := c.take()
		if len(batch) > 0 {
			go c.execute(batch, items)
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

// waitWindow holds the queue open for coalescing while a call is in flight,
// returning when no call is running, maxBatch items are queued, maxWait
// elapsed, or drain started.
func (c *Coalescer[T, R]) waitWindow() {
	if c.maxWait <= 0 {
		return
	}
	timer := time.NewTimer(c.maxWait)
	defer timer.Stop()
	for {
		c.mu.Lock()
		ready := c.queued >= c.maxBatch || c.closed || c.inflight == 0
		c.mu.Unlock()
		if ready {
			return
		}
		select {
		case <-timer.C:
			return
		case <-c.wake:
		}
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
		cl = newClaim(res, len(batch)+1, c.release)
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
	if cl != nil {
		cl.drop() // the dispatcher's own reference
	}
	c.finishCall()
}

// groupContext derives the call context of one coalesced batch: done when
// the base context is, or when every member's own context is — a lone
// disconnect never kills its batchmates' call.
func groupContext[T, R any](base context.Context, batch []*pending[T, R]) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(base)
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
