package coalesce

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// call is the result type of the test coalescers: how many items its call
// carried.
type call struct{ items int }

// blockingCall returns a Func whose every call announces itself on starts
// (handing the test its private release channel) and blocks until released
// — the deterministic way to hold the callee busy so arrivals coalesce
// behind it.
func blockingCall() (Func[int, *call], chan chan struct{}) {
	starts := make(chan chan struct{})
	return func(ctx context.Context, batch []int) (*call, error) {
		release := make(chan struct{})
		starts <- release
		select {
		case <-release:
			return &call{items: len(batch)}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}, starts
}

type submitResult struct {
	win *Window[*call]
	err error
}

// submitAsync submits n items in the background.
func submitAsync(c *Coalescer[int, *call], ctx context.Context, n int) chan submitResult {
	out := make(chan submitResult, 1)
	go func() {
		w, err := c.Submit(ctx, make([]int, n))
		out <- submitResult{w, err}
	}()
	return out
}

// newTest is a coalescer running one call at a time: a busy callee holds
// the queue.
func newTest(fn Func[int, *call], maxBatch int, capacity int) *Coalescer[int, *call] {
	return New(context.Background(), Config[int, *call]{Call: fn, MaxBatch: maxBatch, Capacity: capacity})
}

func TestQueuedCancelDropsOnlyThatRequest(t *testing.T) {
	// A and B queue behind a busy call; A's client disconnects while still
	// queued. The next batch must carry only B.
	fn, starts := blockingCall()
	c := newTest(fn, 64, 1024)

	primer := submitAsync(c, context.Background(), 1)
	relPrimer := <-starts // callee now busy with the primer

	ctxA, cancelA := context.WithCancel(context.Background())
	resA := submitAsync(c, ctxA, 1)
	waitUntil(t, "A to queue", func() bool { return c.QueuedItems() == 1 })
	resB := submitAsync(c, context.Background(), 2)
	waitUntil(t, "B to queue", func() bool { return c.QueuedItems() == 3 })

	cancelA()
	if ra := <-resA; !errors.Is(ra.err, context.Canceled) {
		t.Fatalf("canceled request returned %v, want context.Canceled", ra.err)
	}
	close(relPrimer)
	if pr := <-primer; pr.err != nil {
		t.Fatalf("primer failed: %v", pr.err)
	}
	close(<-starts) // release the follow-up batch (B, with A dropped)
	rb := <-resB
	if rb.err != nil {
		t.Fatalf("batchmate failed: %v", rb.err)
	}
	if rb.win == nil || rb.win.Hi-rb.win.Lo != 2 || rb.win.Result.items != 2 {
		t.Fatalf("B's window should hold exactly its own 2 items (A dropped at take): %+v", rb.win)
	}
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestMidFlightDisconnectCancelsOnlyThatRequest(t *testing.T) {
	// A and B coalesce into one call (formed behind a busy primer); A's
	// client disconnects while that call is in flight. B's share must be
	// intact, and the call context must survive (one member remains).
	fn, starts := blockingCall()
	st := &Stats{}
	c := New(context.Background(), Config[int, *call]{Call: fn, MaxBatch: 8, Capacity: 64, Stats: st})

	primer := submitAsync(c, context.Background(), 1)
	relPrimer := <-starts

	ctxA, cancelA := context.WithCancel(context.Background())
	resA := submitAsync(c, ctxA, 1)
	waitUntil(t, "A to queue first", func() bool { return c.QueuedItems() == 1 })
	resB := submitAsync(c, context.Background(), 2)
	waitUntil(t, "B to queue behind A", func() bool { return c.QueuedItems() == 3 })

	close(relPrimer)
	relAB := <-starts // the coalesced [A,B] call is now in flight
	cancelA()
	if ra := <-resA; !errors.Is(ra.err, context.Canceled) { // A unblocks on its own ctx
		t.Fatalf("canceled member got %v, want context.Canceled", ra.err)
	}
	close(relAB)
	rb := <-resB
	if rb.err != nil || rb.win == nil {
		t.Fatalf("surviving member got (%+v, %v), want its window", rb.win, rb.err)
	}
	if rb.win.Lo != 1 || rb.win.Hi != 3 || rb.win.Requests != 2 {
		t.Fatalf("surviving member window [%d,%d) of %d requests, want [1,3) of 2", rb.win.Lo, rb.win.Hi, rb.win.Requests)
	}
	if pr := <-primer; pr.err != nil {
		t.Fatalf("primer failed: %v", pr.err)
	}
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := st.Canceled.Load(); got != 1 {
		t.Errorf("Canceled = %d, want 1 (A, noticed at demux)", got)
	}
	if st.Batches.Load() != 2 || st.Items.Load() != 4 || st.Coalesced.Load() != 1 || st.MaxItems.Load() != 3 {
		t.Errorf("stats = %d batches, %d items, %d coalesced, max %d; want 2, 4, 1, 3",
			st.Batches.Load(), st.Items.Load(), st.Coalesced.Load(), st.MaxItems.Load())
	}
}

func TestAllMembersGoneCancelsCall(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	fn := func(ctx context.Context, batch []int) (*call, error) {
		entered <- struct{}{}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return &call{items: len(batch)}, nil
		}
	}
	c := newTest(fn, 8, 64)

	ctx, cancel := context.WithCancel(context.Background())
	res := submitAsync(c, ctx, 1)
	<-entered
	cancel() // the only member leaves: the call must die with it
	if r := <-res; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("submit returned %v, want context.Canceled", r.err)
	}
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(release)
}

func TestAdmissionBoundOverloaded(t *testing.T) {
	fn, starts := blockingCall()
	c := newTest(fn, 8, 6)

	primer := submitAsync(c, context.Background(), 1)
	relPrimer := <-starts
	queued := submitAsync(c, context.Background(), 4)
	waitUntil(t, "4 items to queue", func() bool { return c.QueuedItems() == 4 })

	// 4 queued + 3 > capacity 6: refused at once, queue untouched.
	if _, err := c.Submit(context.Background(), make([]int, 3)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-capacity submit returned %v, want ErrOverloaded", err)
	}
	if c.QueuedItems() != 4 {
		t.Fatalf("rejected submit changed the queue: %d items", c.QueuedItems())
	}
	// 4 + 2 == capacity: admitted.
	fits := submitAsync(c, context.Background(), 2)
	waitUntil(t, "the fitting submission to queue", func() bool { return c.QueuedItems() == 6 })

	close(relPrimer)
	close(<-starts) // one call carrying both
	for name, ch := range map[string]chan submitResult{"primer": primer, "queued": queued, "fits": fits} {
		if r := <-ch; r.err != nil {
			t.Errorf("%s failed: %v", name, r.err)
		}
	}
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), make([]int, 1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after Drain returned %v, want ErrDraining", err)
	}
}

// TestOversizedAdmittedOnlyIntoEmptyQueue: a submission larger than
// Capacity is admitted into an empty queue, where it waits for a token like
// any other and then dispatches whole, and is refused with ErrOverloaded
// behind a queue of one item.
func TestOversizedAdmittedOnlyIntoEmptyQueue(t *testing.T) {
	fn, starts := blockingCall()
	c := newTest(fn, 4, 6)

	primer := submitAsync(c, context.Background(), 1)
	relPrimer := <-starts
	big := submitAsync(c, context.Background(), 10)
	waitUntil(t, "the oversized submission to queue", func() bool { return c.QueuedItems() == 10 })
	if _, err := c.Submit(context.Background(), make([]int, 1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit behind a queue past capacity returned %v, want ErrOverloaded", err)
	}
	close(relPrimer)
	close(<-starts)
	for name, ch := range map[string]chan submitResult{"primer": primer, "oversized": big} {
		if r := <-ch; r.err != nil {
			t.Fatalf("%s failed: %v", name, r.err)
		}
	}

	primer = submitAsync(c, context.Background(), 1)
	relPrimer = <-starts
	small := submitAsync(c, context.Background(), 1)
	waitUntil(t, "one item to queue", func() bool { return c.QueuedItems() == 1 })
	if _, err := c.Submit(context.Background(), make([]int, 10)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("oversized submit behind a 1-item queue returned %v, want ErrOverloaded", err)
	}
	if c.QueuedItems() != 1 {
		t.Fatalf("refused submit changed the queue: %d items", c.QueuedItems())
	}
	close(relPrimer)
	close(<-starts)
	for name, ch := range map[string]chan submitResult{"primer": primer, "small": small} {
		if r := <-ch; r.err != nil {
			t.Fatalf("%s failed: %v", name, r.err)
		}
	}
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestDrainFlushesQueueAndWaitsForRunningCall(t *testing.T) {
	fn, starts := blockingCall()
	c := newTest(fn, 4, 64)

	big := submitAsync(c, context.Background(), 9) // oversized: a call of its own
	relBig := <-starts
	// Held behind the oversized call, which holds the only token.
	queued := submitAsync(c, context.Background(), 2)
	waitUntil(t, "the small submission to queue", func() bool { return c.QueuedItems() == 2 })
	if c.Inflight() != 1 {
		t.Fatalf("Inflight = %d with one call running, want 1", c.Inflight())
	}

	drained := make(chan error, 1)
	go func() { drained <- c.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while a call was still running", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(relBig)
	close(<-starts) // the freed token flushes the held submission
	if r := <-queued; r.err != nil || r.win.Result.items != 2 {
		t.Fatalf("queued submission not flushed by Drain: %+v, %v", r.win, r.err)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	r := <-big
	if r.err != nil || r.win.Lo != 0 || r.win.Hi != 9 || r.win.Requests != 1 || r.win.Result.items != 9 {
		t.Fatalf("oversized window = %+v, %v; want [0,9) of a 9-item call of 1 request", r.win, r.err)
	}

	// A Drain that cannot finish reports its context's error.
	fn2, starts2 := blockingCall()
	c2 := newTest(fn2, 4, 64)
	stuck := submitAsync(c2, context.Background(), 1)
	rel := <-starts2
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := c2.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain behind a stuck call returned %v, want DeadlineExceeded", err)
	}
	close(rel)
	<-stuck
}

func TestLoneOversizedSubmissionGoesWhole(t *testing.T) {
	var sizes []int
	var mu sync.Mutex
	fn := func(ctx context.Context, batch []int) (*call, error) {
		mu.Lock()
		sizes = append(sizes, len(batch))
		mu.Unlock()
		return &call{items: len(batch)}, nil
	}
	c := newTest(fn, 4, 64)
	w, err := c.Submit(context.Background(), make([]int, 10))
	if err != nil {
		t.Fatal(err)
	}
	if w.Lo != 0 || w.Hi != 10 || w.Result.items != 10 {
		t.Fatalf("oversized submission split or truncated: [%d,%d) of a %d-item call", w.Lo, w.Hi, w.Result.items)
	}
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 1 || sizes[0] != 10 {
		t.Fatalf("calls = %v, want one 10-item call", sizes)
	}
}

// TestHeldBatchDispatchesWhenATokenFrees: two coalescers share a Limit of
// two. With both tokens taken a queued submission is held however long the
// calls run, and dispatches as soon as one of them finishes.
func TestHeldBatchDispatchesWhenATokenFrees(t *testing.T) {
	fn, starts := blockingCall()
	limit := NewLimit(2)
	a := New(context.Background(), Config[int, *call]{Call: fn, MaxBatch: 64, Capacity: 1024, Limit: limit})
	b := New(context.Background(), Config[int, *call]{Call: fn, MaxBatch: 64, Capacity: 1024, Limit: limit})

	first := submitAsync(a, context.Background(), 1)
	relFirst := <-starts
	second := submitAsync(a, context.Background(), 1)
	relSecond := <-starts // a free token: dispatched at once, beside the first

	held := submitAsync(b, context.Background(), 3)
	waitUntil(t, "the third submission to queue", func() bool { return b.QueuedItems() == 3 })
	select {
	case <-starts:
		t.Fatal("a third call dispatched while both tokens were taken")
	case <-time.After(30 * time.Millisecond):
	}
	freed := time.Now()
	close(relFirst)
	relHeld := <-starts
	close(relHeld)
	r := <-held
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.win.Disp.Before(freed) || r.win.Disp.Sub(r.win.Enq) < 30*time.Millisecond {
		t.Errorf("held batch dispatched at %v after its enqueue, want after the token freed (%v)",
			r.win.Disp.Sub(r.win.Enq), freed.Sub(r.win.Enq))
	}
	close(relSecond)
	for _, ch := range []chan submitResult{first, second} {
		if r := <-ch; r.err != nil {
			t.Fatal(r.err)
		}
	}
	for _, c := range []*Coalescer[int, *call]{a, b} {
		if err := c.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// observeMax raises peak to n if n is larger.
func observeMax(peak *atomic.Int32, n int32) {
	for cur := peak.Load(); n > cur && !peak.CompareAndSwap(cur, n); cur = peak.Load() {
	}
}

// TestSustainedOverloadRefuses offers a callee that serves 2 items/ms,
// whatever its concurrency, about 3.5 times that rate for 2 s, open loop.
// The bound keeps the backlog in the queue, so Capacity refuses the excess
// with ErrOverloaded, and calls in flight never exceed the Limit. With
// dispatch on a timer instead, no submission was refused and 605 calls ran
// at once.
func TestSustainedOverloadRefuses(t *testing.T) {
	const (
		perItem  = 500 * time.Microsecond // 2 items/ms
		perSub   = 8
		interval = 1143 * time.Microsecond // 7 items/ms offered
		offered  = 2 * time.Second
		bound    = 2
	)
	var mu sync.Mutex
	var next time.Time // when the callee is free again
	var running, peak atomic.Int32
	fn := func(ctx context.Context, batch []int) (*call, error) {
		observeMax(&peak, running.Add(1))
		defer running.Add(-1)
		mu.Lock()
		now := time.Now()
		if next.Before(now) {
			next = now
		}
		next = next.Add(time.Duration(len(batch)) * perItem)
		due := next
		mu.Unlock()
		time.Sleep(time.Until(due))
		return &call{items: len(batch)}, nil
	}
	c := New(context.Background(), Config[int, *call]{
		Call: fn, MaxBatch: 256, Capacity: 1024, Limit: NewLimit(bound),
	})
	var served, refused atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for due := start; due.Sub(start) < offered; due = due.Add(interval) {
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Submit(context.Background(), make([]int, perSub))
			switch {
			case err == nil:
				served.Add(1)
			case errors.Is(err, ErrOverloaded):
				refused.Add(1)
			default:
				t.Errorf("submit: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if refused.Load() == 0 {
		t.Errorf("no submission refused at 3.5x the callee's rate (%d served)", served.Load())
	}
	if p := peak.Load(); p > bound {
		t.Errorf("%d calls ran at once, over the bound of %d", p, bound)
	}
	t.Logf("%d served, %d refused, peak %d calls in flight", served.Load(), refused.Load(), peak.Load())
}

// releaseLedger counts Release calls per result.
type releaseLedger struct {
	mu       sync.Mutex
	released map[*call]int
}

func (l *releaseLedger) release(c *call) {
	l.mu.Lock()
	l.released[c]++
	l.mu.Unlock()
}

func (l *releaseLedger) count(c *call) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.released[c]
}

func TestReleaseRunsOncePerCall(t *testing.T) {
	ledger := &releaseLedger{released: map[*call]int{}}
	fn, starts := blockingCall()
	c := New(context.Background(), Config[int, *call]{
		Call: fn, MaxBatch: 8, Capacity: 64,
		Release: ledger.release,
	})

	// A failed call has nothing to release.
	failCtx, failCancel := context.WithCancel(context.Background())
	failing := submitAsync(c, failCtx, 1)
	<-starts
	failCancel()
	if r := <-failing; r.err == nil {
		t.Fatal("canceled lone member got a window")
	}

	// [A,B] coalesce behind a busy primer; A's context dies while their call
	// is in flight, so the demux finds A gone and releases its share itself.
	primer := submitAsync(c, context.Background(), 1)
	relPrimer := <-starts
	ctxA, cancelA := context.WithCancel(context.Background())
	resA := submitAsync(c, ctxA, 1)
	waitUntil(t, "A to queue", func() bool { return c.QueuedItems() == 1 })
	resB := submitAsync(c, context.Background(), 2)
	waitUntil(t, "B to queue", func() bool { return c.QueuedItems() == 3 })
	close(relPrimer)
	pr := <-primer
	if pr.err != nil {
		t.Fatal(pr.err)
	}
	if n := ledger.count(pr.win.Result); n != 0 {
		t.Fatalf("primer's result released %d times while its window is still held", n)
	}
	pr.win.Release()
	if n := ledger.count(pr.win.Result); n != 1 {
		t.Fatalf("primer's result released %d times after its only holder let go, want 1", n)
	}

	relAB := <-starts
	cancelA()
	<-resA
	close(relAB)
	rb := <-resB
	if rb.err != nil {
		t.Fatal(rb.err)
	}
	if n := ledger.count(rb.win.Result); n != 0 {
		t.Fatalf("shared result released %d times while B still holds its window", n)
	}
	rb.win.Release()
	if n := ledger.count(rb.win.Result); n != 1 {
		t.Fatalf("shared result released %d times after A died and B let go, want exactly 1", n)
	}

	// A lone oversized submission's window carries the same claim.
	big := submitAsync(c, context.Background(), 9)
	close(<-starts)
	br := <-big
	if br.err != nil {
		t.Fatal(br.err)
	}
	if n := ledger.count(br.win.Result); n != 0 {
		t.Fatalf("oversized result released %d times while its window is still held", n)
	}
	br.win.Release()
	if n := ledger.count(br.win.Result); n != 1 {
		t.Fatalf("oversized result released %d times, want 1", n)
	}
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseSurvivesCancelRacingDelivery hammers the window hand-off: each
// member's context dies at about the moment its call completes, so Submit
// sometimes returns the context error although the demux had already
// assigned (and counted) a window for it. Every successful call's result
// must still be released exactly once — a leak would pin an unmapped index
// forever, a double release would unmap one still being rendered.
func TestReleaseSurvivesCancelRacingDelivery(t *testing.T) {
	var calls, releases atomic.Int64
	var double atomic.Bool
	c := New(context.Background(), Config[int, *call]{
		Call: func(ctx context.Context, batch []int) (*call, error) {
			calls.Add(1)
			return &call{items: len(batch)}, nil
		},
		MaxBatch: 4, Capacity: 1 << 20, Limit: NewLimit(3),
		Release: func(res *call) {
			releases.Add(1)
			if res.items < 0 {
				double.Store(true)
			}
			res.items = -1
		},
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				go cancel()
				if w, err := c.Submit(ctx, make([]int, 1)); err == nil {
					w.Release()
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "orphaned windows to be released", func() bool { return releases.Load() == calls.Load() })
	if double.Load() {
		t.Fatal("a result was released twice")
	}
}

// TestGroupContextCarriesTheLatestDeadline: a call whose members all have
// deadlines carries the latest of them; one member without a deadline
// leaves the call without one.
func TestGroupContextCarriesTheLatestDeadline(t *testing.T) {
	bg := context.Background()
	soon, late := time.Now().Add(time.Second), time.Now().Add(time.Hour)
	early, cancelEarly := context.WithDeadline(bg, soon)
	defer cancelEarly()
	later, cancelLater := context.WithDeadline(bg, late)
	defer cancelLater()
	for _, tc := range []struct {
		name    string
		members []context.Context
		want    time.Time // zero: no deadline
	}{
		{"every member budgeted", []context.Context{later, early}, late},
		{"one member unbudgeted", []context.Context{early, bg}, time.Time{}},
	} {
		batch := make([]*pending[int, *call], len(tc.members))
		for i, m := range tc.members {
			batch[i] = &pending[int, *call]{ctx: m}
		}
		ctx, cancel := groupContext(bg, batch)
		d, ok := ctx.Deadline()
		cancel()
		if ok != !tc.want.IsZero() || !d.Equal(tc.want) {
			t.Errorf("%s: call deadline = (%v, %v), want %v", tc.name, d, ok, tc.want)
		}
	}
}

func TestStatsObserveBatchTracksMax(t *testing.T) {
	var st Stats
	st.ObserveBatch(1, 5)
	st.ObserveBatch(3, 2)
	st.ObserveBatch(2, 9)
	st.ObserveBatch(1, 4)
	if st.Batches.Load() != 4 || st.Items.Load() != 20 || st.Coalesced.Load() != 2 || st.MaxItems.Load() != 9 {
		t.Fatalf("stats = %d batches, %d items, %d coalesced, max %d; want 4, 20, 2, 9",
			st.Batches.Load(), st.Items.Load(), st.Coalesced.Load(), st.MaxItems.Load())
	}
}
