package dhtnet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/coalesce"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// ErrDegraded matches every failure caused by a seed-shard node being
// unreachable or tripped: the query node refuses to silently degrade into
// missed alignments (a lost shard's seeds would just "miss"), so the whole
// alignment call fails with a typed error naming the shard.
var ErrDegraded = errors.New("dhtnet: seed shard degraded")

// DegradedError reports which seed-shard node failed and why.
type DegradedError struct {
	Owner int    // owner position within the fleet
	Addr  string // the node's base URL
	Err   error  // the underlying failure (nil when the breaker is open)
}

func (e *DegradedError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("dhtnet: seed shard %d (%s) degraded: circuit open", e.Owner, e.Addr)
	}
	return fmt.Sprintf("dhtnet: seed shard %d (%s) degraded: %v", e.Owner, e.Addr, e.Err)
}

// Is makes every DegradedError match ErrDegraded.
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// Unwrap exposes the underlying failure for errors.Is/As.
func (e *DegradedError) Unwrap() error { return e.Err }

// Config assembles a seed-lookup client. Owners, K and Shards are required
// and must describe the fleet exactly: owner position i serves the internal
// shards with shard % len(Owners) == i of a table with Shards internal
// shards (Warm cross-checks all three against every node).
type Config struct {
	// Owners are the seed-shard base URLs in owner order; position is
	// identity (seed-shard-000 must be Owners[0]).
	Owners []string

	// K is the seed length of the sharded table.
	K int

	// Shards is the internal shard count of the table the fleet was
	// partitioned from; owner routing hashes into it (dht.OwnerOf).
	Shards int

	// Fingerprint, when nonzero, is the expected partition fingerprint;
	// Warm rejects nodes disagreeing with it. Zero means "trust the fleet
	// to agree with itself".
	Fingerprint uint64

	// MaxBatch is the seed count per coalesced lookup call; submissions of
	// MaxBatch or more bypass the queue on the direct path. Default 4096,
	// capped at MaxLookupBatch.
	MaxBatch int

	// MaxWait is the batching window held open behind a busy call.
	// Default 200µs.
	MaxWait time.Duration

	// QueueSeeds bounds each owner's queued backlog; a group that would
	// overflow it takes the direct path instead. Default 8*MaxBatch.
	QueueSeeds int

	// Retry shapes per-call retries (zero value = client defaults: 3
	// attempts, 50ms backoff doubling to 2s, 20% jitter).
	Retry client.RetryPolicy

	// BreakerThreshold is the consecutive-failure count that opens an
	// owner's circuit. Default 5.
	BreakerThreshold int

	// BreakerCooldown is how long an open circuit rejects immediately
	// before admitting one probe. Default 1s.
	BreakerCooldown time.Duration

	// HTTPClient overrides http.DefaultClient (tests, custom transports).
	HTTPClient *http.Client
}

func (cfg Config) withDefaults() (Config, error) {
	if len(cfg.Owners) == 0 {
		return cfg, errors.New("dhtnet: no seed-shard owners configured")
	}
	if cfg.K < 1 || cfg.K > kmer.MaxK {
		return cfg, fmt.Errorf("dhtnet: seed length %d out of range 1..%d", cfg.K, kmer.MaxK)
	}
	if cfg.Shards < 1 {
		return cfg, fmt.Errorf("dhtnet: internal shard count %d must be positive", cfg.Shards)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4096
	}
	if cfg.MaxBatch > MaxLookupBatch {
		cfg.MaxBatch = MaxLookupBatch
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 200 * time.Microsecond
	}
	if cfg.QueueSeeds <= 0 {
		cfg.QueueSeeds = 8 * cfg.MaxBatch
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	return cfg, nil
}

// Stats is a point-in-time snapshot of the client's counters.
type Stats struct {
	Seeds        int64 // seeds resolved through ResolveSeeds
	Batches      int64 // coalesced lookup calls that succeeded
	BatchedSeeds int64 // seeds those calls carried
	Direct       int64 // direct-path calls (>= MaxBatch, or refused by the queue)
	Retries      int64 // attempts beyond the first, across all owners
	Degraded     int64 // calls rejected or failed as DegradedError
}

// Client resolves seed lookups against a fleet of seed-shard nodes. It
// implements core.SeedResolver: the engine hands it the seeds of a whole
// claim of reads at once (the first seeds, then the rest of the reads the
// exact path did not settle), the client stages them per owning node,
// flushes through a per-owner micro-batching queue (concurrent workers share
// round-trips), and merges the answers back positionally. One Client serves
// any number of concurrent queries; Close releases the queues.
type Client struct {
	cfg    Config
	owners []*ownerConn

	seeds    atomic.Int64
	direct   atomic.Int64
	retries  atomic.Int64
	degraded atomic.Int64
}

// ownerConn is the per-node state: the coalescing queue and the breaker.
type ownerConn struct {
	c    *Client
	id   int
	addr string
	co   *coalesce.Coalescer[kmer.Kmer, []LookupAnswer]
	br   breaker
	st   coalesce.Stats
}

// New builds a client for the fleet described by cfg. It performs no I/O;
// call Warm to verify the fleet before aligning.
func New(cfg Config) (*Client, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg, owners: make([]*ownerConn, len(cfg.Owners))}
	for i, addr := range cfg.Owners {
		oc := &ownerConn{c: c, id: i, addr: addr}
		oc.br.threshold = cfg.BreakerThreshold
		oc.br.cooldown = cfg.BreakerCooldown
		oc.co = coalesce.New(context.Background(), coalesce.Config[kmer.Kmer, []LookupAnswer]{
			Call:     oc.lookup,
			MaxBatch: cfg.MaxBatch,
			MaxWait:  cfg.MaxWait,
			Capacity: cfg.QueueSeeds,
			Stats:    &oc.st,
		})
		c.owners[i] = oc
	}
	return c, nil
}

// Close shuts the per-owner queues down. In-flight submissions complete
// with ErrDraining; the client must not be used after.
func (c *Client) Close() {
	for _, oc := range c.owners {
		oc.co.Close()
	}
}

// Stats snapshots the client's counters.
func (c *Client) Stats() Stats {
	st := Stats{
		Seeds:    c.seeds.Load(),
		Direct:   c.direct.Load(),
		Retries:  c.retries.Load(),
		Degraded: c.degraded.Load(),
	}
	for _, oc := range c.owners {
		st.Batches += oc.st.Batches.Load()
		st.BatchedSeeds += oc.st.Items.Load()
	}
	return st
}

// Warm verifies the fleet's identity before any alignment runs: every node
// must report the owner position it is addressed as, the fleet size the
// client was configured with, the table's K and internal shard count, and a
// partition fingerprint all nodes (and cfg.Fingerprint, when set) agree on.
// A fleet mixing shards of different builds — or wired up in the wrong
// order — fails here, not as silently wrong alignments later.
func (c *Client) Warm(ctx context.Context) error {
	var fp uint64
	for i, oc := range c.owners {
		info, err := oc.shardInfo(ctx)
		if err != nil {
			return &DegradedError{Owner: i, Addr: oc.addr, Err: err}
		}
		if info.ID != i {
			return fmt.Errorf("dhtnet: node %s reports seed-shard id %d but is addressed as owner %d (fleet wired out of order?)", oc.addr, info.ID, i)
		}
		if info.Count != len(c.owners) {
			return fmt.Errorf("dhtnet: node %s belongs to a %d-shard fleet, client is configured for %d", oc.addr, info.Count, len(c.owners))
		}
		if info.K != c.cfg.K || info.Shards != c.cfg.Shards {
			return fmt.Errorf("dhtnet: node %s serves a table with K=%d, %d internal shards; client expects K=%d, %d", oc.addr, info.K, info.Shards, c.cfg.K, c.cfg.Shards)
		}
		if c.cfg.Fingerprint != 0 && info.Fingerprint != c.cfg.Fingerprint {
			return fmt.Errorf("dhtnet: node %s fingerprint %#x does not match the local index's %#x", oc.addr, info.Fingerprint, c.cfg.Fingerprint)
		}
		if i == 0 {
			fp = info.Fingerprint
		} else if info.Fingerprint != fp {
			return fmt.Errorf("dhtnet: fleet fingerprints disagree: node %s has %#x, node %s has %#x (shards from different builds?)", oc.addr, info.Fingerprint, c.owners[0].addr, fp)
		}
	}
	return nil
}

// ResolveSeeds implements core.SeedResolver: every seeds[i] is routed to
// its owning node by hash, staged into that node's batching queue, and the
// answer written to out[i]. Owners are contacted concurrently; the first
// failure aborts the whole resolution (typed DegradedError for a lost
// node — never a silent miss).
func (c *Client) ResolveSeeds(ctx context.Context, seeds []kmer.Kmer, out []core.SeedAnswer) error {
	if len(out) != len(seeds) {
		return fmt.Errorf("dhtnet: out/seeds length mismatch: %d vs %d", len(out), len(seeds))
	}
	if len(seeds) == 0 {
		return nil
	}
	c.seeds.Add(int64(len(seeds)))
	if len(c.owners) == 1 {
		return c.owners[0].resolve(ctx, seeds, out, nil)
	}

	// Stage per owner, preserving each seed's position for the merge.
	perSeeds := make([][]kmer.Kmer, len(c.owners))
	perIdx := make([][]int, len(c.owners))
	for i, s := range seeds {
		o := dht.OwnerOf(s, c.cfg.Shards, len(c.owners))
		perSeeds[o] = append(perSeeds[o], s)
		perIdx[o] = append(perIdx[o], i)
	}

	var wg sync.WaitGroup
	errs := make([]error, len(c.owners))
	for o, group := range perSeeds {
		if len(group) == 0 {
			continue
		}
		wg.Add(1)
		go func(oc *ownerConn, group []kmer.Kmer, idx []int) {
			defer wg.Done()
			errs[oc.id] = oc.resolve(ctx, group, out, idx)
		}(c.owners[o], group, perIdx[o])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// resolve answers one owner's share of a resolution. idx maps the group's
// positions back into out; nil means identity (single-owner fast path).
func (oc *ownerConn) resolve(ctx context.Context, group []kmer.Kmer, out []core.SeedAnswer, idx []int) error {
	var win *coalesce.Window[[]LookupAnswer]
	var err error
	direct := len(group) >= oc.c.cfg.MaxBatch
	if !direct {
		win, err = oc.co.Submit(ctx, group)
		direct = errors.Is(err, coalesce.ErrOverloaded)
	}
	if direct {
		// A group already at batch size gains nothing from queueing behind
		// the window, and one the admission bound refuses is still owed its
		// answers — the engine already bounds in-flight work to one
		// resolution per worker: call through on the direct path.
		oc.c.direct.Add(1)
		win, err = oc.co.Direct(ctx, group)
	}
	if err != nil {
		return err
	}
	answers := win.Result[win.Lo:win.Hi]
	if idx == nil {
		for i, a := range answers {
			out[i] = core.SeedAnswer{Res: a.Res, OK: a.OK}
		}
		return nil
	}
	for i, a := range answers {
		out[idx[i]] = core.SeedAnswer{Res: a.Res, OK: a.OK}
	}
	return nil
}

// lookup is the coalesced call: one POST /v1/lookup round-trip for a batch
// of seeds, with breaker gating, bounded retries, deadline propagation and
// trace injection. Batches above the wire bound split into sequential
// frames (only the direct path can produce them).
func (oc *ownerConn) lookup(ctx context.Context, seeds []kmer.Kmer) ([]LookupAnswer, error) {
	if !oc.br.allow() {
		oc.c.degraded.Add(1)
		return nil, &DegradedError{Owner: oc.id, Addr: oc.addr}
	}
	answers := make([]LookupAnswer, len(seeds))
	for lo := 0; lo < len(seeds); lo += MaxLookupBatch {
		hi := min(lo+MaxLookupBatch, len(seeds))
		if err := oc.lookupFrame(ctx, seeds[lo:hi], answers[lo:hi]); err != nil {
			oc.br.failure()
			oc.c.degraded.Add(1)
			return nil, &DegradedError{Owner: oc.id, Addr: oc.addr, Err: err}
		}
	}
	oc.br.success()
	return answers, nil
}

func (oc *ownerConn) lookupFrame(ctx context.Context, seeds []kmer.Kmer, out []LookupAnswer) error {
	body := AppendLookupRequest(nil, oc.c.cfg.K, seeds)
	attempt := 0
	return oc.c.cfg.Retry.Do(ctx, func(ctx context.Context) error {
		attempt++
		if attempt > 1 {
			oc.c.retries.Add(1)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, oc.addr+"/v1/lookup", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		telemetry.Inject(ctx, req.Header)
		client.InjectDeadline(ctx, req.Header)
		resp, err := oc.c.cfg.HTTPClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		// Responses are bounded by the server's own location-list caps; the
		// read limit is a backstop against a misbehaving peer, not a budget.
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<28))
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return &client.StatusError{Code: resp.StatusCode, Message: string(bytes.TrimSpace(raw))}
		}
		return DecodeLookupResponse(raw, out)
	})
}

// shardInfo fetches a node's identity (GET /v1/shardinfo).
func (oc *ownerConn) shardInfo(ctx context.Context) (core.SeedShardInfo, error) {
	var info core.SeedShardInfo
	err := oc.c.cfg.Retry.Do(ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, oc.addr+"/v1/shardinfo", nil)
		if err != nil {
			return err
		}
		telemetry.Inject(ctx, req.Header)
		client.InjectDeadline(ctx, req.Header)
		resp, err := oc.c.cfg.HTTPClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return &client.StatusError{Code: resp.StatusCode, Message: string(bytes.TrimSpace(raw))}
		}
		return json.Unmarshal(raw, &info)
	})
	return info, err
}

// breaker is a consecutive-failure circuit breaker: threshold consecutive
// call failures open it, an open breaker rejects immediately for cooldown,
// then admits one half-open probe whose outcome closes or re-opens it. It
// exists so a dead node costs one failed batch per cooldown instead of a
// full retry ladder per read.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	failures int
	openedAt time.Time
	probing  bool
}

// allow reports whether a call may proceed.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failures < b.threshold {
		return true
	}
	if time.Since(b.openedAt) < b.cooldown {
		return false
	}
	if b.probing {
		return false // one probe at a time while half-open
	}
	b.probing = true
	return true
}

func (b *breaker) success() {
	b.mu.Lock()
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
}

func (b *breaker) failure() {
	b.mu.Lock()
	b.failures++
	b.probing = false
	if b.failures >= b.threshold {
		b.openedAt = time.Now()
	}
	b.mu.Unlock()
}
