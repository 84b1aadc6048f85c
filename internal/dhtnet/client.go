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

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// ErrDegraded matches every failure caused by a seed-shard node that stayed
// unreachable or broken through the retry policy: the query node refuses to
// silently degrade into missed alignments (a lost shard's seeds would just
// "miss"), so the whole alignment call fails with a typed error naming the
// shard.
var ErrDegraded = errors.New("dhtnet: seed shard degraded")

// DegradedError reports which seed-shard node failed and why.
type DegradedError struct {
	Owner int    // owner position within the fleet
	Addr  string // the node's base URL
	Err   error  // the underlying failure, never nil
}

func (e *DegradedError) Error() string {
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

	// Retry shapes per-call retries (zero value = client defaults: 3
	// attempts, 50ms backoff doubling to 2s, 20% jitter); an unset
	// AttemptTimeout becomes client.DefaultAttemptTimeout.
	Retry client.RetryPolicy

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
	if cfg.Retry.AttemptTimeout <= 0 {
		cfg.Retry.AttemptTimeout = client.DefaultAttemptTimeout
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	return cfg, nil
}

// Stats is a point-in-time snapshot of the client's counters.
type Stats struct {
	Seeds        int64 // seeds resolved through ResolveSeeds
	Batches      int64 // lookup frames answered
	BatchedSeeds int64 // seeds those frames carried
	Direct       int64 // always 0: there is no direct path; kept while the benchmark reads it
	Retries      int64 // attempts beyond the first, across all owners
	Degraded     int64 // owner lookups failed as DegradedError
}

// Client resolves seed lookups against a fleet of seed-shard nodes. It
// implements core.SeedResolver: the engine hands it the seeds of a whole
// claim of reads at once (the first seeds, then the rest of the reads the
// exact path did not settle) — that claim is the one place lookups are
// aggregated. The client stages the seeds per owning node, sends each
// owner's group as one lookup call, and merges the answers back
// positionally. One Client serves any number of concurrent queries.
type Client struct {
	cfg    Config
	owners []*ownerConn

	seeds       atomic.Int64
	frames      atomic.Int64
	framedSeeds atomic.Int64
	retries     atomic.Int64
	degraded    atomic.Int64
}

// ownerConn is one node of the fleet: its owner position and address.
type ownerConn struct {
	c    *Client
	id   int
	addr string
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
		c.owners[i] = &ownerConn{c: c, id: i, addr: addr}
	}
	return c, nil
}

// Close is a no-op: the client holds no queues or goroutines between
// calls, so there is nothing to stop. Callers may still defer it.
func (c *Client) Close() {}

// Stats snapshots the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		Seeds:        c.seeds.Load(),
		Batches:      c.frames.Load(),
		BatchedSeeds: c.framedSeeds.Load(),
		Retries:      c.retries.Load(),
		Degraded:     c.degraded.Load(),
	}
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
// its owning node by hash, staged into that node's group, and the answer
// written to out[i]. Owners are contacted concurrently, one lookup call per
// owner under ctx; any failure fails the whole resolution (typed
// DegradedError for a lost node — never a silent miss — or ctx's own error
// when the caller gave up).
func (c *Client) ResolveSeeds(ctx context.Context, seeds []kmer.Kmer, out []core.SeedAnswer) error {
	if len(out) != len(seeds) {
		return fmt.Errorf("dhtnet: out/seeds length mismatch: %d vs %d", len(out), len(seeds))
	}
	if len(seeds) == 0 {
		return nil
	}
	c.seeds.Add(int64(len(seeds)))

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
			answers, err := oc.lookup(ctx, group)
			for i, a := range answers {
				out[idx[i]] = core.SeedAnswer{Res: a.Res, OK: a.OK}
			}
			errs[oc.id] = err
		}(c.owners[o], group, perIdx[o])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// lookup answers one owner's group: POST /v1/lookup round-trips with
// bounded retries, deadline propagation and trace injection. A group above
// the wire bound splits into sequential frames of at most MaxLookupBatch
// seeds. A frame that still fails once the retry policy gives up fails the
// group as a DegradedError — unless the caller canceled or timed out ctx,
// which is not evidence against the node: then it returns ctx's error.
func (oc *ownerConn) lookup(ctx context.Context, seeds []kmer.Kmer) ([]LookupAnswer, error) {
	answers := make([]LookupAnswer, len(seeds))
	for lo := 0; lo < len(seeds); lo += MaxLookupBatch {
		hi := min(lo+MaxLookupBatch, len(seeds))
		if err := oc.lookupFrame(ctx, seeds[lo:hi], answers[lo:hi]); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			oc.c.degraded.Add(1)
			return nil, &DegradedError{Owner: oc.id, Addr: oc.addr, Err: err}
		}
		oc.c.frames.Add(1)
		oc.c.framedSeeds.Add(int64(hi - lo))
	}
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
		// A response carries every stored location of the seeds asked for;
		// the read limit is a backstop against a misbehaving peer, not a budget.
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
