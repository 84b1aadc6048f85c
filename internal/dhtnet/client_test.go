package dhtnet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/kmer"
)

// fakeShard is an in-memory seed-shard node: a map-backed table plus the
// identity endpoint, speaking the real wire protocol. It lets the client
// tests control framing, failures, and identity lies without a real index.
type fakeShard struct {
	id, count, shards int
	k                 int
	fingerprint       uint64
	table             map[kmer.Kmer]dht.LookupResult

	mu       sync.Mutex
	batches  [][]kmer.Kmer
	failNext int // answer this many lookup calls with 503 first
	hardFail bool
	held     chan struct{} // when set, lookups signal it and hang until the client goes away
}

func (fs *fakeShard) info() core.SeedShardInfo {
	return core.SeedShardInfo{ID: fs.id, Count: fs.count, K: fs.k, Shards: fs.shards, Fingerprint: fs.fingerprint}
}

func (fs *fakeShard) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shardinfo", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(fs.info())
	})
	mux.HandleFunc("POST /v1/lookup", func(w http.ResponseWriter, r *http.Request) {
		fs.mu.Lock()
		fail := fs.hardFail || fs.failNext > 0
		if fs.failNext > 0 {
			fs.failNext--
		}
		fs.mu.Unlock()
		if fail {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		body, _ := io.ReadAll(r.Body)
		k, seeds, err := DecodeLookupRequest(body)
		if err != nil || k != fs.k {
			http.Error(w, fmt.Sprintf("bad frame: %v", err), http.StatusBadRequest)
			return
		}
		fs.mu.Lock()
		fs.batches = append(fs.batches, seeds)
		held := fs.held
		fs.mu.Unlock()
		if held != nil {
			held <- struct{}{}
			<-r.Context().Done()
			return
		}
		answers := make([]LookupAnswer, len(seeds))
		for i, s := range seeds {
			if res, ok := fs.table[s]; ok {
				answers[i] = LookupAnswer{Res: res, OK: true}
			}
		}
		w.Write(AppendLookupResponse(nil, answers))
	})
	return mux
}

// fleet spins up n fake shards over one synthetic table and a client for
// them. Seeds are distributed by the real owner function.
func fleet(t *testing.T, n int, mod func(cfg *Config)) ([]*fakeShard, *Client) {
	t.Helper()
	const shards, k = 16, 21
	shardsList := make([]*fakeShard, n)
	owners := make([]string, n)
	for i := range shardsList {
		fs := &fakeShard{id: i, count: n, shards: shards, k: k, fingerprint: 0xfeed, table: map[kmer.Kmer]dht.LookupResult{}}
		ts := httptest.NewServer(fs.handler())
		t.Cleanup(ts.Close)
		shardsList[i] = fs
		owners[i] = ts.URL
	}
	for _, s := range testSeeds(t) {
		o := dht.OwnerOf(s, shards, n)
		shardsList[o].table[s] = dht.LookupResult{Locs: []dht.Loc{{Frag: int32(s.Lo % 97), Off: int32(s.Hi % 89)}}, Count: 1}
	}
	cfg := Config{Owners: owners, K: k, Shards: shards, Fingerprint: 0xfeed}
	if mod != nil {
		mod(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return shardsList, c
}

// testSeeds builds a deterministic pool of distinct seeds.
func testSeeds(t testing.TB) []kmer.Kmer {
	seeds := make([]kmer.Kmer, 64)
	for i := range seeds {
		seeds[i] = kmer.Kmer{Lo: uint64(i)*0x9E3779B97F4A7C15 + 3, Hi: uint64(i * 7)}
	}
	return seeds
}

func resolveAll(t *testing.T, c *Client, seeds []kmer.Kmer) []core.SeedAnswer {
	t.Helper()
	out := make([]core.SeedAnswer, len(seeds))
	if err := c.ResolveSeeds(context.Background(), seeds, out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestClientResolvesAcrossOwners(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		shards, c := fleet(t, n, nil)
		seeds := testSeeds(t)
		out := resolveAll(t, c, seeds)
		for i, s := range seeds {
			want, ok := shards[dht.OwnerOf(s, 16, n)].table[s]
			if out[i].OK != ok {
				t.Fatalf("n=%d seed %d: OK=%v want %v", n, i, out[i].OK, ok)
			}
			if ok && (out[i].Res.Count != want.Count || out[i].Res.Locs[0] != want.Locs[0]) {
				t.Fatalf("n=%d seed %d: result mismatch", n, i)
			}
		}
		// Unknown seeds miss cleanly.
		miss := []kmer.Kmer{{Lo: ^uint64(0), Hi: ^uint64(0)}}
		if got := resolveAll(t, c, miss); got[0].OK {
			t.Fatalf("n=%d: unknown seed resolved", n)
		}
	}
}

// TestClientSplitsFrames: a group above the wire bound goes out as
// sequential frames of at most MaxLookupBatch seeds and still answers
// positionally.
func TestClientSplitsFrames(t *testing.T) {
	shards, c := fleet(t, 1, nil)
	pool := testSeeds(t)
	seeds := make([]kmer.Kmer, 2*MaxLookupBatch+1)
	for i := range seeds {
		seeds[i] = pool[i%len(pool)]
	}
	out := resolveAll(t, c, seeds)
	for i, s := range seeds {
		if want, ok := shards[0].table[s]; out[i].OK != ok || (ok && out[i].Res.Locs[0] != want.Locs[0]) {
			t.Fatalf("seed %d mismatch", i)
		}
	}
	shards[0].mu.Lock()
	var sizes []int
	for _, b := range shards[0].batches {
		sizes = append(sizes, len(b))
	}
	shards[0].mu.Unlock()
	if want := []int{MaxLookupBatch, MaxLookupBatch, 1}; !slices.Equal(sizes, want) {
		t.Fatalf("frames carried %v seeds, want %v", sizes, want)
	}
	if st := c.Stats(); st.Batches != 3 || st.BatchedSeeds != int64(len(seeds)) {
		t.Fatalf("stats %+v, want 3 frames carrying %d seeds", st, len(seeds))
	}
}

// TestClientCallerCancelKeepsBreakerClosed: a call the caller cancels —
// before it starts or while the node holds it — fails with the caller's
// own error and is not evidence against the node: a threshold-1 breaker
// stays closed and the next live call succeeds.
func TestClientCallerCancelKeepsBreakerClosed(t *testing.T) {
	for _, variant := range []string{"pre-canceled", "canceled-in-flight"} {
		t.Run(variant, func(t *testing.T) {
			shards, c := fleet(t, 1, func(cfg *Config) {
				cfg.Retry.MaxAttempts = 1
				cfg.BreakerThreshold = 1
				cfg.BreakerCooldown = time.Hour
			})
			// A claim-sized group: 4,096 seeds, the 64 test seeds repeated.
			seeds := slices.Repeat(testSeeds(t), 64)
			out := make([]core.SeedAnswer, len(seeds))
			ctx, cancel := context.WithCancel(context.Background())
			if variant == "pre-canceled" {
				cancel()
			} else {
				held := make(chan struct{})
				shards[0].mu.Lock()
				shards[0].held = held
				shards[0].mu.Unlock()
				go func() {
					<-held
					shards[0].mu.Lock()
					shards[0].held = nil
					shards[0].mu.Unlock()
					cancel()
				}()
			}
			err := c.ResolveSeeds(ctx, seeds, out)
			cancel()
			if !errors.Is(err, context.Canceled) || errors.Is(err, ErrDegraded) {
				t.Fatalf("err = %v, want context.Canceled and not ErrDegraded", err)
			}
			if got := resolveAll(t, c, seeds); !got[0].OK {
				t.Fatal("live call after a canceled one missed")
			}
			if st := c.Stats(); st.Degraded != 0 {
				t.Fatalf("caller cancellation counted as degraded: %+v", st)
			}
		})
	}
}

// TestClientRetries: a 503 answered by a retry succeeds invisibly.
func TestClientRetries(t *testing.T) {
	shards, c := fleet(t, 1, func(cfg *Config) { cfg.Retry.BaseDelay = time.Millisecond })
	shards[0].mu.Lock()
	shards[0].failNext = 2
	shards[0].mu.Unlock()
	out := resolveAll(t, c, testSeeds(t)[:4])
	if !out[0].OK {
		t.Fatal("lookup failed after retries")
	}
	if st := c.Stats(); st.Retries < 2 {
		t.Fatalf("retries not counted: %+v", st)
	}
}

// TestClientDegraded: a dead node exhausts retries, fails typed, and trips
// the breaker so subsequent calls fail fast without a retry ladder.
func TestClientDegraded(t *testing.T) {
	shards, c := fleet(t, 2, func(cfg *Config) {
		cfg.Retry.BaseDelay = time.Millisecond
		cfg.BreakerThreshold = 2
		cfg.BreakerCooldown = time.Hour
	})
	shards[1].mu.Lock()
	shards[1].hardFail = true
	shards[1].mu.Unlock()

	// Find seeds owned by node 1.
	var owned []kmer.Kmer
	for _, s := range testSeeds(t) {
		if dht.OwnerOf(s, 16, 2) == 1 {
			owned = append(owned, s)
		}
	}
	out := make([]core.SeedAnswer, len(owned))
	var de *DegradedError
	for i := 0; i < 3; i++ { // trip the breaker
		err := c.ResolveSeeds(context.Background(), owned, out)
		if !errors.Is(err, ErrDegraded) || !errors.As(err, &de) {
			t.Fatalf("attempt %d: err = %v, want DegradedError", i, err)
		}
	}
	if de.Owner != 1 {
		t.Fatalf("degraded owner %d, want 1", de.Owner)
	}
	// Breaker now open: the failure is immediate (no HTTP attempt).
	shards[1].mu.Lock()
	calls := len(shards[1].batches)
	shards[1].mu.Unlock()
	err := c.ResolveSeeds(context.Background(), owned, out)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("open breaker: err = %v", err)
	}
	shards[1].mu.Lock()
	after := len(shards[1].batches)
	shards[1].mu.Unlock()
	if after != calls {
		t.Fatal("open breaker still dialed the node")
	}
	// The healthy node keeps answering.
	healthy := resolveAll(t, c, func() []kmer.Kmer {
		var hs []kmer.Kmer
		for _, s := range testSeeds(t) {
			if dht.OwnerOf(s, 16, 2) == 0 {
				hs = append(hs, s)
			}
		}
		return hs
	}())
	if !healthy[0].OK {
		t.Fatal("healthy node affected by sibling's breaker")
	}
}

// TestBreakerHalfOpen: after the cooldown one probe goes through and a
// success closes the circuit.
func TestBreakerHalfOpen(t *testing.T) {
	shards, c := fleet(t, 1, func(cfg *Config) {
		cfg.Retry.BaseDelay = time.Millisecond
		cfg.Retry.MaxAttempts = 1
		cfg.BreakerThreshold = 1
		cfg.BreakerCooldown = 30 * time.Millisecond
	})
	shards[0].mu.Lock()
	shards[0].failNext = 1
	shards[0].mu.Unlock()
	seeds := testSeeds(t)[:2]
	out := make([]core.SeedAnswer, len(seeds))
	if err := c.ResolveSeeds(context.Background(), seeds, out); !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v", err)
	}
	if err := c.ResolveSeeds(context.Background(), seeds, out); !errors.Is(err, ErrDegraded) {
		t.Fatalf("breaker should be open: %v", err)
	}
	time.Sleep(40 * time.Millisecond)
	if err := c.ResolveSeeds(context.Background(), seeds, out); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if err := c.ResolveSeeds(context.Background(), seeds, out); err != nil {
		t.Fatalf("closed circuit failed: %v", err)
	}
}

// TestWarm: identity verification catches a mis-wired fleet before any
// alignment.
func TestWarm(t *testing.T) {
	_, c := fleet(t, 2, nil)
	if err := c.Warm(context.Background()); err != nil {
		t.Fatalf("healthy fleet: %v", err)
	}

	// Node reporting the wrong id (fleet wired out of order).
	shards, c2 := fleet(t, 2, nil)
	shards[1].id = 0
	if err := c2.Warm(context.Background()); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("swapped fleet: %v", err)
	}

	// Fingerprint mismatch against the local index.
	shards3, c3 := fleet(t, 2, nil)
	shards3[0].fingerprint = 0xbad
	shards3[1].fingerprint = 0xbad
	if err := c3.Warm(context.Background()); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("foreign fleet: %v", err)
	}

	// Wrong fleet size.
	shards4, c4 := fleet(t, 2, nil)
	shards4[0].count = 3
	shards4[1].count = 3
	if err := c4.Warm(context.Background()); err == nil || !strings.Contains(err.Error(), "fleet") {
		t.Fatalf("resized fleet: %v", err)
	}

	// Unreachable node: typed degraded error.
	_, c5 := fleet(t, 1, func(cfg *Config) {
		cfg.Owners = []string{"http://127.0.0.1:1"}
		cfg.Retry.MaxAttempts = 1
	})
	if err := c5.Warm(context.Background()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("dead fleet: %v", err)
	}
}

// TestProtocolErrorSurfaces: a server speaking garbage fails typed — the
// degraded error wraps the protocol error, never a mis-decoded answer.
func TestProtocolErrorSurfaces(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not a lookup frame"))
	}))
	defer ts.Close()
	c, err := New(Config{Owners: []string{ts.URL}, K: 21, Shards: 16, Retry: client.RetryPolicy{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([]core.SeedAnswer, 1)
	rerr := c.ResolveSeeds(context.Background(), testSeeds(t)[:1], out)
	if !errors.Is(rerr, ErrDegraded) || !errors.Is(rerr, ErrProtocol) {
		t.Fatalf("err = %v, want DegradedError wrapping ErrProtocol", rerr)
	}
}
