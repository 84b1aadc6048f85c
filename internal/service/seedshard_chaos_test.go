package service

// Chaos suite for the seed-lookup tier: a seed-shard fleet served behind
// faultinject proxies is driven through slow-loris dribble, transient
// errors, and a mid-flight node kill under concurrent resolution load.
// The acceptance property mirrors the engine's no-partial-results rule:
// every ResolveSeeds call either answers bit-identically to the mapped
// shards or fails typed (ErrDegraded naming the node) — a faulted fleet
// must never silently answer "absent" for seeds it owns.

import (
	"context"
	"errors"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/dhtnet"
	"github.com/lbl-repro/meraligner/internal/faultinject"
	"github.com/lbl-repro/meraligner/internal/kmer"
)

// chaosSeedFleet serves count seed shards, each behind a faultinject proxy,
// and returns the shards, the proxies, and a client configured for quick
// retries (tests shouldn't wait out production backoffs).
func chaosSeedFleet(t *testing.T, count int, mod func(cfg *dhtnet.Config)) ([]*core.SeedShard, []*faultinject.Proxy, *dhtnet.Client) {
	t.Helper()
	al, _ := fixture(t)
	paths, err := al.SaveSeedShards(t.TempDir(), count)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*core.SeedShard, count)
	proxies := make([]*faultinject.Proxy, count)
	owners := make([]string, count)
	for i, p := range paths {
		sh, err := core.LoadSeedShard(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() })
		srv, err := NewSeedShard(SeedShardConfig{Shard: sh})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		u, err := url.Parse(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		px, err := faultinject.New(u.Host, uint64(4000+i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(px.Close)
		shards[i] = sh
		proxies[i] = px
		owners[i] = px.URL()
	}
	cfg := dhtnet.Config{
		Owners: owners,
		K:      al.IndexOptions().K,
		Shards: al.SeedTableShards(),
		Retry: client.RetryPolicy{
			MaxAttempts:    3,
			BaseDelay:      2 * time.Millisecond,
			MaxDelay:       20 * time.Millisecond,
			AttemptTimeout: 2 * time.Second,
		},
	}
	if mod != nil {
		mod(&cfg)
	}
	c, err := dhtnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return shards, proxies, c
}

// checkAnswers asserts one successful resolution is bit-identical to the
// mapped shards' own answers.
func checkAnswers(t *testing.T, shards []*core.SeedShard, seeds []kmer.Kmer, out []core.SeedAnswer) {
	t.Helper()
	info := shards[0].Info()
	for i, s := range seeds {
		want, ok := shards[dht.OwnerOf(s, info.Shards, info.Count)].Lookup(s)
		if out[i].OK != ok {
			t.Fatalf("seed %d: OK=%v want %v", i, out[i].OK, ok)
		}
		if ok && (out[i].Res.Count != want.Count || out[i].Res.Len() != want.Len()) {
			t.Fatalf("seed %d: result shape mismatch", i)
		}
	}
}

// TestSeedShardChaosTransientFaults: under a transient-error window on one
// node with concurrent resolvers, every call either answers correctly
// (retries absorbed the faults) or fails typed — and after the window the
// fleet recovers to full success.
func TestSeedShardChaosTransientFaults(t *testing.T) {
	shards, proxies, c := chaosSeedFleet(t, 3, nil)
	seeds := fixtureSeeds(t, 400)
	proxies[1].SetErrorRate(0.4)

	var ok, degraded, wrong atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				batch := seeds[(g*37+iter*11)%300 : (g*37+iter*11)%300+64]
				out := make([]core.SeedAnswer, len(batch))
				err := c.ResolveSeeds(context.Background(), batch, out)
				switch {
				case err == nil:
					info := shards[0].Info()
					for i, s := range batch {
						want, present := shards[dht.OwnerOf(s, info.Shards, info.Count)].Lookup(s)
						if out[i].OK != present || (present && out[i].Res.Count != want.Count) {
							wrong.Add(1)
						}
					}
					ok.Add(1)
				case errors.Is(err, dhtnet.ErrDegraded):
					degraded.Add(1)
				default:
					t.Errorf("untyped failure: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if wrong.Load() > 0 {
		t.Fatalf("%d resolutions answered incorrectly under faults", wrong.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no resolution survived a 40%% transient-error window with retries")
	}
	t.Logf("transient window: %d ok, %d typed-degraded", ok.Load(), degraded.Load())

	// Window over: the fleet recovers (the next call's retries succeed).
	proxies[1].SetErrorRate(0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		out := make([]core.SeedAnswer, 64)
		err := c.ResolveSeeds(context.Background(), seeds[:64], out)
		if err == nil {
			checkAnswers(t, shards, seeds[:64], out)
			break
		}
		if !errors.Is(err, dhtnet.ErrDegraded) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet did not recover after the fault window")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSeedShardChaosKilledNode: killing one node's connections mid-flight
// and blackholing it afterwards yields typed degraded errors for its
// seeds — never silent misses — while the surviving nodes keep answering;
// lifting the blackhole restores the full fleet.
func TestSeedShardChaosKilledNode(t *testing.T) {
	shards, proxies, c := chaosSeedFleet(t, 3, func(cfg *dhtnet.Config) {
		cfg.Retry.AttemptTimeout = 200 * time.Millisecond
	})
	seeds := fixtureSeeds(t, 400)
	info := shards[0].Info()

	var dead, alive []kmer.Kmer
	for _, s := range seeds {
		if dht.OwnerOf(s, info.Shards, info.Count) == 2 {
			dead = append(dead, s)
		} else {
			alive = append(alive, s)
		}
	}
	if len(dead) == 0 || len(alive) == 0 {
		t.Fatal("seed pool does not cover all owners")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Kill mid-flight, then blackhole so reconnects hang into the
		// attempt timeout instead of failing fast.
		time.Sleep(5 * time.Millisecond)
		proxies[2].SetBlackhole(true)
		proxies[2].KillActive()
	}()
	// Hammer the doomed node until the kill lands; every failure must be
	// typed.
	deadline := time.Now().Add(10 * time.Second)
	sawDegraded := false
	for !sawDegraded {
		out := make([]core.SeedAnswer, len(dead))
		err := c.ResolveSeeds(context.Background(), dead, out)
		switch {
		case err == nil:
			checkAnswers(t, shards, dead, out)
		case errors.Is(err, dhtnet.ErrDegraded):
			var de *dhtnet.DegradedError
			if !errors.As(err, &de) || de.Owner != 2 {
				t.Fatalf("degraded error does not name the dead node: %v", err)
			}
			sawDegraded = true
		default:
			t.Fatalf("untyped failure from killed node: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("kill never surfaced")
		}
	}
	wg.Wait()

	// Survivors are unaffected.
	out := make([]core.SeedAnswer, len(alive))
	if err := c.ResolveSeeds(context.Background(), alive, out); err != nil {
		t.Fatalf("healthy nodes degraded by sibling kill: %v", err)
	}
	checkAnswers(t, shards, alive, out)

	// Node returns: the next lookup reaches it again.
	proxies[2].SetBlackhole(false)
	deadline = time.Now().Add(5 * time.Second)
	for {
		out := make([]core.SeedAnswer, len(dead))
		err := c.ResolveSeeds(context.Background(), dead, out)
		if err == nil {
			checkAnswers(t, shards, dead, out)
			break
		}
		if !errors.Is(err, dhtnet.ErrDegraded) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("node not readmitted after blackhole lifted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSeedShardChaosSlowLoris: a node dribbling bytes slower than the
// attempt timeout is indistinguishable from a dead one — typed degraded
// errors, then recovery once the dribble stops.
func TestSeedShardChaosSlowLoris(t *testing.T) {
	shards, proxies, c := chaosSeedFleet(t, 2, func(cfg *dhtnet.Config) {
		cfg.Retry.AttemptTimeout = 100 * time.Millisecond
		cfg.Retry.MaxAttempts = 2
	})
	seeds := fixtureSeeds(t, 200)
	proxies[0].SetSlowLoris(2 * time.Second)

	deadline := time.Now().Add(10 * time.Second)
	for {
		out := make([]core.SeedAnswer, 64)
		err := c.ResolveSeeds(context.Background(), seeds[:64], out)
		if err != nil {
			if !errors.Is(err, dhtnet.ErrDegraded) {
				t.Fatalf("slow-loris produced an untyped failure: %v", err)
			}
			break
		}
		// The dribble only applies to new connections; keep going until a
		// call actually hits it.
		checkAnswers(t, shards, seeds[:64], out)
		if time.Now().After(deadline) {
			t.Skip("slow-loris never observed (connection reuse)")
		}
	}

	proxies[0].SetSlowLoris(0)
	deadline = time.Now().Add(5 * time.Second)
	for {
		out := make([]core.SeedAnswer, 64)
		err := c.ResolveSeeds(context.Background(), seeds[:64], out)
		if err == nil {
			checkAnswers(t, shards, seeds[:64], out)
			return
		}
		if !errors.Is(err, dhtnet.ErrDegraded) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet did not recover from slow-loris")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
