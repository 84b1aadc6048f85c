package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/dhtnet"
	"github.com/lbl-repro/meraligner/internal/kmer"
)

// seedShardFleet saves the fixture index as count seed shards and serves
// each behind httptest, returning the shards, the servers, and a dhtnet
// client wired to them.
func seedShardFleet(t *testing.T, count int) ([]*core.SeedShard, []*SeedShardServer, *dhtnet.Client) {
	t.Helper()
	al, _ := fixture(t)
	paths, err := al.SaveSeedShards(t.TempDir(), count)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := al.SeedPartitionFingerprint(count)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*core.SeedShard, count)
	servers := make([]*SeedShardServer, count)
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
		shards[i] = sh
		servers[i] = srv
		owners[i] = ts.URL
	}
	c, err := dhtnet.New(dhtnet.Config{
		Owners:      owners,
		K:           al.IndexOptions().K,
		Shards:      al.SeedTableShards(),
		Fingerprint: fp,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return shards, servers, c
}

// fixtureSeeds scans real seeds (present and absent alike) out of the
// fixture's reads, exactly as the engine would.
func fixtureSeeds(t *testing.T, n int) []kmer.Kmer {
	t.Helper()
	al, reads := fixture(t)
	k := al.IndexOptions().K
	var sc kmer.Scanner
	seeds := make([]kmer.Kmer, 0, n)
	for _, r := range reads {
		sc.Reset(r.Seq, k)
		for sc.Next() {
			if s, ok := sc.Canonical(); ok {
				seeds = append(seeds, s)
				if len(seeds) == n {
					return seeds
				}
			}
		}
	}
	if len(seeds) == 0 {
		t.Fatal("no seeds in fixture reads")
	}
	return seeds
}

// TestSeedShardLookupParity: resolving through real servers over HTTP
// answers bit-identically to probing the mapped shards directly.
func TestSeedShardLookupParity(t *testing.T) {
	for _, count := range []int{1, 3} {
		shards, _, c := seedShardFleet(t, count)
		if err := c.Warm(context.Background()); err != nil {
			t.Fatal(err)
		}
		seeds := fixtureSeeds(t, 500)
		out := make([]core.SeedAnswer, len(seeds))
		if err := c.ResolveSeeds(context.Background(), seeds, out); err != nil {
			t.Fatal(err)
		}
		info := shards[0].Info()
		for i, s := range seeds {
			want, ok := shards[dht.OwnerOf(s, info.Shards, count)].Lookup(s)
			if out[i].OK != ok {
				t.Fatalf("count=%d seed %d: OK=%v want %v", count, i, out[i].OK, ok)
			}
			if !ok {
				continue
			}
			if out[i].Res.Count != want.Count || out[i].Res.Len() != want.Len() {
				t.Fatalf("count=%d seed %d: shape mismatch", count, i)
			}
			for j := range want.Len() {
				if out[i].Res.At(j) != want.At(j) {
					t.Fatalf("count=%d seed %d loc %d: %+v != %+v", count, i, j, out[i].Res.At(j), want.At(j))
				}
			}
		}
	}
}

// TestSeedShardRejections: the server's typed 400s — malformed frame, seed
// length mismatch, misrouted seed — and the 413 for oversized bodies.
func TestSeedShardRejections(t *testing.T) {
	shards, _, _ := seedShardFleet(t, 2)
	srv, err := NewSeedShard(SeedShardConfig{Shard: shards[1]})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body []byte) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/lookup", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	if code, msg := post([]byte("garbage")); code != http.StatusBadRequest || !strings.Contains(msg, "malformed") {
		t.Fatalf("garbage frame: %d %q", code, msg)
	}

	info := shards[1].Info()
	// Valid frame, wrong k.
	wrongK := dhtnet.AppendLookupRequest(nil, info.K+2, nil)
	if code, msg := post(wrongK); code != http.StatusBadRequest || !strings.Contains(msg, "k=") {
		t.Fatalf("k mismatch: %d %q", code, msg)
	}
	// A seed owned by shard 0, sent to shard 1.
	var foreign kmer.Kmer
	found := false
	for _, s := range fixtureSeeds(t, 200) {
		if dht.OwnerOf(s, info.Shards, info.Count) == 0 {
			foreign, found = s, true
			break
		}
	}
	if !found {
		t.Fatal("no foreign seed found")
	}
	misrouted := dhtnet.AppendLookupRequest(nil, info.K, []kmer.Kmer{foreign})
	if code, msg := post(misrouted); code != http.StatusBadRequest || !strings.Contains(msg, "misrouted") {
		t.Fatalf("misrouted seed: %d %q", code, msg)
	}
	// Oversized body.
	if code, _ := post(make([]byte, 2<<20)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body accepted: %d", code)
	}
	// A body that fails to read for any other reason is the client's
	// broken request (400), not an oversized one.
	broken := httptest.NewRequest(http.MethodPost, "/v1/lookup", io.MultiReader(bytes.NewReader(wrongK[:4]), iotest.ErrReader(io.ErrUnexpectedEOF)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, broken)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "reading lookup body") {
		t.Fatalf("unreadable body: %d %q, want 400", rec.Code, rec.Body.String())
	}
	// The rejections are counted.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "merserved_seedshard_rejected_total") {
		t.Fatalf("metrics missing rejected counter:\n%s", raw)
	}
}

// TestSeedShardInfoEndpoint: the JSON identity round-trips.
func TestSeedShardInfoEndpoint(t *testing.T) {
	shards, _, _ := seedShardFleet(t, 2)
	srv, _ := NewSeedShard(SeedShardConfig{Shard: shards[0]})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/shardinfo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got core.SeedShardInfo
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got != shards[0].Info() {
		t.Fatalf("shardinfo %+v != %+v", got, shards[0].Info())
	}
}

// TestSeedShardDrain: draining answers 503 on lookups and health probes,
// and Drain returns once in-flight lookups complete.
func TestSeedShardDrain(t *testing.T) {
	shards, _, _ := seedShardFleet(t, 1)
	srv, _ := NewSeedShard(SeedShardConfig{Shard: shards[0]})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	frame := dhtnet.AppendLookupRequest(nil, shards[0].Info().K, nil)
	resp, err := http.Post(ts.URL+"/v1/lookup", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining lookup: %d", resp.StatusCode)
	}
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining %s: %d", ep, resp.StatusCode)
		}
	}
}

// TestSeedShardDegradedTyped: a fleet with one dead node fails alignment-
// level resolution with a DegradedError naming the node — never a silent
// all-miss answer.
func TestSeedShardDegradedTyped(t *testing.T) {
	_, servers, c := seedShardFleet(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := servers[2].Drain(ctx); err != nil {
		t.Fatal(err)
	}
	seeds := fixtureSeeds(t, 300)
	out := make([]core.SeedAnswer, len(seeds))
	err := c.ResolveSeeds(context.Background(), seeds, out)
	var de *dhtnet.DegradedError
	if !errors.Is(err, dhtnet.ErrDegraded) || !errors.As(err, &de) {
		t.Fatalf("err = %v, want DegradedError", err)
	}
	if de.Owner != 2 {
		t.Fatalf("degraded owner %d, want 2", de.Owner)
	}
}

// gateProbeBody is a lookup request body that reports when the handler
// reads it — which it does only after the draining gate admitted the
// request, just before probing the shard.
type gateProbeBody struct {
	io.Reader
	onRead func()
}

func (b *gateProbeBody) Read(p []byte) (int, error) {
	b.onRead()
	return b.Reader.Read(p)
}

func (b *gateProbeBody) Close() error { return nil }

// TestSeedShardDrainRace hammers Drain against concurrent lookups. The
// caller of Drain closes (unmaps) the shard as soon as it returns, so a
// lookup the gate admitted must never still be running by then: the
// draining check and the in-flight increment have to be one atomic step,
// or a lookup can pass the check, Drain can see the gate empty and return,
// and the lookup then probes unmapped memory.
func TestSeedShardDrainRace(t *testing.T) {
	shards, _, _ := seedShardFleet(t, 1)
	// An empty frame keeps the handler short, so the gate dominates.
	frame := dhtnet.AppendLookupRequest(nil, shards[0].Info().K, nil)
	rounds, hammers := 400, 32
	if testing.Short() {
		rounds = 100
	}
	for round := 0; round < rounds; round++ {
		srv, err := NewSeedShard(SeedShardConfig{Shard: shards[0]})
		if err != nil {
			t.Fatal(err)
		}
		var drained atomic.Bool
		var late, served atomic.Int64
		var wg sync.WaitGroup
		for h := 0; h < hammers; h++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					req := httptest.NewRequest(http.MethodPost, "/v1/lookup", nil)
					req.Body = &gateProbeBody{Reader: bytes.NewReader(frame), onRead: func() {
						if drained.Load() {
							late.Add(1)
						}
					}}
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						return // 503: the gate has closed
					}
					served.Add(1)
				}
			}()
		}
		for served.Load() < int64(hammers) {
			runtime.Gosched()
		}
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		drained.Store(true)
		wg.Wait()
		if n := late.Load(); n > 0 {
			t.Fatalf("round %d: %d lookup(s) were still running after Drain returned", round, n)
		}
	}
}
