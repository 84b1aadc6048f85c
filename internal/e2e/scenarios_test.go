//go:build e2e

package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/faultinject"
)

// smokeReads is the batch the service-face checks post (head -n 400).
const smokeReads = 100

// readHeaderTimeout mirrors internal/service's constant of the same name.
const readHeaderTimeout = 10 * time.Second

// TestSnapshot: build → save → load → align gives the SAM of a fresh build;
// a flipped bit fails typed; merserved warm-starts from the snapshot.
func TestSnapshot(t *testing.T) {
	scenario(t)
	for _, w := range []workload{alpha, wheat} {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			merx, built, loaded := filepath.Join(dir, "smoke.merx"), filepath.Join(dir, "built.sam"), filepath.Join(dir, "loaded.sam")
			mustRun(t, "meraligner", "-targets", w.contigs, "-k", k, "-save-index", merx, "-v")
			mustRun(t, "meraligner", "-targets", w.contigs, "-k", k, "-queries", w.reads, "-sam", "-o", built)
			mustRun(t, "meraligner", "-index", merx, "-queries", w.reads, "-sam", "-o", loaded)
			same(t, "built.sam and loaded.sam", readFile(t, loaded), readFile(t, built))
			has(t, "loaded.sam", readFile(t, loaded), "AS:i:")

			// One bit flipped mid-payload: a typed failure, not a panic.
			data := readFile(t, merx)
			data[len(data)/2] ^= 8
			corrupt := filepath.Join(dir, "corrupt.merx")
			if err := os.WriteFile(corrupt, data, 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := run("meraligner", "-index", corrupt, "-queries", w.reads, "-o", os.DevNull)
			if err == nil {
				t.Fatal("corrupt snapshot was accepted")
			}
			matches(t, "stderr", []byte(out), "(?i)corrupt index snapshot")

			srv := start(t, "merserved", "merserved", "-index", merx)
			ready(t, srv.URL)
			srv.logged("index mapped in")
			has(t, "served SAM", align(t, srv.URL+v1Align, sam, firstReads(w.fastq, smokeReads)), "AS:i:")
			srv.Term()
		})
	}
}

// TestService: one merserved from -targets, its API faces, request-ID
// tracing into the debug listener, and both ways a drain can end.
func TestService(t *testing.T) {
	scenario(t)
	srv := start(t, "merserved", "merserved", "-targets", alpha.contigs, "-k", k, "-debug-addr", "127.0.0.1:0")
	ready(t, srv.URL)
	debugAddr := srv.listenAddr("debug listening on ")

	// api runs first and alone (it reads the server's counters); the group
	// then returns once its parallel members have, so the stalled-header
	// checks wait out readHeaderTimeout together and beside the drain check.
	t.Run("live", func(t *testing.T) {
		t.Run("api", func(t *testing.T) {
			batch := firstReads(alpha.fastq, smokeReads)
			out := align(t, srv.URL+v1Align, sam, batch)
			matches(t, "out.sam", out, "^@SQ")
			has(t, "out.sam", out, "AS:i:") // at least one ALIGNED record (unmapped rows carry no AS tag)
			c := client.New(srv.URL, client.WithHTTPClient(httpc))
			if st, err := c.Stats(context.Background()); err != nil || st.Reads != smokeReads {
				t.Errorf("/v1/stats: reads = %+v, err %v; want %d reads", st, err, smokeReads)
			}
			if err := c.Health(context.Background()); err != nil {
				t.Errorf("/healthz: %v", err)
			}
			has(t, "/metrics", get(t, srv.URL+"/metrics"), "merserved_requests_total")
			// The header timeout leaves the streamed face alone: one NDJSON line a read.
			if r, err := post(srv.URL+"/v1/align/stream", batch); err != nil || r.status != http.StatusOK || bytes.Count(r.body, []byte("\n")) != smokeReads {
				t.Errorf("/v1/align/stream: status %d, %d lines, err %v; want %d lines", r.status, bytes.Count(r.body, []byte("\n")), err, smokeReads)
			}

			// Every align response echoes the caller's request ID, /metrics
			// carries native histogram buckets, and the private debug
			// listener serves the request's trace.
			const id = "0123456789abcdef0123456789abcdef"
			echoesRequestID(t, srv.URL+v1Align, batch, id)
			has(t, "/metrics", get(t, srv.URL+"/metrics"), "_bucket{le=")
			has(t, "/debug/requests", get(t, "http://"+debugAddr+"/debug/requests"), id)
		})
		t.Run("stalled header", func(t *testing.T) {
			t.Parallel()
			stalledHeaderIsDropped(t, strings.TrimPrefix(srv.URL, "http://"), srv.URL+"/healthz")
		})
		t.Run("stalled header debug", func(t *testing.T) {
			t.Parallel()
			stalledHeaderIsDropped(t, debugAddr, "http://"+debugAddr+"/debug/requests")
		})
		t.Run("unclean drain", func(t *testing.T) {
			t.Parallel()
			uncleanDrain(t, srv)
		})
		t.Run("call timeout", func(t *testing.T) {
			t.Parallel()
			callTimeout(t, srv)
		})
	})
	srv.Term()
}

// stalledHeaderIsDropped sends half a request line to addr and requires the
// server to hang up within readHeaderTimeout + 2s, answering a well-formed
// request to okURL in the meantime.
func stalledHeaderIsDropped(t *testing.T, addr, okURL string) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/align HT"); err != nil {
		t.Fatal(err)
	}
	get(t, okURL)
	_ = conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 2*time.Second))
	if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("%s still holds a connection whose header never finished, %s on", addr, readHeaderTimeout+2*time.Second)
	}
}

// uncleanDrain drives the one exit Term never takes: a router whose only
// shard answers slower than -drain-timeout is SIGTERMed with a request in
// flight, and must say so and exit 1.
func uncleanDrain(t *testing.T, shard *proc) {
	slow, err := faultinject.New(strings.TrimPrefix(shard.URL, "http://"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	rt := start(t, "slow-router", "merrouted", "-shards", slow.URL(), "-drain-timeout", "200ms")
	ready(t, rt.URL)
	// New connections now take 2s to reach the shard; reset the pooled ones.
	slow.SetLatency(2 * time.Second)
	slow.KillActive()

	inflight := make(chan struct{})
	go func() {
		defer close(inflight)
		_, _ = post(rt.URL+v1Align, firstReads(alpha.fastq, 1)) // dies with the router
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var st client.RouterStats
		if err := json.Unmarshal(get(t, rt.URL+"/v1/stats"), &st); err != nil {
			t.Fatal(err)
		}
		if len(st.Shards) == 1 && st.Shards[0].Inflight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the request never reached the shard RPC")
		}
	}
	if code := rt.end(syscall.SIGTERM); code != 1 {
		t.Errorf("slow-router: exit status %d after an incomplete drain, want 1", code)
	}
	<-inflight
	rt.logged("drain incomplete: ")
	rt.logged("(in-flight work aborted)")
	if strings.Contains(rt.log.String(), "drained cleanly") {
		t.Error("slow-router logged \"drained cleanly\" over an aborted request")
	}
}

// callTimeout holds merrouted to -call-timeout and -retries: over one shard
// that now answers 1 s late, a router with -call-timeout 200ms -retries 1
// fails a request with 502 within 500 ms. A router ignoring -call-timeout
// answers 200 after the second; one ignoring -retries makes its default 3
// attempts and answers 502 after about 0.75 s.
func callTimeout(t *testing.T, shard *proc) {
	slow, err := faultinject.New(strings.TrimPrefix(shard.URL, "http://"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	rt := start(t, "timeout-router", "merrouted", "-shards", slow.URL(), "-call-timeout", "200ms", "-retries", "1")
	ready(t, rt.URL)
	// New connections now take 1s to reach the shard; reset the pooled ones.
	slow.SetLatency(time.Second)
	slow.KillActive()

	begin := time.Now()
	r, err := post(rt.URL+v1Align, firstReads(alpha.fastq, 1))
	if took := time.Since(begin); err != nil || r.status != http.StatusBadGateway || took > 500*time.Millisecond {
		t.Errorf("request over a 1 s shard = status %d after %v (err %v), want 502 within 500ms\n%s", r.status, took, err, r.body)
	}
	rt.Term()
}

// TestCatalog: one merserved over a directory of snapshots serves each
// under /v1/<ref>/ and hot-swaps a replaced file with no failed request.
func TestCatalog(t *testing.T) {
	scenario(t)
	snaps := t.TempDir()
	mustRun(t, "meraligner", "-targets", alpha.contigs, "-k", k, "-save-index", filepath.Join(snaps, "alpha.merx"))
	mustRun(t, "meraligner", "-targets", beta.contigs, "-k", k, "-save-index", filepath.Join(snaps, "beta.merx"))
	srv := start(t, "merserved", "merserved", "-index-dir", snaps, "-swap-poll", "50ms")
	ready(t, srv.URL)
	srv.logged("catalog mode")

	batch := firstReads(alpha.fastq, smokeReads)
	postRef := func(ref string) []byte { return align(t, srv.URL+"/v1/"+ref+"/align", sam, batch) }

	// Both references serve, and serve different indexes.
	alphaSAM, betaSAM := postRef("alpha"), postRef("beta")
	matches(t, "alpha.sam", alphaSAM, "^@SQ")
	has(t, "alpha.sam", alphaSAM, "AS:i:")
	matches(t, "beta.sam", betaSAM, "^@SQ")
	if bytes.Equal(alphaSAM, betaSAM) {
		t.Fatal("alpha and beta served identical responses")
	}
	c := client.NewRef(srv.URL, "alpha", client.WithHTTPClient(httpc))
	isAlpha := func(r client.RefInfo) bool { return r.Ref == "alpha" }
	if refs, err := c.Refs(context.Background()); err != nil || !slices.ContainsFunc(refs, isAlpha) {
		t.Errorf("/v1/refs = %+v, err %v; want alpha listed", refs, err)
	}
	if st, err := c.Stats(context.Background()); err != nil || st.Ref != "alpha" {
		t.Errorf("/v1/alpha/stats = %+v, err %v; want ref alpha", st, err)
	}
	has(t, "/metrics", get(t, srv.URL+"/metrics"), `merserved_requests_total{ref="alpha"}`)

	// Hot-swap: atomically replace alpha's snapshot with beta's index. The
	// same batch must now return beta's exact bytes, with zero failed
	// requests (postRef requires the 200) and no restart.
	tmp := filepath.Join(snaps, ".alpha.tmp")
	if err := os.WriteFile(tmp, readFile(t, filepath.Join(snaps, "beta.merx")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(snaps, "alpha.merx")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // six -swap-poll intervals
	same(t, "swapped.sam and beta.sam", postRef("alpha"), betaSAM)
	matches(t, "/metrics", get(t, srv.URL+"/metrics"), "^merserved_catalog_hot_swaps_total 1$")
	srv.Term()
}

// shardReference partitions w's reference n ways with meraligner
// -shard-save and returns the snapshot paths in shard order.
func shardReference(t *testing.T, w workload, n int) []string {
	t.Helper()
	dir := t.TempDir()
	mustRun(t, "meraligner", "-targets", w.contigs, "-k", k, "-shard-save", fmt.Sprint(n), "-o", dir, "-v")
	paths := make([]string, n)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%03d.merx", i))
		if _, err := os.Stat(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestCluster: merrouted over three reference shards answers byte for byte
// what one whole-reference node does, on a repeat-poor and a repeat-rich
// reference; shards cut from a mapped snapshot are the shards cut from
// FASTA, and a shard is never cut again; a dead shard is a 502 or an
// annotated partial answer, by policy — never silent loss.
func TestCluster(t *testing.T) {
	scenario(t)
	for _, w := range []workload{ecoli, wheat} {
		t.Run(w.name, func(t *testing.T) {
			paths := shardReference(t, w, 3)
			dir := t.TempDir()
			whole := filepath.Join(dir, "whole.merx")
			mustRun(t, "meraligner", "-targets", w.contigs, "-k", k, "-save-index", whole)
			mustRun(t, "meraligner", "-index", whole, "-shard-save", "3", "-o", dir)
			for i, path := range paths {
				same(t, fmt.Sprintf("shard %d from -index and from -targets", i), readFile(t, filepath.Join(dir, filepath.Base(path))), readFile(t, path))
			}
			if out, err := run("meraligner", "-index", paths[0], "-shard-save", "2", "-o", t.TempDir()); err == nil {
				t.Error("a reference shard was sharded again")
			} else {
				has(t, "stderr", []byte(out), "cannot shard a reference shard")
			}

			var shards []*proc
			var fleet []string
			for i, path := range paths {
				shards = append(shards, start(t, fmt.Sprint("shard", i), "merserved", "-index", path))
				fleet = append(fleet, shards[i].URL)
			}
			single := start(t, "single", "merserved", "-targets", w.contigs, "-k", k)
			ready(t, append(fleet, single.URL)...)
			router := start(t, "router", "merrouted", "-shards", strings.Join(fleet, ","), "-debug-addr", "127.0.0.1:0")
			partial := start(t, "partial", "merrouted", "-shards", strings.Join(fleet, ","), "-degraded", "partial")
			ready(t, router.URL, partial.URL)

			// The contract: SAM and JSON byte-identical to one node, on every read.
			routedSAM := align(t, router.URL+v1Align, sam, w.fastq)
			same(t, "routed.sam and single.sam", routedSAM, align(t, single.URL+v1Align, sam, w.fastq))
			has(t, "routed.sam", routedSAM, "AS:i:")
			same(t, "routed.json and single.json", align(t, router.URL+v1Align, jsonT, w.fastq), align(t, single.URL+v1Align, jsonT, w.fastq))
			metrics := get(t, router.URL+"/metrics")
			has(t, "/metrics", metrics, `merrouted_shard_up{shard="0"`)
			has(t, "/metrics", metrics, "_bucket{le=")

			// A caller-supplied request ID is echoed by the router and its trace
			// lands in the debug listener's ring.
			const id = "feedfacecafebeef0123456789abcdef"
			batch := firstReads(w.fastq, smokeReads)
			echoesRequestID(t, router.URL+v1Align, batch, id)
			has(t, "/debug/requests", get(t, "http://"+router.listenAddr("debug listening on ")+"/debug/requests"), id)

			// Kill one shard: the fail policy answers 502, the partial policy
			// serves the survivors, annotated.
			shards[1].Kill()
			r, err := post(router.URL+v1Align, batch)
			if err != nil || r.status != http.StatusBadGateway {
				t.Fatalf("fail policy: status %d, err %v\n%s", r.status, err, r.body)
			}
			has(t, "502 body", r.body, "shard(s) unavailable")
			matches(t, "degraded.sam", align(t, partial.URL+v1Align, sam, batch), "^@CO\tdegraded: results missing from shard\\(s\\)")
			has(t, "degraded.json", align(t, partial.URL+v1Align, jsonT, batch), `"degraded_shards"`)

			for _, p := range []*proc{router, partial, single, shards[0], shards[2]} {
				p.Term()
			}
		})
	}
}

// TestChaos: 3 shards x 2 replicas, replica 0 of each behind a proxy with
// 100ms injected latency (so proxied RPCs are long-lived). Mid-load the
// three proxies are killed, staggered; the router must fail over with zero
// failed requests and byte-identical SAM, mark the dead replicas down and
// count the failovers. It runs on a repeat-poor and a repeat-rich
// reference.
func TestChaos(t *testing.T) {
	scenario(t)
	for _, w := range []workload{ecoli, wheat} {
		t.Run(w.name, func(t *testing.T) {
			var servers []*proc
			var proxies []*faultinject.Proxy
			var specs []string
			for s, path := range shardReference(t, w, 3) {
				a := start(t, fmt.Sprint("shard", s, "-a"), "merserved", "-index", path)
				b := start(t, fmt.Sprint("shard", s, "-b"), "merserved", "-index", path)
				ready(t, a.URL, b.URL)
				px, err := faultinject.New(strings.TrimPrefix(a.URL, "http://"), uint64(7+s))
				if err != nil {
					t.Fatal(err)
				}
				defer px.Close()
				px.SetLatency(100 * time.Millisecond)
				ready(t, px.URL()) // readiness through the proxy proves the fault path forwards
				servers, proxies = append(servers, a, b), append(proxies, px)
				specs = append(specs, px.URL()+"|"+b.URL)
			}
			single := start(t, "single", "merserved", "-targets", w.contigs, "-k", k)
			ready(t, single.URL)
			router := start(t, "router", "merrouted", "-shards", strings.Join(specs, ","),
				"-breaker-threshold", "2", "-health-interval", "200ms", "-hedge-after", "1s")
			ready(t, router.URL)

			// Byte-identity before any fault, on the full read set.
			wantFull := align(t, single.URL+v1Align, sam, w.fastq)
			same(t, "routed.sam and single.sam", align(t, router.URL+v1Align, sam, w.fastq), wantFull)

			// Sustained concurrent load: 3 clients x 12 requests. Replica 0 of every
			// shard dies mid-flight, staggered: proxy s once 9(s+1) of the 36
			// requests have been answered, so every kill lands under load whatever
			// the host's speed.
			batch := firstReads(w.fastq, smokeReads)
			want := align(t, single.URL+v1Align, sam, batch)
			var load sync.WaitGroup
			var answered atomic.Int32
			for c := 1; c <= 3; c++ {
				load.Add(1)
				go func() {
					defer load.Done()
					for i := 1; i <= 12; i++ {
						r, err := post(router.URL+v1Align, batch, "Accept", sam)
						answered.Add(1)
						if err != nil || r.status != http.StatusOK {
							t.Errorf("client %d request %d failed during chaos: status %d, err %v", c, i, r.status, err)
						} else if !bytes.Equal(r.body, want) {
							t.Errorf("client %d request %d: SAM differs from the single node's", c, i)
						}
					}
				}()
			}
			for s, px := range proxies {
				for answered.Load() < int32(9*(s+1)) {
					time.Sleep(time.Millisecond)
				}
				px.Close() // closes the listener and resets every live connection
			}
			load.Wait()

			// The survivor-only fleet still answers byte-identically.
			same(t, "after.sam and single.sam", align(t, router.URL+v1Align, sam, w.fastq), wantFull)

			// The router logged the up->down flips, probes show the killed
			// replicas down and the survivors up, failed-over scatters were
			// counted, and /v1/stats carries the per-replica breakdown.
			time.Sleep(time.Second) // let the 200ms probes observe every dead replica
			router.logged("replica down")
			metrics := get(t, router.URL+"/metrics")
			for s := range proxies {
				matches(t, "/metrics", metrics, fmt.Sprintf(`^merrouted_replica_up\{shard="%d",replica="0",.*\} 0$`, s))
				matches(t, "/metrics", metrics, fmt.Sprintf(`^merrouted_replica_up\{shard="%d",replica="1",.*\} 1$`, s))
				has(t, "/metrics", metrics, fmt.Sprintf(`merrouted_replica_state{shard="%d",replica="0",`, s))
			}
			matches(t, "/metrics", metrics, `^merrouted_failovers_total [1-9]`)
			stats := get(t, router.URL+"/v1/stats")
			for _, field := range []string{`"replicas":`, `"up":false`, `"failovers":`} {
				has(t, "/v1/stats", stats, field)
			}

			for _, p := range append(servers, single, router) {
				p.Term()
			}
		})
	}
}

// TestDHT: meraligner resolving every seed against three seed-shard nodes
// writes the SAM of the local engine; a dead owner is a typed failure that
// names it, never silent seed loss.
func TestDHT(t *testing.T) {
	scenario(t)
	for _, w := range []workload{ecoli, wheat} {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			mustRun(t, "meraligner", "-targets", w.contigs, "-k", k, "-dht-save", "3", "-o", dir, "-v")
			var nodes []*proc
			var fleet []string
			for i := range 3 {
				nodes = append(nodes, start(t, fmt.Sprint("node", i), "merserved", "-seed-shard", filepath.Join(dir, fmt.Sprintf("seed-shard-%03d.merx", i))))
				fleet = append(fleet, nodes[i].URL)
			}
			ready(t, fleet...)
			has(t, "/v1/shardinfo", get(t, nodes[1].URL+"/v1/shardinfo"), `"id":1`)

			local, remote := filepath.Join(dir, "local.sam"), filepath.Join(dir, "dht.sam")
			alignArgs := []string{"-targets", w.contigs, "-k", k, "-queries", w.reads, "-sam"}
			mustRun(t, "meraligner", append(alignArgs, "-o", local)...)
			mustRun(t, "meraligner", append(alignArgs, "-dht-nodes", strings.Join(fleet, ","), "-v", "-o", remote)...)

			// The contract: seed partitioning is invisible to output.
			same(t, "dht.sam and local.sam", readFile(t, remote), readFile(t, local))
			has(t, "dht.sam", readFile(t, remote), "AS:i:")
			metrics := get(t, nodes[0].URL+"/metrics")
			matches(t, "/metrics", metrics, `^merserved_seedshard_lookup_requests_total\{[^}]*\} [1-9]`)
			matches(t, "/metrics", metrics, `^merserved_seedshard_seeds_total\{[^}]*\} [1-9]`)
			// The engine resolves a claim of 256 reads in at most two calls
			// (first seeds, then the rest of the reads the exact path did not
			// settle), so no node serves more than two requests per claim.
			claims := (bytes.Count(w.fastq, []byte("\n"))/4 + 255) / 256
			for i, n := range nodes {
				what := fmt.Sprintf("node%d /metrics", i)
				if got := sample(t, what, get(t, n.URL+"/metrics"), `merserved_seedshard_lookup_requests_total\{[^}]*\}`); got > 2*claims {
					t.Errorf("%s: %d lookup requests for %d claims of reads, want at most %d", what, got, claims, 2*claims)
				}
			}

			nodes[1].Kill()
			out, err := run("meraligner", append(alignArgs, "-dht-nodes", strings.Join(fleet, ","), "-o", os.DevNull)...)
			if err == nil {
				t.Fatal("alignment succeeded with a dead seed-shard node")
			}
			has(t, "stderr", []byte(out), "seed shard 1")
			has(t, "stderr", []byte(out), "degraded")

			nodes[0].Term()
			nodes[2].Term()
		})
	}
}
