package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/dhtnet"
	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/service"
)

// dhtRemote is dht_remote: Aligner.Align with SeedResolver set to a
// dhtnet.Client over three service.NewSeedShard nodes, each reopened from a
// SaveSeedShards file. Every seed lookup is an RPC, so this is the only
// workload where fewer, larger or avoided lookup frames can show; the batch
// workloads, which never leave the process, are its no-change controls.
type dhtRemote struct {
	ds    *genome.DataSet
	k     int
	whole string   // the query node's own snapshot
	parts []string // the three seed-shard snapshots
	qopt  meraligner.QueryOptions

	al     *meraligner.Aligner
	shards []*core.SeedShard
	nodes  []*httpServer
	dc     *dhtnet.Client
	tr     *http.Transport

	openWall time.Duration
	exact    []bool
	meter    swMeter
	timed    timedResolver
	acc      engineAcc
	net      dhtnet.Stats // the client's counters over the traced passes
}

const (
	dhtNodes      = 3
	dhtChunkReads = 512
)

func (d *dhtRemote) prepare(e *env) error {
	ds, sz, err := dataset("dht_remote", e.cfg.seed, e.cfg.scale)
	if err != nil {
		return err
	}
	d.ds, d.k = ds, sz.k
	d.qopt = meraligner.DefaultQueryOptions()
	d.qopt.CollectAlignments = true
	dir := filepath.Join(e.tmp, "dht")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d.whole = filepath.Join(dir, "whole.merx")
	e.counts["reads"] = len(ds.Reads)
	return saveSnapshot(e, ds.Contigs, sz.k, d.whole, func(al *meraligner.Aligner) error {
		if err := al.Save(d.whole); err != nil {
			return err
		}
		d.parts, err = al.SaveSeedShards(dir, dhtNodes)
		return err
	})
}

func (d *dhtRemote) setup(e *env) error {
	t0 := time.Now()
	al, err := meraligner.OpenThreads(e.workers, d.whole)
	if err != nil {
		return err
	}
	d.al, d.openWall = al, time.Since(t0)
	owners := make([]string, 0, dhtNodes)
	for _, p := range d.parts {
		sh, err := core.LoadSeedShard(p)
		if err != nil {
			return err
		}
		d.shards = append(d.shards, sh)
		srv, err := service.NewSeedShard(service.SeedShardConfig{Shard: sh})
		if err != nil {
			return err
		}
		hs, err := startHTTP(srv)
		if err != nil {
			return err
		}
		d.nodes = append(d.nodes, hs)
		owners = append(owners, hs.base)
	}
	fp, err := al.SeedPartitionFingerprint(dhtNodes)
	if err != nil {
		return err
	}
	d.tr = &http.Transport{MaxIdleConnsPerHost: e.workers}
	d.dc, err = dhtnet.New(dhtnet.Config{
		Owners: owners, K: d.k, Shards: al.SeedTableShards(), Fingerprint: fp,
		HTTPClient: &http.Client{Transport: d.tr},
	})
	if err != nil {
		return err
	}
	d.timed.inner = d.dc
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.dc.Warm(ctx)
}

func (d *dhtRemote) teardown() {
	if d.dc != nil {
		d.dc.Close()
		d.dc = nil
	}
	if d.tr != nil {
		d.tr.CloseIdleConnections()
	}
	for _, n := range d.nodes {
		n.stop()
	}
	for _, sh := range d.shards {
		sh.Close()
	}
	d.nodes, d.shards = nil, nil
	if d.al != nil {
		d.al.Close()
		d.al = nil
	}
}

// gate: the remote-resolved SAM of the whole read set must equal the local
// table's, byte for byte.
func (d *dhtRemote) gate(e *env) error {
	want, res, err := gateLocal(e, d.al, d.ds, d.ds.Reads, d.qopt)
	if err != nil {
		return err
	}
	resident := []int64{d.al.ResidentBytes()} // the query node, then the fleet
	for _, sh := range d.shards {
		resident = append(resident, sh.ResidentBytes())
	}
	setResident(e, resident...)
	d.exact = exactReads(res, len(d.ds.Reads))
	q := d.qopt
	q.SeedResolver = d.dc
	got, _, err := localSAM(d.al, d.ds.Reads, q)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("SAM with seeds resolved over the wire differs from the local table's")
	}
	return nil
}

func (d *dhtRemote) measure(e *env, dur time.Duration) error {
	reads := d.ds.Reads
	if _, err := d.pass(e, reads[:max(len(reads)/10, 1)], true, false); err != nil { // warm-up
		return err
	}
	st, err := repeatPasses(e, dur, func(traced bool) (passOut, error) { return d.pass(e, reads, true, traced) })
	if err != nil {
		return err
	}
	setLatency(e, "", st.lat)
	return nil
}

// pass aligns and renders reads chunk by chunk, with seeds resolved by the
// fleet (remote) or by the local table.
func (d *dhtRemote) pass(e *env, reads []meraligner.Seq, remote, traced bool) (passOut, error) {
	var out passOut
	sink := &countWriter{}
	start := time.Now()
	stream, err := meraligner.NewSAMStream(sink, d.al.Targets())
	if err != nil {
		return out, err
	}
	q := d.qopt
	if remote {
		q.SeedResolver = d.dc
	}
	var net0 dhtnet.Stats
	if traced {
		q.Extend = d.meter.extend
		q.SeedResolver = &d.timed
		net0 = d.dc.Stats()
	}
	for lo := 0; lo < len(reads); lo += dhtChunkReads {
		chunk := reads[lo:min(lo+dhtChunkReads, len(reads))]
		t0 := time.Now()
		sw0, rs0 := d.meter.sample(), d.timed.sample()
		res, err := d.al.Align(context.Background(), chunk, q)
		if err != nil {
			return out, err
		}
		t1 := time.Now()
		if err := stream.WriteBatch(res, chunk); err != nil {
			return out, err
		}
		t2 := time.Now()
		out.lat = append(out.lat, t2.Sub(t0))
		out.ok += len(chunk)
		if traced {
			eng := d.acc.addCall(e.tr, 0, lo/dhtChunkReads, e.workers, res, t0, t1, t2, sw0, d.meter.sample())
			rs1 := d.timed.sample()
			d.acc.resolveBusy += rs1.busy - rs0.busy
			d.acc.resolveCalls += rs1.calls - rs0.calls
			e.tr.add(eng, lo/dhtChunkReads, "dhtnet.resolve", t0, t1, rs1.busy-rs0.busy, rs1.calls-rs0.calls)
		}
	}
	if err := stream.Flush(); err != nil {
		return out, err
	}
	out.wall = time.Since(start)
	if traced {
		d.acc.passes++
		d.acc.bytesOut += sink.n
		n := d.dc.Stats()
		d.net.Seeds += n.Seeds - net0.Seeds
		d.net.Batches += n.Batches - net0.Batches
		d.net.BatchedSeeds += n.BatchedSeeds - net0.BatchedSeeds
		d.net.Direct += n.Direct - net0.Direct
		d.net.Retries += n.Retries - net0.Retries
	}
	return out, nil
}

func (d *dhtRemote) layers(e *env) error {
	d.acc.publish(e, e.workers)
	indexMetrics(e, d.al)
	e.set("merx.open_s", d.openWall.Seconds())
	scanNs := scanReplay(e, d.ds.Reads, d.exact, d.k)
	d.acc.publishSelf(e, e.workers, scanNs, 0)

	p, reads := float64(d.acc.passes), float64(d.acc.reads)
	e.set("dhtnet.resolve_calls", float64(d.acc.resolveCalls)/p)
	e.set("dhtnet.resolve_busy_s", d.acc.resolveBusy.Seconds()/p)
	us := d.timed.durationsUs()
	e.set("dhtnet.resolve_p50_us", percentile(us, 0.50))
	e.set("dhtnet.resolve_p99_us", percentile(us, 0.99))
	e.set("dhtnet.seeds_per_read", float64(d.net.Seeds)/reads)
	e.set("dhtnet.frames_per_read", float64(d.net.Batches+d.net.Direct)/reads)
	e.set("dhtnet.seeds_per_frame", ratio(float64(d.net.BatchedSeeds), float64(d.net.Batches)))
	e.set("dhtnet.direct_calls", float64(d.net.Direct)/p)
	e.set("dhtnet.retries", float64(d.net.Retries)/p)

	// The same reads against the local table: what the wire costs.
	var local []float64
	for i := 0; i < 2; i++ {
		out, err := d.pass(e, d.ds.Reads, false, false)
		if err != nil {
			return err
		}
		local = append(local, float64(out.ok)/out.wall.Seconds())
	}
	e.set("dhtnet.overhead_x", median(local)/e.values["reads_per_s"])
	return d.wireReplay(e)
}

// wireReplay takes node 0's share of the workload's seeds, frames it the way
// the client does, and times the three steps of a lookup round trip that are
// not the network: encoding the request, the node's handler driven directly
// (no socket), and decoding the response.
func (d *dhtRemote) wireReplay(e *env) error {
	all := make([]bool, len(d.ds.Reads)) // the remote path looks up every seed of every read
	var mine []kmer.Kmer
	for _, s := range seedStream(d.ds.Reads, all, d.k) {
		if dht.OwnerOf(s, d.al.SeedTableShards(), dhtNodes) == 0 {
			mine = append(mine, s)
		}
	}
	const perFrame = 128
	var frames [][]byte
	var reqBytes, respBytes int
	t0 := time.Now()
	for lo := 0; lo+perFrame <= len(mine); lo += perFrame {
		f := dhtnet.AppendLookupRequest(nil, d.k, mine[lo:lo+perFrame])
		frames = append(frames, f)
		reqBytes += len(f)
	}
	seeds := float64(len(frames) * perFrame)
	if seeds == 0 {
		return fmt.Errorf("no seeds to replay")
	}
	e.set("dhtnet.wire_encode_ns_per_seed", float64(time.Since(t0))/seeds)

	node, err := service.NewSeedShard(service.SeedShardConfig{Shard: d.shards[0]})
	if err != nil {
		return err
	}
	resps := make([][]byte, len(frames))
	t0 = time.Now()
	for i, f := range frames {
		rec := httptest.NewRecorder()
		node.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lookup", bytes.NewReader(f)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("seed-shard handler answered %d", rec.Code)
		}
		resps[i] = rec.Body.Bytes()
		respBytes += len(resps[i])
	}
	e.set("service.seedshard_ns_per_seed", float64(time.Since(t0))/seeds)

	answers := make([]dhtnet.LookupAnswer, perFrame)
	t0 = time.Now()
	for _, r := range resps {
		if err := dhtnet.DecodeLookupResponse(r, answers); err != nil {
			return err
		}
	}
	e.set("dhtnet.wire_decode_ns_per_seed", float64(time.Since(t0))/seeds)
	e.set("dhtnet.bytes_per_seed", float64(reqBytes+respBytes)/seeds) // computed from frame sizes
	return nil
}

// timedResolver wraps the QueryOptions.SeedResolver seam around
// dhtnet.Client.ResolveSeeds: one clock pair and one append per read.
type timedResolver struct {
	inner core.SeedResolver
	mu    sync.Mutex
	durs  []time.Duration
	busy  time.Duration
}

func (t *timedResolver) ResolveSeeds(ctx context.Context, seeds []kmer.Kmer, out []core.SeedAnswer) error {
	t0 := time.Now()
	err := t.inner.ResolveSeeds(ctx, seeds, out)
	d := time.Since(t0)
	t.mu.Lock()
	t.durs = append(t.durs, d)
	t.busy += d
	t.mu.Unlock()
	return err
}

type resolveSample struct {
	calls int64
	busy  time.Duration
}

func (t *timedResolver) sample() resolveSample {
	t.mu.Lock()
	defer t.mu.Unlock()
	return resolveSample{int64(len(t.durs)), t.busy}
}

func (t *timedResolver) durationsUs() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(t.durs))
	for i, d := range t.durs {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}
