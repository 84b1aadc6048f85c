package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/cluster"
	"github.com/lbl-repro/meraligner/internal/genome"
)

// routed is routed_closed: a cluster.New router over three shards, two
// replicas each, of service.New servers reopened from SaveShards files — the
// same reference and reads as serve_open, closed loop, 32 reads a request.
// Scatter/gather, replica choice and merge sit on top of the same engine, so
// refactors of the router show here and nowhere else, and the single node of
// serve_open is what its overhead is measured against.
type routed struct {
	ds     *genome.DataSet
	whole  string
	shards []string

	als     []*meraligner.Aligner
	servers []*httpServer
	rt      *cluster.Router
	front   *httpServer
	cl      *client.Client
	tr      *http.Transport
	sw      swSwitch
	reqs    []client.AlignRequest

	openWall time.Duration
	traced   passStats
}

const (
	routedShards      = 3
	routedReplicas    = 2
	routedReadsPerReq = 32
)

func (r *routed) prepare(e *env) error {
	// The same profile and seed as serve_open give the same reference and
	// the same reads (serve_open uses the first 4000 of them).
	ds, sz, err := dataset("routed_closed", e.cfg.seed, e.cfg.scale)
	if err != nil {
		return err
	}
	r.ds = ds
	dir := filepath.Join(e.tmp, "routed")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.whole = filepath.Join(dir, "whole.merx")
	r.reqs = requests(ds.Reads, routedReadsPerReq)
	e.counts["reads"] = len(ds.Reads)
	e.counts["requests_per_pass"] = len(r.reqs)
	iopt := meraligner.DefaultIndexOptions(sz.k)
	return saveSnapshot(e, ds.Contigs, sz.k, r.whole, func(al *meraligner.Aligner) error {
		if err := al.Save(r.whole); err != nil { // the gate's and the overhead baseline's single node
			return err
		}
		r.shards, err = meraligner.SaveShards(e.workers, iopt, ds.Contigs, routedShards, dir)
		return err
	})
}

func (r *routed) setup(e *env) error {
	t0 := time.Now()
	specs := make([]string, 0, routedShards)
	for _, p := range r.shards {
		al, err := meraligner.OpenThreads(e.workers, p)
		if err != nil {
			return err
		}
		r.als = append(r.als, al)
		var replicas []string
		for i := 0; i < routedReplicas; i++ {
			_, hs, err := startService(e, al, &r.sw)
			if err != nil {
				return err
			}
			r.servers = append(r.servers, hs)
			replicas = append(replicas, hs.base)
		}
		specs = append(specs, strings.Join(replicas, "|"))
	}
	r.openWall = time.Since(t0)
	cfg := cluster.Config{Shards: specs, HedgeAfter: 250 * time.Millisecond, Version: "bench"}
	if e.tr != nil {
		cfg.TraceCapacity = 1 << 16
	}
	rt, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	r.rt = rt
	if r.front, err = startHTTP(rt); err != nil {
		return err
	}
	r.cl, r.tr = newClient(r.front.base, e.workers)
	return waitReady("router", rt.Ready)
}

func (r *routed) teardown() {
	if r.tr != nil {
		r.tr.CloseIdleConnections()
		r.tr = nil
	}
	if r.front != nil {
		r.front.stop()
		r.front = nil
	}
	if r.rt != nil {
		r.rt.Close()
		r.rt = nil
	}
	for _, s := range r.servers {
		s.stop()
	}
	for _, al := range r.als {
		al.Close()
	}
	r.servers, r.als = nil, nil
}

func (r *routed) gate(e *env) error {
	whole, err := meraligner.OpenThreads(e.workers, r.whole)
	if err != nil {
		return err
	}
	defer whole.Close()
	// The fleet holds the reference once per shard, not once per replica:
	// replicas of a shard share one mapped index.
	var resident []int64
	for _, al := range r.als {
		resident = append(resident, al.ResidentBytes())
	}
	setResident(e, resident...)
	return gateWire(e, whole, r.ds, r.cl)
}

func (r *routed) measure(e *env, d time.Duration) error {
	closedLoop(nil, r.cl, r.reqs[:max(len(r.reqs)/10, 1)], e.workers) // warm-up
	st, err := repeatPasses(e, d, func(traced bool) (passOut, error) {
		return closedLoopPass(e, &r.sw, r.cl, r.reqs, traced), nil
	})
	r.traced = st
	if err != nil {
		return err
	}
	setLatency(e, "", st.lat)
	return nil
}

func (r *routed) layers(e *env) error {
	e.set("merx.open_s", r.openWall.Seconds())
	swMetrics(e, r.sw.sample(), r.traced.traced, r.traced.tracedWall, e.workers)
	e.tr.attachServerSpans("cluster.", r.rt.TraceRing().Snapshot())
	st := r.rt.Stats()
	var calls int64
	var rpc []float64
	for _, sh := range st.Shards {
		calls += sh.Calls
		rpc = append(rpc, sh.CallP50Ms)
	}
	e.set("cluster.shard_calls_per_request", ratio(float64(calls), float64(st.Batches)))
	e.set("cluster.failovers", float64(st.Failovers))
	e.set("cluster.hedges", float64(st.Hedges))
	e.set("cluster.shard_rpc_p50_ms", median(rpc))

	// The same requests against one whole-reference node: what routing costs.
	whole, err := meraligner.OpenThreads(e.workers, r.whole)
	if err != nil {
		return err
	}
	defer whole.Close()
	_, hs, err := startService(e, whole, &r.sw)
	if err != nil {
		return err
	}
	defer hs.stop()
	cl, tr := newClient(hs.base, e.workers)
	defer tr.CloseIdleConnections()
	var single []float64
	for i := 0; i < 3; i++ {
		out := closedLoop(nil, cl, r.reqs, e.workers)
		if out.failed > 0 {
			return fmt.Errorf("single-node baseline: %d reads failed", out.failed)
		}
		single = append(single, float64(out.ok)/out.wall.Seconds())
	}
	e.set("cluster.router_overhead_x", median(single)/e.values["reads_per_s"])
	return nil
}
