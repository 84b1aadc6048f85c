package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/service"
)

// serveOpen is serve_open: the merserved handler over a snapshot opened from
// disk, driven through client.Client.Align at 8 reads a request. It is the
// one workload with arrival-driven load: a closed-loop saturation phase gives
// reads_per_s and the per-request latency, then requests arrive at three
// fixed rates and are timed from when they were due, so queueing shows.
type serveOpen struct {
	ds   *genome.DataSet
	snap string

	al   *meraligner.Aligner
	srv  *service.Server
	hs   *httpServer
	cl   *client.Client
	tr   *http.Transport
	sw   swSwitch
	reqs []client.AlignRequest

	openWall time.Duration // the Open share of the last set-up
	traced   passStats
}

const (
	serveReadsPerReq = 8
	// The offered rates, requests/s, fixed so that latencies compare across
	// commits: about 20 %, 50 % and 80 % of the ~500 requests/s the seed
	// commit saturates at with two connections on the reference host.
	rateR1, rateR2, rateR3 = 100.0, 250.0, 400.0
	// latencyLimit is the per-request limit goodput is counted against.
	latencyLimit = 20 * time.Millisecond
	// maxGenLate invalidates an open-loop phase whose scheduler ran late by
	// more than a tenth of the latency limit at its own p99.
	maxGenLate = latencyLimit / 10
)

func (s *serveOpen) prepare(e *env) error {
	ds, sz, err := dataset("serve_open", e.cfg.seed, e.cfg.scale)
	if err != nil {
		return err
	}
	s.ds = ds
	s.snap = filepath.Join(e.tmp, "serve", "whole.merx")
	if err := os.MkdirAll(filepath.Dir(s.snap), 0o755); err != nil {
		return err
	}
	s.reqs = requests(ds.Reads, serveReadsPerReq)
	e.counts["reads"] = len(ds.Reads)
	e.counts["requests_per_pass"] = len(s.reqs)
	return saveSnapshot(e, ds.Contigs, sz.k, s.snap, func(al *meraligner.Aligner) error { return al.Save(s.snap) })
}

func (s *serveOpen) setup(e *env) error {
	t0 := time.Now()
	al, err := meraligner.OpenThreads(e.workers, s.snap)
	if err != nil {
		return err
	}
	s.al, s.openWall = al, time.Since(t0)
	if s.srv, s.hs, err = startService(e, al, &s.sw); err != nil {
		return err
	}
	s.cl, s.tr = newClient(s.hs.base, e.workers)
	return s.cl.Ready(context.Background())
}

func (s *serveOpen) teardown() {
	if s.tr != nil {
		s.tr.CloseIdleConnections()
		s.tr = nil
	}
	if s.hs != nil {
		s.hs.stop()
		s.hs = nil
	}
	if s.al != nil {
		s.al.Close()
		s.al = nil
	}
}

func (s *serveOpen) gate(e *env) error {
	setResident(e, s.al.ResidentBytes())
	return gateWire(e, s.al, s.ds, s.cl)
}

func (s *serveOpen) measure(e *env, d time.Duration) error {
	closedLoop(nil, s.cl, s.reqs[:max(len(s.reqs)/10, 1)], e.workers) // warm-up
	// Half of the window closed loop — it carries the end-to-end metrics —
	// then the three rates in turn.
	st, err := repeatPasses(e, d/2, func(traced bool) (passOut, error) {
		return closedLoopPass(e, &s.sw, s.cl, s.reqs, traced), nil
	})
	if err != nil {
		return err
	}
	s.traced = st
	setLatency(e, "", st.lat)

	var late []float64
	phase := func(rate float64) openLoopOut {
		n := int(rate * (d / 6).Seconds())
		out := openLoop(rate, n, e.workers, func(i int) bool {
			req := s.reqs[i%len(s.reqs)]
			resp, err := s.cl.Align(context.Background(), req)
			if err != nil {
				return false
			}
			_, failed := answered(resp, len(req.Reads))
			return failed == 0
		})
		for _, ok := range out.ok {
			e.attempted += serveReadsPerReq
			if !ok {
				e.failed += serveReadsPerReq
			}
		}
		late = append(late, ms(out.late)...)
		return out
	}
	for _, r := range []struct {
		suffix string
		rate   float64
	}{{".r1", rateR1}, {".r2", rateR2}} {
		out := phase(r.rate)
		e.counts["lat_samples"+r.suffix] = len(out.lat)
		// The quarters of a phase stand in for repetitions: their spread
		// tells -compare how far one phase's percentile can be trusted.
		var p50, p99 []float64
		for q := 0; q < 4; q++ {
			part := ms(out.lat[q*len(out.lat)/4 : (q+1)*len(out.lat)/4])
			p50, p99 = append(p50, percentile(part, 0.50)), append(p99, percentile(part, 0.99))
		}
		e.set("lat_p50_ms"+r.suffix, percentile(ms(out.lat), 0.50))
		e.set("lat_p99_ms"+r.suffix, percentile(ms(out.lat), 0.99))
		e.reps["lat_p50_ms"+r.suffix], e.reps["lat_p99_ms"+r.suffix] = p50, p99
	}
	e.set("goodput_frac.r3", phase(rateR3).goodput(latencyLimit))

	lateP99 := percentile(late, 0.99)
	e.set("gen.late_p99_ms", lateP99)
	if lateP99 > float64(maxGenLate)/float64(time.Millisecond) {
		// The generator itself was starved: the open-loop latencies say as
		// much about this host as about the server. Flagged, not hidden.
		e.counts["invalid_gen_late"] = 1
		fmt.Fprintf(os.Stderr, "bench: serve_open: open-loop scheduler ran %.2f ms late at p99 (limit %v): open-loop figures invalid\n", lateP99, maxGenLate)
	}
	return nil
}

func (s *serveOpen) layers(e *env) error {
	indexMetrics(e, s.al)
	e.set("merx.open_s", s.openWall.Seconds())
	swMetrics(e, s.sw.sample(), s.traced.traced, s.traced.tracedWall, e.workers)

	st := s.srv.Snapshot()
	e.set("service.mean_batch_reads", st.MeanBatchReads)
	e.set("service.engine_calls", float64(st.Batches))
	e.set("service.rejected", float64(st.Rejected))
	ring := s.srv.TraceRing().Snapshot()
	e.tr.attachServerSpans("service.", ring)
	stages := map[string][]float64{}
	for _, rt := range ring {
		for _, sp := range rt.Spans {
			stages[sp.Stage] = append(stages[sp.Stage], float64(sp.DurationUs)/1e3)
		}
	}
	e.set("service.admission_p50_ms", percentile(stages["admission"], 0.5))
	e.set("service.batch_wait_p50_ms", percentile(stages["batch_wait"], 0.5))
	e.set("service.batch_wait_p99_ms", percentile(stages["batch_wait"], 0.99))
	e.set("service.engine_p50_ms", percentile(stages["engine"], 0.5))
	e.set("service.render_p50_ms", percentile(stages["render"], 0.5))

	// The serving core without HTTP: the same requests through AlignBatched.
	s.sw.on.Store(false)
	reads := s.ds.Reads
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr atomic.Value
	t0 := time.Now()
	for c := 0; c < e.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(serveReadsPerReq)) - serveReadsPerReq
				if lo >= len(reads) {
					return
				}
				if _, err := s.srv.AlignBatched(context.Background(), reads[lo:min(lo+serveReadsPerReq, len(reads))]); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	batched := float64(time.Since(t0)) / float64(len(reads))
	e.set("service.batched_ns_per_read", batched)
	e.set("service.http_overhead_frac", 1-batched/(1e9/e.values["reads_per_s"]))
	return s.codecReplay(e)
}

// codecReplay times the JSON on both sides of the wire over captured
// bodies: what the client spends building a request and reading an answer,
// and what the server spends parsing the request.
func (s *serveOpen) codecReplay(e *env) error {
	n := min(len(s.reqs), 400)
	reqBodies, respBodies := make([][]byte, n), make([][]byte, n)
	reads := 0
	for i := 0; i < n; i++ {
		body, err := json.Marshal(s.reqs[i])
		if err != nil {
			return err
		}
		resp, err := http.Post(s.hs.base+"/v1/align", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("capturing bodies: status %d: %v", resp.StatusCode, err)
		}
		reqBodies[i], respBodies[i] = body, raw
		reads += len(s.reqs[i].Reads)
	}
	http.DefaultClient.CloseIdleConnections()

	t0 := time.Now()
	for i := 0; i < n; i++ {
		lo := i * serveReadsPerReq
		req := client.AlignRequest{Reads: client.FromSeqs(s.ds.Reads[lo:min(lo+serveReadsPerReq, len(s.ds.Reads))])}
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		keep(uint64(len(b)))
	}
	e.set("client.encode_ns_per_read", float64(time.Since(t0))/float64(reads))

	t0 = time.Now()
	for _, raw := range respBodies {
		var out client.AlignResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			return err
		}
	}
	e.set("client.decode_ns_per_read", float64(time.Since(t0))/float64(reads))

	t0 = time.Now()
	for _, body := range reqBodies {
		r := httptest.NewRequest(http.MethodPost, "/v1/align", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		if _, err := service.ParseReads(httptest.NewRecorder(), r, 64<<20); err != nil {
			return err
		}
	}
	e.set("service.decode_ns_per_read", float64(time.Since(t0))/float64(reads))
	return nil
}
