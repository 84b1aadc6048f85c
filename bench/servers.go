package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/align"
	"github.com/lbl-repro/meraligner/internal/service"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// Servers run inside the benchmark process on loopback listeners, as
// internal/expt already hosts them: one process generates the load and hosts
// whatever it talks to.

// httpServer is one loopback listener and its teardown.
type httpServer struct {
	base string
	stop func() // returns once the serve goroutine has exited
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = err // a dead listener shows as failed requests, which are counted
		}
	}()
	return &httpServer{
		base: "http://" + ln.Addr().String(),
		// Close, not Shutdown: no request is in flight when a workload tears
		// down, and Shutdown waits five seconds for a connection that was
		// opened and never used (a health prober's).
		stop: func() {
			hs.Close()
			<-done
		},
	}, nil
}

// startService serves one resident index the way merserved does: stock
// batching knobs, the engine pool sized to the benchmark's workers. In the
// traced run extension goes through the meter's switch, so the same servers
// answer traced and untraced passes.
func startService(e *env, al *meraligner.Aligner, sw *swSwitch) (*service.Server, *httpServer, error) {
	q := meraligner.DefaultQueryOptions()
	cfg := service.Config{Aligner: al, Query: q, Workers: e.workers, Version: "bench"}
	if e.tr != nil {
		cfg.Query.Extend = sw.extend
		cfg.TraceCapacity = 1 << 16 // keep every request of the run in the ring
	}
	srv, err := service.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	hs, err := startHTTP(srv)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	stop := hs.stop
	hs.stop = func() {
		stop()
		srv.Close()
	}
	return srv, hs, nil
}

// swSwitch is the meter for servers, which fix their query options at
// construction: metering is switched per pass instead of per call.
type swSwitch struct {
	swMeter
	on atomic.Bool
}

func (s *swSwitch) extend(query, target []byte, qOff, tOff, k int, sc align.Scoring, pad int) align.Result {
	if !s.on.Load() {
		return align.ExtendSeed(query, target, qOff, tOff, k, sc, pad)
	}
	return s.swMeter.extend(query, target, qOff, tOff, k, sc, pad)
}

// newClient is a client.Client over at most conns keep-alive connections.
func newClient(base string, conns int) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return client.New(base, client.WithHTTPClient(&http.Client{Transport: tr})), tr
}

// requests cuts the read set into wire requests of perReq reads, once.
func requests(reads []meraligner.Seq, perReq int) []client.AlignRequest {
	var out []client.AlignRequest
	for lo := 0; lo < len(reads); lo += perReq {
		out = append(out, client.AlignRequest{Reads: client.FromSeqs(reads[lo:min(lo+perReq, len(reads))])})
	}
	return out
}

// answered counts the reads of one response that came back with a status.
func answered(resp *client.AlignResponse, want int) (ok, failed int) {
	for _, r := range resp.Reads {
		if r.Status == client.StatusOK || r.Status == client.StatusUnmapped {
			ok++
		}
	}
	return ok, want - ok
}

// closedLoop sends every request once from clients goroutines, each sending
// its next request only when the previous one has been answered. A request
// that fails or is refused fails all its reads; it is never retried.
func closedLoop(tr *tracer, cl *client.Client, reqs []client.AlignRequest, clients int) passOut {
	var out passOut
	lat := make([]time.Duration, len(reqs))
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, failed := 0, 0
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					break
				}
				ctx := context.Background()
				var sc telemetry.SpanContext
				if tr != nil { // name the request, so the server's trace of it can be found
					sc = telemetry.NewSpanContext()
					ctx = telemetry.WithSpanContext(ctx, sc)
				}
				t0 := time.Now()
				resp, err := cl.Align(ctx, reqs[i])
				t1 := time.Now()
				lat[i] = t1.Sub(t0)
				if err != nil {
					failed += len(reqs[i].Reads)
					continue
				}
				o, f := answered(resp, len(reqs[i].Reads))
				ok, failed = ok+o, failed+f
				if tr != nil {
					tr.addRequest(sc.RequestID(), i, t0, t1, len(reqs[i].Reads))
				}
			}
			mu.Lock()
			out.ok, out.failed = out.ok+ok, out.failed+failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.lat = lat
	return out
}

// closedLoopPass is one pass of a serving workload: every request once,
// metered and traced or neither.
func closedLoopPass(e *env, sw *swSwitch, cl *client.Client, reqs []client.AlignRequest, traced bool) passOut {
	var tr *tracer
	if traced {
		tr = e.tr
	}
	sw.on.Store(traced)
	defer sw.on.Store(false)
	return closedLoop(tr, cl, reqs, e.workers)
}

// saveSnapshot builds the index over contigs and writes it to path,
// recording the merx.* metrics: Save is not set-up, it has its own metric.
func saveSnapshot(e *env, contigs []meraligner.Seq, k int, path string, save func(al *meraligner.Aligner) error) error {
	al, err := meraligner.Build(e.workers, meraligner.DefaultIndexOptions(k), contigs)
	if err != nil {
		return err
	}
	defer al.Close()
	t0 := time.Now()
	if err := save(al); err != nil {
		return err
	}
	e.set("merx.save_s", time.Since(t0).Seconds())
	var total int64
	files, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.merx"))
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			total += st.Size()
		}
	}
	e.set("merx.snapshot_bytes", float64(total))
	return nil
}

// waitReady polls until ready answers true.
func waitReady(what string, ready func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !ready() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
