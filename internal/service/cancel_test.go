package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/align"
)

// repeatFixture is a reference where reads are expensive: one target of 100
// copies of a 1,100-base unit, and one unique 5,000-base target. Each of the
// 8 returned 1,024-base reads, cut from the repeat unit, has 100 candidate
// diagonals at k = 51, so it costs 100 extensions of about 1.1 M cells.
// cheap is a read of the unique target (the exact path).
func repeatFixture(t *testing.T) (al *meraligner.Aligner, costly []meraligner.Seq, cheap meraligner.Seq) {
	t.Helper()
	rng := rand.New(rand.NewSource(18))
	random := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		return string(b)
	}
	unit, unique := random(1100), random(5000)
	mk := func(name, s string) meraligner.Seq {
		seq, err := meraligner.NewSeq(name, s)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	al, err := meraligner.Build(2, meraligner.DefaultIndexOptions(51),
		[]meraligner.Seq{mk("repeat", strings.Repeat(unit, 100)), mk("unique", unique)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		costly = append(costly, mk("costly", unit[8*i:8*i+1024]))
	}
	return al, costly, mk("cheap", unique[1000:1150])
}

// slowestExtension wraps q's extension to record the longest one.
func slowestExtension(q *meraligner.QueryOptions) func() time.Duration {
	var mu sync.Mutex
	var slowest time.Duration
	q.Extend = func(query, target []byte, qOff, tOff, k int, sc align.Scoring, pad int) align.Result {
		start := time.Now()
		res := align.ExtendSeed(query, target, qOff, tOff, k, sc, pad)
		mu.Lock()
		slowest = max(slowest, time.Since(start))
		mu.Unlock()
		return res
	}
	return func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return slowest
	}
}

// stopSlack is scheduling slack on top of "the deadline plus one
// extension": far below the seconds a call that ran its claim to the end
// would take.
const stopSlack = 250 * time.Millisecond

// TestAlignWorkersStopsInsideAClaim: a call whose deadline passes stops at
// its next read or candidate extension, not at the end of its claim. The 8
// costly reads are one claim and take seconds; under a 50 ms deadline the
// call returns the context's error, and no results, within 50 ms plus one
// extension.
func TestAlignWorkersStopsInsideAClaim(t *testing.T) {
	al, costly, _ := repeatFixture(t)
	q := queryOpts()
	slowest := slowestExtension(&q)
	const deadline = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res, err := al.AlignWorkers(ctx, 2, costly, q)
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || res != nil {
		t.Fatalf("AlignWorkers under a spent deadline = (%v, %v), want (nil, DeadlineExceeded)", res, err)
	}
	if bound := deadline + slowest() + stopSlack; took > bound {
		t.Fatalf("AlignWorkers returned %v after its start, want within %v (deadline + one %v extension + slack)", took, bound, slowest())
	}
}

// TestServiceDeadline504ThenServes: merserved answers a request whose
// X-Deadline-Ms budget runs out with 504, within the budget plus one
// extension, and its one engine worker is free again at once: the next
// request is served normally, with the SAM a direct call gives.
func TestServiceDeadline504ThenServes(t *testing.T) {
	al, costly, cheap := repeatFixture(t)
	q := queryOpts()
	slowest := slowestExtension(&q)
	srv, err := New(Config{Aligner: al, Query: q, Workers: 1, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	post := func(reads []meraligner.Seq, header ...string) (int, []byte, time.Duration) {
		t.Helper()
		body := mustJSON(t, client.AlignRequest{Reads: client.FromSeqs(reads)})
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/align", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", "text/x-sam")
		for i := 0; i < len(header); i += 2 {
			req.Header.Set(header[i], header[i+1])
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw, time.Since(start)
	}

	const budget = 50 * time.Millisecond
	code, body, took := post(costly, client.HeaderDeadlineMs, "50")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("request past its budget = %d %s, want 504", code, body)
	}
	if bound := budget + slowest() + stopSlack; took > bound {
		t.Fatalf("504 after %v, want within %v", took, bound)
	}
	code, body, took = post([]meraligner.Seq{cheap})
	if code != http.StatusOK {
		t.Fatalf("next request = %d %s, want 200", code, body)
	}
	if bound := slowest() + stopSlack; took > bound {
		t.Fatalf("next request took %v behind the cancelled call, want within %v", took, bound)
	}
	if want := directSAM(t, al, []meraligner.Seq{cheap}); !bytes.Equal(body, want) {
		t.Fatalf("next request's SAM differs from a direct call:\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestStopEndsALargeCall: Close, and a Drain whose context expires, stop the
// engine call of a request of MaxBatch reads or more like any other: the
// request, the 8 costly reads of repeatFixture (seconds of work for the one
// engine worker), is answered 503 within one extension of the stop.
func TestStopEndsALargeCall(t *testing.T) {
	al, costly, _ := repeatFixture(t)
	const drainFor = 50 * time.Millisecond
	for _, tc := range []struct {
		name  string
		after time.Duration // how long stop takes to give up on the call
		stop  func(*testing.T, *Server)
	}{
		{"Close", 0, func(_ *testing.T, s *Server) { s.Close() }},
		{"expired Drain", drainFor, func(t *testing.T, s *Server) {
			ctx, cancel := context.WithTimeout(context.Background(), drainFor)
			defer cancel()
			if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("Drain with a call running = %v, want DeadlineExceeded", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := queryOpts()
			slowest := slowestExtension(&q)
			srv, err := New(Config{Aligner: al, Query: q, Workers: 1, FrontConfig: FrontConfig{MaxBatch: len(costly)}, Version: "test"})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer func() {
				ts.Close()
				srv.Close()
			}()
			body := mustJSON(t, client.AlignRequest{Reads: client.FromSeqs(costly)})
			type answer struct {
				code int
				at   time.Time
			}
			done := make(chan answer, 1)
			go func() {
				code := 0
				if resp, err := http.Post(ts.URL+"/v1/align", "application/json", bytes.NewReader(body)); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					code = resp.StatusCode
				}
				done <- answer{code, time.Now()}
			}()
			waitUntil(t, "the call to extend", func() bool { return slowest() > 0 })
			start := time.Now()
			tc.stop(t, srv)
			select {
			case a := <-done:
				if bound := tc.after + slowest() + stopSlack; a.at.Sub(start) > bound {
					t.Fatalf("request returned %v after the stop, want within %v", a.at.Sub(start), bound)
				}
				if a.code != http.StatusServiceUnavailable {
					t.Fatalf("stopped request answered %d, want 503", a.code)
				}
			case <-time.After(time.Minute):
				t.Fatal("request still running a minute after the stop")
			}
		})
	}
}
