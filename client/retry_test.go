package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{&RetryError{After: time.Second}, true},
		{&StatusError{Code: 503, Message: "warming"}, true},
		{&StatusError{Code: 502, Message: "bad gateway"}, true},
		{&StatusError{Code: 504, Message: "timeout"}, true},
		{&StatusError{Code: 400, Message: "bad request"}, false},
		{&StatusError{Code: 404, Message: "no such ref"}, false},
		{&StatusError{Code: 413, Message: "too large"}, false},
		{errors.New("dial tcp: connection refused"), true}, // transport error
		{fmt.Errorf("wrapped: %w", &StatusError{Code: 400}), false},
		{fmt.Errorf("wrapped: %w", &RetryError{}), true},
	}
	for _, c := range cases {
		if got := Retryable(context.Background(), c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestRetryableCallerDeadline: a deadline-exceeded error with the caller's
// own context done is the caller's budget expiring — not retryable — while
// the same error under a live caller context is a per-attempt timeout worth
// another try.
func TestRetryableCallerDeadline(t *testing.T) {
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if Retryable(expired, context.DeadlineExceeded) {
		t.Error("caller's own expired deadline classified retryable")
	}
	if Retryable(expired, fmt.Errorf("Post \"/v1/align\": %w", context.DeadlineExceeded)) {
		t.Error("wrapped deadline error with expired caller ctx classified retryable")
	}
	if !Retryable(context.Background(), context.DeadlineExceeded) {
		t.Error("per-attempt timeout with live caller ctx classified non-retryable")
	}
	// A live caller ctx with a 503 stays retryable; an expired one still
	// reports non-deadline errors on their own merits (Do's ctx.Err() check
	// is what stops the loop).
	if !Retryable(expired, &StatusError{Code: 503}) {
		t.Error("503 classification should not depend on ctx")
	}
}

func TestBackoffBoundsAndHint(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Jitter: -1}
	// No jitter: the schedule is exactly base*2^(retry-1) capped at MaxDelay.
	wants := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, want := range wants {
		if got := p.Backoff(i+1, 0); got != want*time.Millisecond {
			t.Errorf("Backoff(%d) = %s, want %s", i+1, got, want*time.Millisecond)
		}
	}
	// A longer server hint overrides the schedule; a shorter one does not.
	if got := p.Backoff(1, 300*time.Millisecond); got != 300*time.Millisecond {
		t.Errorf("hinted Backoff = %s, want the 300ms hint", got)
	}
	if got := p.Backoff(3, time.Millisecond); got != 40*time.Millisecond {
		t.Errorf("Backoff with short hint = %s, want the 40ms schedule", got)
	}
	// Jittered delays stay within [d*(1-j), d*(1+j)].
	pj := RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Jitter: 0.2}
	for i := 0; i < 50; i++ {
		d := pj.Backoff(1, 0)
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered Backoff = %s, outside [80ms, 120ms]", d)
		}
	}
}

// TestBackoffHintExceedsMaxDelay locks in the documented behavior: a server
// hint longer than MaxDelay overrides the cap — the server knows its own
// recovery time, and sleeping less just burns an attempt. Jitter still
// applies around the hinted delay.
func TestBackoffHintExceedsMaxDelay(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Jitter: -1}
	hint := 400 * time.Millisecond
	if got := p.Backoff(1, hint); got != hint {
		t.Fatalf("Backoff with %s hint = %s, want the hint to override the %s cap", hint, got, p.MaxDelay)
	}
	if got := p.Backoff(5, hint); got != hint {
		t.Fatalf("late-retry Backoff with hint = %s, want %s", got, hint)
	}
	pj := RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Jitter: 0.2}
	for i := 0; i < 50; i++ {
		d := pj.Backoff(1, hint)
		if d < 320*time.Millisecond || d > 480*time.Millisecond {
			t.Fatalf("jittered hinted Backoff = %s, outside [320ms, 480ms]", d)
		}
	}
}

func TestRetryAfterHint(t *testing.T) {
	if d, ok := RetryAfterHint(&RetryError{After: 2 * time.Second}); !ok || d != 2*time.Second {
		t.Errorf("hint from 429 = %s, %v", d, ok)
	}
	if d, ok := RetryAfterHint(&StatusError{Code: 503, After: time.Second}); !ok || d != time.Second {
		t.Errorf("hint from 503 = %s, %v", d, ok)
	}
	if _, ok := RetryAfterHint(&StatusError{Code: 503}); ok {
		t.Error("hint reported where the server sent none")
	}
	if _, ok := RetryAfterHint(errors.New("boom")); ok {
		t.Error("hint reported for a transport error")
	}
}

func TestDoStopsOnNonRetryable(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	attempts := 0
	err := p.Do(context.Background(), func(context.Context) error {
		attempts++
		return &StatusError{Code: 400, Message: "bad request"}
	})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("err = %v", err)
	}
	if attempts != 1 {
		t.Fatalf("%d attempts on a 400, want 1", attempts)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Jitter: -1}
	attempts := 0
	err := p.Do(context.Background(), func(context.Context) error {
		attempts++
		return &StatusError{Code: 503, Message: "warming"}
	})
	if err == nil || attempts != 4 {
		t.Fatalf("attempts = %d (err %v), want 4 attempts and the last error", attempts, err)
	}
}

func TestDoRespectsCallerContext(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 100, BaseDelay: 20 * time.Millisecond, Jitter: -1}
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := p.Do(ctx, func(context.Context) error {
		attempts++
		return &StatusError{Code: 503}
	})
	if err == nil {
		t.Fatal("Do returned nil after cancel")
	}
	if attempts > 3 {
		t.Fatalf("%d attempts despite an early cancel", attempts)
	}
}

// TestDoCancelMidBackoff: a caller cancel during the backoff sleep returns
// promptly with the last attempt's error instead of sleeping out the delay.
func TestDoCancelMidBackoff(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Second, Jitter: -1}
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		errc <- p.Do(ctx, func(context.Context) error {
			attempts++
			return &StatusError{Code: 503, Message: "warming"}
		})
	}()
	time.Sleep(20 * time.Millisecond) // let the first attempt fail and the backoff timer start
	cancel()
	select {
	case err := <-errc:
		var se *StatusError
		if !errors.As(err, &se) || se.Code != 503 {
			t.Fatalf("err = %v, want the last attempt's 503", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do did not return after cancel mid-backoff")
	}
	if attempts != 1 {
		t.Fatalf("%d attempts, want 1 (cancel hit during the first backoff)", attempts)
	}
	if elapsed := time.Since(start); elapsed >= p.BaseDelay {
		t.Fatalf("Do slept the full %s backoff despite the cancel", p.BaseDelay)
	}
}

func TestDoAttemptTimeoutBoundsEachAttempt(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, Jitter: -1, AttemptTimeout: 10 * time.Millisecond}
	var deadlines int
	err := p.Do(context.Background(), func(actx context.Context) error {
		if _, ok := actx.Deadline(); ok {
			deadlines++
		}
		<-actx.Done()
		return actx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if deadlines != 2 {
		t.Fatalf("%d attempts saw a deadline, want 2", deadlines)
	}
}

// TestClientWithRetrySurvives503 is the end-to-end path: a Client opted in
// with WithRetry rides out a warming server without the caller noticing.
func TestClientWithRetrySurvives503(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"warming: index not ready"}`)
			return
		}
		var req AlignRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := AlignResponse{Reads: make([]ReadResult, len(req.Reads))}
		for i, rd := range req.Reads {
			out.Reads[i] = ReadResult{Name: rd.Name, Status: StatusUnmapped}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	}))
	defer ts.Close()

	cl := New(ts.URL, WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}))
	resp, err := cl.Align(context.Background(), AlignRequest{Reads: []Read{{Name: "r", Seq: "ACGT"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Reads) != 1 || resp.Reads[0].Status != StatusUnmapped {
		t.Fatalf("resp = %+v", resp)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

// TestClientWithoutRetrySingleAttempt: without WithRetry a Client makes
// exactly one attempt and surfaces the 503 (with its Retry-After hint).
func TestClientWithoutRetrySingleAttempt(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "2")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"warming: index not ready"}`)
	}))
	defer ts.Close()

	cl := New(ts.URL)
	_, err := cl.Align(context.Background(), AlignRequest{Reads: []Read{{Name: "r", Seq: "ACGT"}}})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want a 503 StatusError", err)
	}
	if se.After != 2*time.Second {
		t.Fatalf("After = %s, want the server's 2s hint", se.After)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls, want 1", calls.Load())
	}
}

// TestClientStatsRetriesAndPropagatesDeadline: Stats is a GET like Refs and
// Targets, so it rides out a 503 under WithRetry and stamps the caller's
// deadline on every attempt.
func TestClientStatsRetriesAndPropagatesDeadline(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if r.URL.Path != "/v1/alpha/stats" || r.Header.Get(HeaderDeadlineMs) == "" {
			t.Errorf("GET %s with %s %q, want /v1/alpha/stats carrying the deadline", r.URL.Path, HeaderDeadlineMs, r.Header.Get(HeaderDeadlineMs))
		}
		if calls.Load() == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(Stats{Ref: "alpha", FrontStats: FrontStats{Requests: 7}})
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl := NewRef(ts.URL, "alpha", WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}))
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ref != "alpha" || st.Requests != 7 || calls.Load() != 2 {
		t.Fatalf("stats %+v after %d calls, want alpha with 7 requests after 2", st, calls.Load())
	}
}
