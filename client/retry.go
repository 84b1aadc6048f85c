package client

import (
	"context"
	"errors"
	"math/rand/v2"
	"time"
)

// RetryPolicy shapes bounded retries against an overloaded or briefly
// unavailable merserved: capped exponential backoff with jitter, honoring
// the server's Retry-After hint when one came back (429 overload, 503
// warmup/drain). End users opt a Client in with WithRetry; the
// scatter/gather router (internal/cluster) drives the same policy itself so
// it can count every attempt per shard.
//
// The zero value is usable: each field independently falls back to its
// default, so RetryPolicy{MaxAttempts: 5} means "five attempts, default
// backoff".
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, including the first.
	// Default 3.
	MaxAttempts int

	// BaseDelay is the backoff before the first retry; it doubles per
	// retry. Default 50ms.
	BaseDelay time.Duration

	// MaxDelay caps the backoff growth. Default 2s.
	MaxDelay time.Duration

	// Jitter spreads each delay uniformly over [delay*(1-Jitter),
	// delay*(1+Jitter)] so synchronized clients don't retry in lockstep.
	// Default 0.2; negative disables jitter.
	Jitter float64

	// AttemptTimeout bounds each individual attempt (a per-call deadline
	// layered under the caller's context). 0 means no per-attempt bound.
	AttemptTimeout time.Duration
}

// DefaultAttemptTimeout bounds one attempt of the fleet's own RPCs — the
// router's shard calls and the seed-lookup client's calls — when their
// RetryPolicy leaves AttemptTimeout unset, so a peer that accepts a request
// and never answers costs a bounded retry ladder, not a caller blocked
// forever. A Client's WithRetry policy keeps the field's own zero meaning.
const DefaultAttemptTimeout = 15 * time.Second

// DefaultRetryPolicy returns the defaults spelled out on the fields: 3
// attempts, 50ms doubling to a 2s cap, 20% jitter, no per-attempt timeout.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: 0.2}
}

// withDefaults fills unset fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Jitter == 0 {
		p.Jitter = d.Jitter
	}
	return p
}

// Retryable reports whether err is worth another attempt: server overload
// (429), transient unavailability (502/503/504 — a shard warming, draining,
// or behind a flaky proxy), per-attempt timeouts, and transport errors.
// Other HTTP statuses (400 bad request, 404, 413...) mean the same request
// would fail the same way, and a finished caller context means stop: ctx is
// the *caller's* context, so a deadline-exceeded error with ctx already done
// is the caller's own budget expiring — retrying against a spent budget can
// only lose — whereas the same error with ctx still live is one attempt's
// AttemptTimeout firing, which the next attempt may well beat.
func Retryable(ctx context.Context, err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	if ctx.Err() != nil && errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var re *RetryError
	if errors.As(err, &re) {
		return true
	}
	var se *StatusError
	if errors.As(err, &se) {
		switch se.Code {
		case 502, 503, 504:
			return true
		}
		return false
	}
	// Everything else — transport errors, per-attempt deadline expiries —
	// is transient from the caller's point of view.
	return true
}

// RetryAfterHint extracts the server's explicit backoff request from err,
// when it sent one: the Retry-After of a 429 (*RetryError) or of a 503
// (*StatusError.After). ok is false when the server gave no hint.
func RetryAfterHint(err error) (d time.Duration, ok bool) {
	var re *RetryError
	if errors.As(err, &re) && re.After > 0 {
		return re.After, true
	}
	var se *StatusError
	if errors.As(err, &se) && se.After > 0 {
		return se.After, true
	}
	return 0, false
}

// Backoff returns the delay before retry number `retry` (1 for the first
// retry), already jittered. A server hint (see RetryAfterHint) overrides
// the exponential schedule when it asks for longer — the server knows its
// own recovery time; ignoring it just burns an attempt.
func (p RetryPolicy) Backoff(retry int, hint time.Duration) time.Duration {
	p = p.withDefaults()
	if retry < 1 {
		retry = 1
	}
	d := p.BaseDelay
	for i := 1; i < retry && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if hint > d {
		d = hint
	}
	if p.Jitter > 0 {
		spread := 1 + p.Jitter*(2*rand.Float64()-1)
		d = time.Duration(float64(d) * spread)
	}
	return d
}

// Do runs fn until it succeeds, returns a non-retryable error, exhausts
// MaxAttempts, or ctx is done — whichever comes first; the last attempt's
// error is returned. It is returned at once when the backoff before the
// next attempt would end past ctx's deadline: sleeping out a budget that
// cannot fit another attempt only delays the error. Each attempt gets its
// own context, bounded by AttemptTimeout when set, so one hung connection
// costs one attempt, not the whole call.
func (p RetryPolicy) Do(ctx context.Context, fn func(context.Context) error) error {
	p = p.withDefaults()
	for retry := 1; ; retry++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		}
		err := fn(actx)
		cancel()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || retry >= p.MaxAttempts || !Retryable(ctx, err) {
			return err
		}
		hint, _ := RetryAfterHint(err)
		d := p.Backoff(retry, hint)
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
			return err
		}
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return err
		case <-timer.C:
		}
	}
}
