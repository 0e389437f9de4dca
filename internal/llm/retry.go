package llm

// Retrying is the fault-tolerance middleware for providers: exponential
// backoff with deterministic seeded jitter around transient failures. It is
// the production answer to the observation that both LPO-style fuzzing
// loops and superoptimizer services run unattended for days: a flaky
// provider must cost retries, not campaigns. An error that outlives the
// retries fails that round of its sequence (engine.Errored), and the
// request context, which the engine bounds by Config.StageTimeout, bounds
// the whole loop.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// transienter is the classification convention: errors that know whether
// they are worth retrying implement it (e.g. fault-injected errors, a real
// provider's 429/5xx wrappers).
type transienter interface{ Transient() bool }

// IsTransient is the retry classification: context cancellation and
// deadline expiry are permanent; errors implementing Transient() bool speak
// for themselves; anything else — network flakes, provider 5xx — is
// presumed transient and retried.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t transienter
	if errors.As(err, &t) {
		return t.Transient()
	}
	return true
}

// RetryPolicy tunes a Retrying client. The zero value gets sensible
// defaults.
type RetryPolicy struct {
	// MaxAttempts is the total Complete attempts per request, including the
	// first (default 4).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: attempt n sleeps
	// BaseDelay<<n, jittered to [50%, 100%], capped at MaxDelay
	// (defaults 50ms and 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed fixes the jitter sequence so retry schedules replay
	// deterministically (default 1).
	Seed uint64
	// Sleep is the backoff wait (default a context-aware timer). Tests
	// substitute an instant recorder.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Retrying wraps a Client with the RetryPolicy. Safe for concurrent use:
// the jitter source is mutex-guarded.
type Retrying struct {
	inner Client
	p     RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetrying wraps inner with the policy (zero value = defaults).
func NewRetrying(inner Client, p RetryPolicy) *Retrying {
	p = p.withDefaults()
	return &Retrying{
		inner: inner,
		p:     p,
		rng:   rand.New(rand.NewSource(int64(p.Seed))),
	}
}

// Profile passes through to the wrapped client.
func (r *Retrying) Profile() Profile { return r.inner.Profile() }

// backoff computes the jittered delay before retry number attempt (0-based:
// the wait after the first failure is attempt 0).
func (r *Retrying) backoff(attempt int) time.Duration {
	d := r.p.BaseDelay << uint(attempt)
	if d <= 0 || d > r.p.MaxDelay { // <<-overflow guards included
		d = r.p.MaxDelay
	}
	r.mu.Lock()
	u := r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(float64(d) * (0.5 + 0.5*u))
}

// Complete drives the wrapped client through the retry loop. Usage from
// every attempt (failed ones may still bill) accumulates into the returned
// response, and Usage.Retries counts the extra attempts this request cost.
// Permanent errors (IsTransient false) return at once.
func (r *Retrying) Complete(ctx context.Context, req Request) (Response, error) {
	var usage Usage
	for attempt := 0; ; attempt++ {
		resp, err := r.inner.Complete(ctx, req)
		usage.Add(resp.Usage)
		if err == nil {
			resp.Usage = usage
			resp.Usage.Retries += attempt
			return resp, nil
		}
		if !IsTransient(err) || attempt+1 >= r.p.MaxAttempts || ctx.Err() != nil {
			return Response{Usage: usage}, fmt.Errorf("llm: attempt %d: %w", attempt+1, err)
		}
		if serr := r.p.Sleep(ctx, r.backoff(attempt)); serr != nil {
			return Response{Usage: usage}, serr
		}
	}
}
