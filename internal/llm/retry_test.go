package llm

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// flakyClient fails its first failN Complete calls with err, then succeeds.
type flakyClient struct {
	failN int
	err   error
	calls int
}

func (c *flakyClient) Profile() Profile { return Profile{Name: "flaky"} }
func (c *flakyClient) Complete(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	c.calls++
	if c.calls <= c.failN {
		return Response{Usage: Usage{InputTokens: 1}}, c.err
	}
	return Response{Text: "ok", Usage: Usage{InputTokens: 1, OutputTokens: 2}}, nil
}

type transientErr struct{ transient bool }

func (e *transientErr) Error() string   { return fmt.Sprintf("transient=%v", e.transient) }
func (e *transientErr) Transient() bool { return e.transient }

// instantSleep records requested backoff delays without waiting.
func instantSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

// TestRetryRecoversTransient: two transient failures then success — the
// caller sees one successful response whose usage accumulates all three
// attempts and counts the retries.
func TestRetryRecoversTransient(t *testing.T) {
	var delays []time.Duration
	inner := &flakyClient{failN: 2, err: &transientErr{transient: true}}
	r := NewRetrying(inner, RetryPolicy{Seed: 9, Sleep: instantSleep(&delays)})
	resp, err := r.Complete(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "ok" || inner.calls != 3 {
		t.Fatalf("resp %q after %d calls", resp.Text, inner.calls)
	}
	if resp.Usage.Retries != 2 {
		t.Fatalf("Usage.Retries = %d, want 2", resp.Usage.Retries)
	}
	if resp.Usage.InputTokens != 3 {
		t.Fatalf("usage did not accumulate failed attempts: %+v", resp.Usage)
	}
	if len(delays) != 2 || delays[1] < delays[0] {
		t.Fatalf("backoff not increasing: %v", delays)
	}
}

// TestRetryJitterDeterministic: the same seed produces the same backoff
// schedule; a different seed does not.
func TestRetryJitterDeterministic(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		var delays []time.Duration
		inner := &flakyClient{failN: 3, err: &transientErr{transient: true}}
		r := NewRetrying(inner, RetryPolicy{Seed: seed, Sleep: instantSleep(&delays)})
		if _, err := r.Complete(context.Background(), Request{}); err != nil {
			t.Fatal(err)
		}
		return delays
	}
	a, b := schedule(5), schedule(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed schedules differ: %v vs %v", a, b)
		}
	}
	c := schedule(6)
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatalf("different seeds produced identical jitter: %v", a)
	}
}

// TestRetryPermanentFailsFast: a permanent error is not retried.
func TestRetryPermanentFailsFast(t *testing.T) {
	perm := &transientErr{transient: false}
	inner := &flakyClient{failN: 10, err: perm}
	var delays []time.Duration
	r := NewRetrying(inner, RetryPolicy{Sleep: instantSleep(&delays)})
	_, err := r.Complete(context.Background(), Request{})
	if !errors.Is(err, perm) {
		t.Fatalf("want the permanent error back, got %v", err)
	}
	if inner.calls != 1 || len(delays) != 0 {
		t.Fatalf("permanent error retried: %d calls, %v", inner.calls, delays)
	}
}

// TestRetryExhaustion: transient failures beyond MaxAttempts surface the
// last error.
func TestRetryExhaustion(t *testing.T) {
	inner := &flakyClient{failN: 100, err: &transientErr{transient: true}}
	var delays []time.Duration
	r := NewRetrying(inner, RetryPolicy{MaxAttempts: 3, Sleep: instantSleep(&delays)})
	if _, err := r.Complete(context.Background(), Request{}); err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if inner.calls != 3 {
		t.Fatalf("MaxAttempts 3: %d calls", inner.calls)
	}
}

// TestRetryDeadline: the request context's deadline bounds the whole retry
// loop, backoff sleeps included.
func TestRetryDeadline(t *testing.T) {
	inner := &flakyClient{failN: 100, err: &transientErr{transient: true}}
	r := NewRetrying(inner, RetryPolicy{
		MaxAttempts: 100,
		BaseDelay:   5 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.Complete(ctx, Request{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the loop: %v", elapsed)
	}
}

// TestIsTransientClassification pins the default classifier.
func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{&transientErr{transient: true}, true},
		{&transientErr{transient: false}, false},
		{errors.New("mystery network flake"), true},
		{fmt.Errorf("wrapped: %w", &transientErr{transient: false}), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
