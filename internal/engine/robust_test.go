package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/alive"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/llm"
	"repro/internal/parser"
)

// panicOnClient panics whenever a request mentions the marker, standing in
// for a provider-adjacent bug that explodes on one specific window.
type panicOnClient struct {
	llm.Client
	marker string
}

func (c panicOnClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	for _, m := range req.Messages {
		if strings.Contains(m.Content, c.marker) {
			panic("injected: provider exploded on " + c.marker)
		}
	}
	return c.Client.Complete(ctx, req)
}

// downClient is a provider that is down for good: every call fails with a
// transient-looking error, so a Retrying wrapper keeps retrying until its
// breaker trips.
type downClient struct{}

func (downClient) Profile() llm.Profile { return llm.Profile{Name: "down"} }
func (downClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	return llm.Response{}, errors.New("provider down")
}

// TestPanicIsolationQuarantinesWindow pins the tentpole contract: a panic
// inside one sequence yields OutcomePanicked and a quarantine entry for that
// window only — the campaign continues and the other windows still complete.
func TestPanicIsolationQuarantinesWindow(t *testing.T) {
	pair := clampCase()
	good := parser.MustParseFunc(pair.Src)
	bad := parser.MustParseFunc(`define i8 @panicme(i8 %x) {
  %r = add i8 %x, 0
  ret i8 %r
}`)
	sim := calibratedSim(t, "Gemini2.0T", good, llm.Calibration{Minus: 5, Plus: 5})
	e := New(panicOnClient{Client: sim, marker: "@panicme"},
		Config{Workers: 2, Verify: alive.Options{Samples: 128, Seed: 3}})
	results, stats := e.RunAll(context.Background(), Funcs(good, bad, good))
	if len(results) != 3 {
		t.Fatalf("campaign did not survive the panic: %d results", len(results))
	}
	if results[0].Outcome != Found || results[2].Outcome != Found {
		t.Fatalf("healthy windows affected by the panic: %v / %v",
			results[0].Outcome, results[2].Outcome)
	}
	r := results[1]
	if r.Outcome != Panicked || r.Err == nil ||
		!strings.Contains(r.Err.Error(), "provider exploded") {
		t.Fatalf("panicked window result wrong: %v err=%v", r.Outcome, r.Err)
	}
	snap := stats.Snapshot()
	if snap.Panics != 1 || snap.Outcomes[Panicked] != 1 {
		t.Fatalf("panic accounting wrong: Panics=%d outcomes=%v",
			snap.Panics, snap.Outcomes)
	}
	q := e.Quarantined()
	want := ir.Hash(bad)
	if len(q) != 1 || q[0] != windowHex(want) {
		t.Fatalf("quarantine list wrong: %v (want [%s])", q, windowHex(want))
	}
	var buf strings.Builder
	snap.Print(&buf)
	if !strings.Contains(buf.String(), "panics recovered") {
		t.Fatalf("stats rendering missing panic line:\n%s", buf.String())
	}
}

func windowHex(h uint64) string {
	const hex = "0123456789abcdef"
	out := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		out[i] = hex[h&0xf]
		h >>= 4
	}
	return string(out)
}

// TestDegradedModeKBProposer pins the circuit-open fallback: once the
// breaker trips, sequences skip the provider and the knowledge base plays
// the proposer — windows the registry can close are still Found, marked
// Degraded, with the rule attribution intact.
func TestDegradedModeKBProposer(t *testing.T) {
	pair := clampCase()
	src := parser.MustParseFunc(pair.Src)
	r := llm.NewRetrying(downClient{}, llm.RetryPolicy{
		MaxAttempts:      1,
		BreakerThreshold: 1,
		BreakerProbe:     1 << 20, // no probes during the test
		Sleep:            func(context.Context, time.Duration) error { return nil },
	})
	e := New(r, Config{Verify: alive.Options{Samples: 256, Seed: 3}})

	// First sequence trips the breaker and fails conventionally.
	first := e.OptimizeSeq(context.Background(), src, 0)
	if first.Outcome != Errored || first.Degraded {
		t.Fatalf("pre-trip sequence should Errored undegraded: %v", first.Outcome)
	}
	if open, _ := r.Breaker(); !open {
		t.Fatal("breaker did not trip")
	}

	// With the circuit open the KB proposer takes over.
	res := e.OptimizeSeq(context.Background(), src, 1)
	if !res.Degraded {
		t.Fatalf("circuit-open sequence not marked degraded: %+v", res.Outcome)
	}
	if res.Outcome != Found || res.Cand == nil {
		t.Fatalf("KB proposer missed the clamp window: %v", res.Outcome)
	}
	if !strings.Contains(res.Cand.String(), "llvm.smax") {
		t.Fatalf("expected the smax rewrite, got:\n%s", res.Cand)
	}
	if res.RuleHits["143636/clamp-smax"] == 0 {
		t.Fatalf("degraded finding lost rule attribution: %v", res.RuleHits)
	}
	if res.InstrsAfter >= res.InstrsBefore {
		t.Fatalf("degraded finding should shrink the window: %d -> %d",
			res.InstrsBefore, res.InstrsAfter)
	}
	if n := e.Stats().Snapshot().DegradedSeqs; n != 1 {
		t.Fatalf("DegradedSeqs = %d, want 1", n)
	}

	// A window the registry cannot close degrades to NoProposal, not Errored:
	// the campaign keeps moving.
	opaque := parser.MustParseFunc(`define i8 @opaque(i8 %x, i8 %y) {
  %r = udiv i8 %x, %y
  ret i8 %r
}`)
	res = e.OptimizeSeq(context.Background(), opaque, 0)
	if !res.Degraded || res.Outcome == Errored || res.Outcome == Found {
		t.Fatalf("uncloseable window: degraded=%v outcome=%v", res.Degraded, res.Outcome)
	}
}

// hangClient never answers until its context ends.
type hangClient struct{}

func (hangClient) Profile() llm.Profile { return llm.Profile{Name: "hang"} }
func (hangClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	<-ctx.Done()
	return llm.Response{}, ctx.Err()
}

// TestStageTimeoutBoundsPropose: a provider that never answers fails the
// sequence with Errored (deadline), not a hang and not Canceled — the
// caller's context is still live.
func TestStageTimeoutBoundsPropose(t *testing.T) {
	pair := clampCase()
	src := parser.MustParseFunc(pair.Src)
	e := New(hangClient{}, Config{StageTimeout: 20 * time.Millisecond,
		Verify: alive.Options{Samples: 64, Seed: 3}})
	start := time.Now()
	res := e.OptimizeSeq(context.Background(), src, 0)
	if res.Outcome != Errored || !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("hung propose: outcome=%v err=%v", res.Outcome, res.Err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("stage timeout did not bound the propose stage")
	}
}

// TestRunBounded pins the CPU-stage deadline helper: inline without a
// timeout, ErrStageTimeout on overrun, and panics propagate before the
// deadline instead of being lost.
func TestRunBounded(t *testing.T) {
	e := New(downClient{}, Config{})
	ran := false
	if err := e.runBounded("x", func() { ran = true }); err != nil || !ran {
		t.Fatalf("no-timeout runBounded: ran=%v err=%v", ran, err)
	}

	e = New(downClient{}, Config{StageTimeout: 10 * time.Millisecond})
	release := make(chan struct{})
	defer close(release)
	err := e.runBounded(StageVerify, func() { <-release })
	if !errors.Is(err, ErrStageTimeout) {
		t.Fatalf("overrun stage: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("pre-deadline panic swallowed")
			}
		}()
		e.runBounded(StageVerify, func() { panic("boom") })
	}()
}

// TestTrySubmitQueueFull pins the non-blocking admission path services use
// for 429s.
func TestTrySubmitQueueFull(t *testing.T) {
	q := NewQueue(1)
	fn := parser.MustParseFunc(`define i8 @f(i8 %x) {
  %r = add i8 %x, 1
  ret i8 %r
}`)
	seq := &extract.Sequence{Fn: fn, Len: fn.NumInstrs(true)}
	if err := q.TrySubmit(seq); err != nil {
		t.Fatalf("empty queue rejected submit: %v", err)
	}
	if err := q.TrySubmit(seq); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue: want ErrQueueFull, got %v", err)
	}
	q.Close()
	if err := q.TrySubmit(seq); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("closed queue: want ErrQueueClosed, got %v", err)
	}
}
