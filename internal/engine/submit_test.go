package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/llm"
	"repro/internal/parser"
)

// TestSubmitterIncremental pins the submission API: windows pushed
// incrementally produce one result each, in submission order, and Close
// drains the run cleanly.
func TestSubmitterIncremental(t *testing.T) {
	eng := New(llm.NewSim("Gemini2.0T", 1), Config{Workers: 4, Rounds: 2})
	sub := eng.Submitter(context.Background())

	windows := []*ir.Func{
		parser.MustParseFunc(`define i16 @a(i16 %x, i16 %y) {
  %a = and i16 %x, %y
  %o = or i16 %x, %y
  %r = xor i16 %a, %o
  ret i16 %r
}`),
		parser.MustParseFunc(`define i8 @b(i8 %x) { %r = add i8 %x, 0 ret i8 %r }`),
		parser.MustParseFunc(`define i8 @c(i8 %x) { %r = mul i8 %x, 2 ret i8 %r }`),
	}
	var got []Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := range sub.Results() {
			got = append(got, r)
		}
	}()
	for _, fn := range windows {
		if err := sub.Submit(context.Background(), fn); err != nil {
			t.Error(err)
		}
	}
	sub.Close()
	wg.Wait()

	if len(got) != len(windows) {
		t.Fatalf("%d results for %d submissions", len(got), len(windows))
	}
	for i, r := range got {
		if r.Index != i {
			t.Fatalf("result %d has index %d: submission order lost", i, r.Index)
		}
		if ir.Hash(r.Src) != ir.Hash(windows[i]) {
			t.Fatalf("result %d is for the wrong window", i)
		}
	}
	if err := sub.Submit(context.Background(), windows[0]); err != ErrQueueClosed {
		t.Fatalf("submit after close = %v, want ErrQueueClosed", err)
	}
}

// TestSubmitterCancel pins that cancelling the context unblocks a pending
// Submit and closes the result stream.
func TestSubmitterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	eng := New(llm.NewSim("Gemini2.0T", 1), Config{Workers: 1, QueueSize: 1})
	sub := eng.Submitter(ctx)
	cancel()
	fn := parser.MustParseFunc(`define i8 @f(i8 %x) { %r = add i8 %x, 1 ret i8 %r }`)
	// After cancellation the feeder stops pulling; Submit must not hang.
	deadline := time.After(5 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if err := sub.Submit(ctx, fn); err != nil {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("Submit hung after context cancellation")
	}
	for range sub.Results() {
	}
}

// TestLookupShortCircuit pins the store-backed path: a Lookup hit is
// returned as the sequence's result without any provider round, marked
// Cached and counted in Stats.StoreHits; misses run the loop as usual.
func TestLookupShortCircuit(t *testing.T) {
	hit := parser.MustParseFunc(`define i16 @a(i16 %x, i16 %y) {
  %a = and i16 %x, %y
  %o = or i16 %x, %y
  %r = xor i16 %a, %o
  ret i16 %r
}`)
	miss := parser.MustParseFunc(`define i8 @b(i8 %x) { %r = add i8 %x, 0 ret i8 %r }`)
	cached := Result{Outcome: Found, InstrsBefore: 4, InstrsAfter: 2}
	lookups := 0
	eng := New(llm.NewSim("Gemini2.0T", 1), Config{
		Workers: 1,
		Lookup: func(src *ir.Func) (Result, bool) {
			lookups++
			if ir.Hash(src) == ir.Hash(hit) {
				return cached, true
			}
			return Result{}, false
		},
	})
	results, stats := eng.RunAll(context.Background(), Funcs(hit, miss))
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	if !results[0].Cached || results[0].Outcome != Found || results[0].InstrsAfter != 2 {
		t.Fatalf("lookup hit not served: %+v", results[0])
	}
	if results[0].Src == nil {
		t.Fatal("cached result lost its source window")
	}
	if results[1].Cached {
		t.Fatal("lookup miss marked cached")
	}
	if lookups != 2 {
		t.Fatalf("lookup consulted %d times, want 2", lookups)
	}
	if n := stats.Snapshot().StoreHits; n != 1 {
		t.Fatalf("StoreHits = %d, want 1", n)
	}
	// The cached window consumed no provider tokens.
	if results[0].Usage.InputTokens != 0 {
		t.Fatal("short-circuited sequence still reached the provider")
	}
}
