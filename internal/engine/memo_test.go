package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/alive"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/llm"
	"repro/internal/opt"
	"repro/internal/parser"
)

var raceEnabled bool

// TestPreprocessMemoKeepsParseErrorText checks that a memoized parse
// failure feeds back the diagnostic a fresh parse gives, byte for byte,
// and that a repeated candidate returns the memoized error itself.
func TestPreprocessMemoKeepsParseErrorText(t *testing.T) {
	e := New(llm.NewSim("Gemini2.0T", 1), Config{})
	bad := "define i8 @f(i8 %x) {\n  %r = smax i8 %x, 0\n  ret i8 %r\n}"
	_, want := parser.ParseFunc(bad)
	if want == nil {
		t.Fatal("the candidate should not parse")
	}
	first := e.preprocess(bad).err
	again := e.preprocess(bad).err
	if first == nil || first.Error() != want.Error() || again == nil || again.Error() != want.Error() {
		t.Fatalf("preprocess errors %v / %v, want %q", first, again, want)
	}
	if again != first {
		t.Fatal("a repeated candidate should return the memoized error")
	}
	if n := e.Stats().Stage(StagePreprocess).Invocations; n != 2 {
		t.Fatalf("preprocess invocations = %d, want 2 (a hit still counts)", n)
	}
}

// TestPreprocessMemoEntriesNotMutated is the guard behind sharing one
// canonical function among every consumer of a candidate text (filter,
// verify, learn, Result.Cand and what persists or prints it): after a
// seed-501 campaign job, every memoized function still hashes and prints
// as a fresh preprocess of its text does.
func TestPreprocessMemoEntriesNotMutated(t *testing.T) {
	const seed = 501
	e := New(llm.NewSim("Gemini2.0T", seed), Config{
		Rounds: 4,
		Learn:  true,
		Verify: alive.Options{Samples: 1024, Seed: seed},
	})
	ex := extract.New(extract.Options{})
	results, _ := e.RunAll(context.Background(), Corpus(corpus.Options{Seed: seed}, ex))
	found := 0
	for _, r := range results {
		if r.Outcome == Found {
			found++
		}
	}
	if found == 0 || e.pre.Len() == 0 {
		t.Fatalf("the job found %d and memoized %d candidates; the guard checks nothing", found, e.pre.Len())
	}
	e.pre.Range(func(text string, p preprocessed) {
		fresh, err := parser.ParseFunc(text)
		if err != nil {
			if p.err == nil || p.err.Error() != err.Error() {
				t.Errorf("memoized error %v, fresh parse %v", p.err, err)
			}
			return
		}
		fresh = opt.Run(fresh, e.cfg.Opt)
		if p.fn == nil {
			t.Errorf("memoized error %v for a candidate that parses", p.err)
			return
		}
		if ir.Hash(p.fn) != ir.Hash(fresh) || p.hash != ir.Hash(fresh) || p.fn.String() != fresh.String() {
			t.Errorf("memoized candidate was mutated:\n%s\nwant\n%s", p.fn, fresh)
		}
	})
}

// TestPreprocessSteadyStateAllocs pins the cost of a repeated candidate:
// a memo hit allocates nothing (the stage counter's map entry already
// exists).
func TestPreprocessSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by the race runtime")
	}
	e := New(llm.NewSim("Gemini2.0T", 1), Config{})
	cand := "define i8 @f(i8 %x, i8 %y) {\n  %a = and i8 %x, %y\n  %r = xor i8 %a, %x\n  ret i8 %r\n}"
	if p := e.preprocess(cand); p.err != nil {
		t.Fatal(p.err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if p := e.preprocess(cand); p.err != nil {
			t.Fatal(p.err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm preprocess allocates %.0f times, want 0", allocs)
	}
}

// TestVerifyMemoBounded feeds an engine more distinct (window, candidate)
// pairs than its verify memo holds: the memo stays at its capacity, and a
// pair verified again after eviction gets the same verdict.
func TestVerifyMemoBounded(t *testing.T) {
	e := New(llm.NewSim("Gemini2.0T", 1), Config{Verify: alive.Options{Samples: 16, Seed: 1}})
	cand := parser.MustParseFunc(`define i32 @tgt(i32 %x) { ret i32 %x }`)
	verify := func(i int) alive.Result {
		src := parser.MustParseFunc(fmt.Sprintf(`define i32 @src(i32 %%x) { %%r = xor i32 %%x, %d ret i32 %%r }`, i))
		return e.verify(src, cand, verifyKey{ir.Hash(src), ir.Hash(cand)})
	}
	first := verify(0).Verdict
	for i := 1; i < verifyMemoCap+64; i++ {
		verify(i)
	}
	if n := e.verified.Len(); n != verifyMemoCap {
		t.Fatalf("verify memo holds %d pairs after %d distinct, want its capacity %d", n, verifyMemoCap+64, verifyMemoCap)
	}
	if hits := e.Stats().VerifyCacheHits(); hits != 0 {
		t.Fatalf("%d verify memo hits on distinct pairs", hits)
	}
	if again := verify(0).Verdict; again != first {
		t.Fatalf("re-verified evicted pair: %v, first %v", again, first)
	}
}
