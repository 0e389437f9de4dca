package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/alive"
	"repro/internal/benchdata"
	"repro/internal/generalize"
	"repro/internal/ir"
	"repro/internal/llm"
	"repro/internal/opt"
	"repro/internal/parser"
)

// calibratedSim builds a Sim whose calibration forces deterministic-enough
// behaviour for a benchmark: Plus=5/Minus=5 always finds on attempt 1,
// Minus=0/Plus=5 always needs the feedback round, 0/0 never finds.
func calibratedSim(t *testing.T, model string, src *ir.Func, c llm.Calibration) *llm.Sim {
	t.Helper()
	sim := llm.NewSim(model, 7)
	sim.Calibrate(ir.Hash(src), c)
	return sim
}

func clampCase() benchdata.Pair {
	for _, c := range benchdata.RQ1Cases() {
		if c.IssueID == "110591" {
			return c.Pair
		}
	}
	panic("missing case")
}

func TestEngineFindsClampFirstAttempt(t *testing.T) {
	pair := clampCase()
	src := parser.MustParseFunc(pair.Src)
	sim := calibratedSim(t, "Gemini2.0T", src, llm.Calibration{Minus: 5, Plus: 5})
	e := New(sim, Config{Verify: alive.Options{Samples: 512, Seed: 3}})
	res := e.OptimizeSeq(context.Background(), src, 0)
	if res.Outcome != Found {
		t.Fatalf("expected Found, got %v (attempts: %+v)", res.Outcome, res.Attempts)
	}
	if len(res.Attempts) != 1 || !res.Attempts[0].Verified {
		t.Fatalf("expected a single verified attempt, got %+v", res.Attempts)
	}
	if res.InstrsAfter >= res.InstrsBefore {
		t.Fatalf("found optimization should shrink the window: %d -> %d",
			res.InstrsBefore, res.InstrsAfter)
	}
	if !strings.Contains(res.Cand.String(), "llvm.smax") {
		t.Fatalf("expected the smax rewrite, got:\n%s", res.Cand)
	}
}

func TestEngineUsesFeedbackLoop(t *testing.T) {
	pair := clampCase()
	src := parser.MustParseFunc(pair.Src)
	sim := calibratedSim(t, "Gemini2.0T", src, llm.Calibration{Minus: 0, Plus: 5})
	e := New(sim, Config{Verify: alive.Options{Samples: 512, Seed: 3}})
	res := e.OptimizeSeq(context.Background(), src, 0)
	if res.Outcome != Found {
		t.Fatalf("expected Found via feedback, got %v (attempts: %+v)", res.Outcome, res.Attempts)
	}
	if len(res.Attempts) != 2 {
		t.Fatalf("expected two attempts, got %d", len(res.Attempts))
	}
	first := res.Attempts[0]
	if first.Verified {
		t.Fatal("first attempt should have failed")
	}
	if first.Feedback == "" {
		t.Fatal("first attempt should have produced feedback")
	}
	// The feedback is either an opt-style syntax diagnostic or an
	// Alive2-style counterexample (the paper's two repair channels).
	if !strings.Contains(first.Feedback, "error:") &&
		!strings.Contains(first.Feedback, "Transformation doesn't verify!") {
		t.Fatalf("unexpected feedback: %q", first.Feedback)
	}
	if !res.Attempts[1].Verified {
		t.Fatal("second attempt should verify")
	}
}

func TestAttemptLimitOneDisablesFeedback(t *testing.T) {
	pair := clampCase()
	src := parser.MustParseFunc(pair.Src)
	sim := calibratedSim(t, "Gemini2.0T", src, llm.Calibration{Minus: 0, Plus: 5})
	e := New(sim, Config{AttemptLimit: 1, Verify: alive.Options{Samples: 512, Seed: 3}})
	res := e.OptimizeSeq(context.Background(), src, 0)
	if res.Outcome == Found {
		t.Fatal("LPO- (no feedback) should not find this calibrated case")
	}
	if len(res.Attempts) != 1 {
		t.Fatalf("expected one attempt, got %d", len(res.Attempts))
	}
}

func TestNoProposalWhenModelCannotFind(t *testing.T) {
	pair := clampCase()
	src := parser.MustParseFunc(pair.Src)
	sim := calibratedSim(t, "Gemma3", src, llm.Calibration{Minus: 0, Plus: 0})
	e := New(sim, Config{Verify: alive.Options{Samples: 256, Seed: 3}})
	res := e.OptimizeSeq(context.Background(), src, 0)
	if res.Outcome == Found {
		t.Fatal("calibrated-to-zero case should never be found")
	}
}

func TestHallucinationsAreRefutedNotAccepted(t *testing.T) {
	// Run many rounds on a case where the model often needs feedback; no
	// wrong candidate may ever be recorded as Found with a failing verify.
	pair := clampCase()
	src := parser.MustParseFunc(pair.Src)
	sim := calibratedSim(t, "GPT-4.1", src, llm.Calibration{Minus: 1, Plus: 4})
	e := New(sim, Config{Verify: alive.Options{Samples: 512, Seed: 5}})
	foundRounds := 0
	for round := 0; round < 20; round++ {
		res := e.OptimizeSeq(context.Background(), src, round)
		if res.Outcome == Found {
			foundRounds++
			r := alive.Verify(src, res.Cand, alive.Options{Samples: 2048, Seed: uint64(round)})
			if r.Verdict != alive.Correct {
				t.Fatalf("round %d: accepted candidate fails re-verification:\n%s", round, res.Cand)
			}
		}
	}
	if foundRounds == 0 {
		t.Fatal("expected some rounds to succeed")
	}
	if foundRounds == 20 {
		t.Fatal("expected some rounds to fail (calibration is 4/5)")
	}
}

func TestInterestingnessRules(t *testing.T) {
	cfg := Config{}.withDefaults()
	src := parser.MustParseFunc(`define i8 @f(i8 %x) {
  %a = add i8 %x, 1
  %b = add i8 %a, 2
  ret i8 %b
}`)
	smaller := parser.MustParseFunc(`define i8 @f(i8 %x) {
  %a = add i8 %x, 3
  ret i8 %a
}`)
	identical := parser.MustParseFunc(src.String())
	differentSameSize := parser.MustParseFunc(`define i8 @f(i8 %x) {
  %a = add i8 %x, 2
  %b = add i8 %a, 1
  ret i8 %b
}`)
	if !Interesting(src, smaller, cfg.CPU) {
		t.Fatal("fewer instructions must be interesting")
	}
	if Interesting(src, identical, cfg.CPU) {
		t.Fatal("identical candidate must be uninteresting")
	}
	if !Interesting(src, differentSameSize, cfg.CPU) {
		t.Fatal("same-size but different candidate must be interesting")
	}
	slower := parser.MustParseFunc(`define i8 @f(i8 %x) {
  %a = udiv i8 %x, 3
  %b = mul i8 %a, 3
  ret i8 %b
}`)
	if Interesting(src, slower, cfg.CPU) {
		t.Fatal("slower same-count candidate must be uninteresting")
	}
}

func TestRunAggregatesStats(t *testing.T) {
	pair := clampCase()
	src := parser.MustParseFunc(pair.Src)
	other := parser.MustParseFunc(`define i8 @g(i8 %x, i8 %y) {
  %a = and i8 %x, %y
  %o = or i8 %x, %y
  %r = xor i8 %a, %o
  ret i8 %r
}`)
	sim := llm.NewSim("Gemini2.0T", 7)
	sim.Calibrate(ir.Hash(src), llm.Calibration{Minus: 5, Plus: 5})
	sim.Calibrate(ir.Hash(other), llm.Calibration{Minus: 5, Plus: 5})
	e := New(sim, Config{Workers: 2, Verify: alive.Options{Samples: 256, Seed: 3}})
	results, stats := e.RunAll(context.Background(), Funcs(src, other))
	if len(results) != 2 {
		t.Fatalf("expected 2 results, got %d", len(results))
	}
	found := 0
	for _, r := range results {
		if r.Outcome == Found {
			found++
		}
	}
	snap := stats.Snapshot()
	if found != 2 {
		t.Fatalf("expected 2 found, got %d (%v)", found, snap.Outcomes)
	}
	if snap.Sequences != 2 || snap.Usage.VirtualSeconds <= 0 {
		t.Fatalf("stats not aggregated: %d sequences, %+v", snap.Sequences, snap.Usage)
	}
	if snap.Outcomes[Found] != 2 {
		t.Fatalf("outcome tally wrong: %v", snap.Outcomes)
	}
	if p := snap.Stages[StagePropose]; p.Invocations < 2 || p.Seconds <= 0 {
		t.Fatalf("propose stage metrics missing: %+v", p)
	}
	if v := snap.Stages[StageVerify]; v.Invocations < 2 {
		t.Fatalf("verify stage metrics missing: %+v", v)
	}
}

func TestFoundResultsCarryRuleAttribution(t *testing.T) {
	pair := clampCase()
	src := parser.MustParseFunc(pair.Src)
	sim := calibratedSim(t, "Gemini2.0T", src, llm.Calibration{Minus: 5, Plus: 5})
	e := New(sim, Config{Verify: alive.Options{Samples: 512, Seed: 3}})
	results, stats := e.RunAll(context.Background(), Funcs(src))
	if results[0].Outcome != Found {
		t.Fatalf("expected Found, got %v", results[0].Outcome)
	}
	if results[0].RuleHits["143636/clamp-smax"] == 0 {
		t.Fatalf("clamp finding not attributed to its rule: %v", results[0].RuleHits)
	}
	for id := range results[0].RuleHits {
		r := opt.RuleByID(id)
		if r == nil {
			t.Fatalf("attribution names unregistered rule %q", id)
		}
		if r.Provenance == opt.ProvBaseline {
			t.Fatalf("attribution leaked baseline rule %q", id)
		}
	}
	// The engine-level stats aggregate the same attribution.
	snap := stats.Snapshot()
	if snap.RuleHits["143636/clamp-smax"] == 0 {
		t.Fatalf("stats missing rule attribution: %v", snap.RuleHits)
	}
	var buf strings.Builder
	snap.Print(&buf)
	if !strings.Contains(buf.String(), "143636/clamp-smax") {
		t.Fatalf("stats rendering missing attribution:\n%s", buf.String())
	}
	stats.Reset()
	if len(stats.Snapshot().RuleHits) != 0 {
		t.Fatal("Reset did not clear rule attribution")
	}
	if len(snap.RuleHits) == 0 {
		t.Fatal("Reset reached into an earlier snapshot")
	}
}

func TestResultsArriveInSourceOrder(t *testing.T) {
	pair := clampCase()
	src := parser.MustParseFunc(pair.Src)
	sim := calibratedSim(t, "Gemini2.0T", src, llm.Calibration{Minus: 5, Plus: 5})
	fns := make([]*ir.Func, 24)
	for i := range fns {
		fns[i] = src
	}
	e := New(sim, Config{Workers: 8, Verify: alive.Options{Samples: 128, Seed: 3}})
	results, _ := e.RunAll(context.Background(), Funcs(fns...))
	if len(results) != len(fns) {
		t.Fatalf("expected %d results, got %d", len(fns), len(results))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d — reassembly broken", i, r.Index)
		}
	}
}

func TestVerifyCacheSharedAcrossWorkers(t *testing.T) {
	pair := clampCase()
	src := parser.MustParseFunc(pair.Src)
	sim := calibratedSim(t, "Gemini2.0T", src, llm.Calibration{Minus: 5, Plus: 5})
	fns := make([]*ir.Func, 16)
	for i := range fns {
		fns[i] = src
	}
	e := New(sim, Config{Workers: 4, Verify: alive.Options{Samples: 256, Seed: 3}})
	results, stats := e.RunAll(context.Background(), Funcs(fns...))
	for _, r := range results {
		if r.Outcome != Found {
			t.Fatalf("expected every copy to be Found, got %v", r.Outcome)
		}
	}
	// 16 identical windows propose the same candidate: one real verification,
	// fifteen cache hits.
	if hits := stats.Snapshot().VerifyCacheHits; hits != len(fns)-1 {
		t.Fatalf("expected %d cache hits, got %d", len(fns)-1, hits)
	}
}

func TestEngineDedupSequences(t *testing.T) {
	pair := clampCase()
	src := parser.MustParseFunc(pair.Src)
	sim := calibratedSim(t, "Gemini2.0T", src, llm.Calibration{Minus: 5, Plus: 5})
	e := New(sim, Config{Workers: 1, DedupSequences: true,
		Verify: alive.Options{Samples: 128, Seed: 3}})
	results, stats := e.RunAll(context.Background(), Funcs(src, src, src))
	if results[0].Outcome != Found {
		t.Fatalf("first copy should be Found, got %v", results[0].Outcome)
	}
	if results[1].Outcome != Duplicate || results[2].Outcome != Duplicate {
		t.Fatalf("later copies should be Duplicate, got %v / %v",
			results[1].Outcome, results[2].Outcome)
	}
	if snap := stats.Snapshot(); snap.Outcomes[Duplicate] != 2 {
		t.Fatalf("duplicate tally wrong: %v", snap.Outcomes)
	}
}

func TestFigure3SyntaxErrorLoop(t *testing.T) {
	// Reproduce the paper's Figure 3 walk: force the syntax-error channel by
	// scanning rounds until the first attempt is a parse failure, then check
	// the loop recovers using the opt error message.
	pair := clampCase()
	src := parser.MustParseFunc(pair.Src)
	sim := llm.NewSim("Gemini2.0T", 7)
	sim.Calibrate(ir.Hash(src), llm.Calibration{Minus: 0, Plus: 5})
	e := New(sim, Config{Verify: alive.Options{Samples: 256, Seed: 3}})
	for round := 0; round < 64; round++ {
		res := e.OptimizeSeq(context.Background(), src, round)
		if len(res.Attempts) == 2 && !res.Attempts[0].Parsed {
			if !strings.Contains(res.Attempts[0].Feedback, "error:") {
				t.Fatalf("syntax feedback missing opt-style message: %q", res.Attempts[0].Feedback)
			}
			if res.Outcome != Found {
				t.Fatalf("loop should recover from the syntax error, got %v", res.Outcome)
			}
			return
		}
	}
	t.Fatal("syntax-error channel never fired in 64 rounds")
}

// TestEngineLearnsRules pins the post-verify generalize hook: a calibrated
// run over a knowledge-base window must emit a Found result carrying a
// learned rule, dedupe repeat witnesses onto one instance, and produce a
// rulebook whose compiled rules close the same window at other widths under
// a baseline-only selection.
func TestEngineLearnsRules(t *testing.T) {
	src := parser.MustParseFunc(`define i16 @src(i16 %x, i16 %y) {
  %a = and i16 %x, %y
  %o = or i16 %x, %y
  %r = xor i16 %a, %o
  ret i16 %r
}`)
	sim := calibratedSim(t, "Gemini2.0T", src, llm.Calibration{Minus: 5, Plus: 5})
	e := New(sim, Config{
		Learn:   true,
		Verify:  alive.Options{Samples: 512, Seed: 3},
		Workers: 2,
	})
	// The same window twice: the second Found must reuse the cached rule.
	results, stats := e.RunAll(context.Background(), Funcs(src, ir.CloneFunc(src)))
	if len(results) != 2 {
		t.Fatalf("expected 2 results, got %d", len(results))
	}
	for i, res := range results {
		if res.Outcome != Found {
			t.Fatalf("result %d: expected Found, got %v", i, res.Outcome)
		}
		if res.Learned == nil {
			t.Fatalf("result %d carries no learned rule", i)
		}
	}
	if results[0].Learned != results[1].Learned {
		t.Fatal("duplicate witnesses must share one learned rule instance")
	}
	rules := e.Learned()
	if len(rules) != 1 {
		t.Fatalf("expected 1 distinct learned rule, got %d", len(rules))
	}
	if len(rules[0].Widths) < 2 {
		t.Fatalf("learned rule verified at %v, want at least 2 widths", rules[0].Widths)
	}
	snap := stats.Snapshot()
	if snap.LearnedFindings != 2 {
		t.Fatalf("LearnedFindings = %d, want 2", snap.LearnedFindings)
	}
	if g := snap.Stages[StageGeneralize]; g.Invocations != 1 {
		t.Fatalf("generalize stage ran %d times, want 1 (dedup)", g.Invocations)
	}
	// Round-trip the rulebook and close the window at a different width
	// with baseline-only rules plus the learned rule.
	data, err := e.Rulebook().Encode()
	if err != nil {
		t.Fatal(err)
	}
	book, err := generalize.DecodeRulebook(data)
	if err != nil {
		t.Fatal(err)
	}
	learned, err := book.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ors, err := generalize.OptRules(learned)
	if err != nil {
		t.Fatal(err)
	}
	rs := opt.NewRuleSet(opt.Options{}).WithRules(ors...)
	win := parser.MustParseFunc(`define i32 @f(i32 %p, i32 %q) {
  %a = and i32 %p, %q
  %o = or i32 %p, %q
  %r = xor i32 %a, %o
  ret i32 %r
}`)
	if got := opt.Run(win, opt.Options{Rules: rs}); got.NumInstrs(true) != 1 {
		t.Fatalf("rulebook rule did not close the i32 window:\n%s", got)
	}
}

// TestProgramCacheSharedByVerifyAndGeneralize pins the compile-once wiring:
// one interp.Cache backs both the verify stage and the learn stage's width
// sweeps, and a campaign populates it.
func TestProgramCacheSharedByVerifyAndGeneralize(t *testing.T) {
	src := parser.MustParseFunc(`define i16 @src(i16 %x, i16 %y) {
  %a = and i16 %x, %y
  %o = or i16 %x, %y
  %r = xor i16 %a, %o
  ret i16 %r
}`)
	sim := calibratedSim(t, "Gemini2.0T", src, llm.Calibration{Minus: 5, Plus: 5})
	e := New(sim, Config{Learn: true, Verify: alive.Options{Samples: 128, Seed: 3}})
	cfg := e.Config()
	if cfg.Verify.Programs == nil {
		t.Fatal("engine did not install a program cache")
	}
	if cfg.Generalize.Verify.Programs != cfg.Verify.Programs {
		t.Fatal("generalize width sweeps must share the verify stage's program cache")
	}
	results, _ := e.RunAll(context.Background(), Funcs(src))
	if results[0].Outcome != Found {
		t.Fatalf("expected Found, got %v", results[0].Outcome)
	}
	if results[0].Learned == nil {
		t.Fatal("expected a learned rule")
	}
	// At minimum the window, its candidate, and the width-sweep
	// instantiations were compiled through the shared cache.
	if n := cfg.Verify.Programs.Len(); n < 4 {
		t.Fatalf("program cache holds %d entries, want the campaign's windows, candidates and width sweeps (>= 4)", n)
	}
}
