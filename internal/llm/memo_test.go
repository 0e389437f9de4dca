package llm

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/parser"
)

// respondUnmemoized is the simulator's reply without the window memo: it
// parses, hashes, rewrites and prints on every call. It also names the
// reply's kind, so tests can check which channels they exercised.
func respondUnmemoized(s *Sim, prompt string, attempt, round int) (text, kind string) {
	fnText := ExtractFunc(prompt)
	if fnText == "" {
		return "I could not find an LLVM IR function in the request.", "no-function"
	}
	src, err := parser.ParseFunc(fnText)
	if err != nil {
		return wrapIR(fnText), "parse-error"
	}
	h := ir.Hash(src)
	rng := s.rng(h, round)
	defer rngPool.Put(rng)
	uChannel := rng.Float64()

	ideal := opt.Run(src, opt.Options{Rules: s.kb})
	known := ir.Hash(ideal) != h

	s1, s2 := s.successFor(h, round, rng)
	if !known {
		return wrapIR(src.String()), "unknown"
	}
	if attempt <= 1 {
		if s1 {
			return wrapIR(ideal.String()), "rewrite"
		}
		if uChannel < s.prof.SyntaxErrRate {
			return wrapIR(corruptSyntax(ideal)), "corrupt"
		}
		if wrong, ok := hallucinate(ideal); ok {
			return wrapIR(wrong.String()), "hallucinate"
		}
		return wrapIR(src.String()), "echo"
	}
	if s2 {
		return wrapIR(ideal.String()), "rewrite"
	}
	return wrapIR(src.String()), "echo"
}

// memoPrompts returns the prompt of every window the campaign extracts
// from corpus seeds 501–503, a window that does not parse, a prompt with
// no function in it, and 200 renamed copies of a known and an unknown
// window. The seeds share most of their windows, and the copies are what
// makes the distinct texts outnumber the memo.
func memoPrompts(t *testing.T) []string {
	t.Helper()
	var prompts []string
	for seed := uint64(501); seed <= 503; seed++ {
		ex := extract.New(extract.Options{}) // one campaign job per seed
		for _, p := range corpus.Generate(corpus.Options{Seed: seed}) {
			for _, m := range p.Modules {
				ex.Stream(m, func(seq *extract.Sequence) bool {
					prompts = append(prompts, "Optimize the following LLVM IR instruction sequence:\n\n"+seq.Fn.String())
					return true
				})
			}
		}
	}
	prompts = append(prompts,
		"Optimize:\n\ndefine i8 @f(i8 %x) {\n  %r = smax i8 %x, 0\n  ret i8 %r\n}\n",
		"There is no function in this request.")
	for i := 0; i < 100; i++ {
		prompts = append(prompts,
			"Optimize:\n\n"+strings.Replace(kbCase, "@src", fmt.Sprintf("@known%d", i), 1),
			fmt.Sprintf("Optimize:\n\ndefine i8 @unknown%d(i8 %%x, i8 %%y) {\n  %%r = add i8 %%x, %%y\n  ret i8 %%r\n}\n", i))
	}
	return prompts
}

// TestSimMemoMatchesUnmemoized checks that the window memo changes no
// reply: over every window of three campaign seeds, five rounds and three
// attempts, on an uncalibrated and a fully calibrated Sim, each reply
// equals the unmemoized one. The windows outnumber the memo's capacity, so
// a second pass meets windows that were evicted and rebuilt.
func TestSimMemoMatchesUnmemoized(t *testing.T) {
	prompts := memoPrompts(t)
	distinct := map[string]bool{}
	for _, p := range prompts {
		distinct[ExtractFunc(p)] = true
	}
	if len(distinct) <= windowMemoCap {
		t.Fatalf("%d distinct windows do not force eviction past %d entries", len(distinct), windowMemoCap)
	}
	plain := NewSim("Gemini2.0T", 501)
	calibrated := NewSim("Llama3.3", 502)
	for i, p := range prompts {
		if f, err := parser.ParseFunc(ExtractFunc(p)); err == nil {
			calibrated.Calibrate(ir.Hash(f), Calibration{Minus: i % 3, Plus: 2 + i%4})
		}
	}
	kinds := map[string]int{}
	for _, sim := range []*Sim{plain, calibrated} {
		// Each pass asks about every window in all rounds and attempts, so
		// one entry serves every reply kind of its window. By the second
		// pass the early windows have been evicted and are rebuilt.
		for pass := 0; pass < 2; pass++ {
			for i, p := range prompts {
				for round := 0; round <= 4; round++ {
					for attempt := 1; attempt <= 3; attempt++ {
						want, kind := respondUnmemoized(sim, p, attempt, round)
						kinds[kind]++
						if got := sim.respond(p, attempt, round); got != want {
							t.Fatalf("%s pass %d prompt %d round %d attempt %d (%s):\ngot  %q\nwant %q",
								sim.prof.Name, pass, i, round, attempt, kind, got, want)
						}
					}
				}
			}
		}
		if n := sim.windows.Len(); n != windowMemoCap {
			t.Errorf("%s memo holds %d windows, want its capacity %d", sim.prof.Name, n, windowMemoCap)
		}
	}
	for _, k := range []string{"no-function", "parse-error", "unknown", "rewrite", "corrupt", "hallucinate", "echo"} {
		if kinds[k] == 0 {
			t.Errorf("no reply of kind %s was checked (%v)", k, kinds)
		}
	}
}

// TestSimConcurrentCompleteOneWindow asks about one window from many
// goroutines at once, on a cold memo, across rounds and attempts. Every
// reply must equal the unmemoized one. Run it with -race.
func TestSimConcurrentCompleteOneWindow(t *testing.T) {
	src := parser.MustParseFunc(kbCase)
	prompt := "Optimize:\n\n" + src.String()
	sim := NewSim("Llama3.3", 7)
	const goroutines, rounds = 8, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				round := (g + i) % rounds
				msgs := []Message{{Role: RoleUser, Content: prompt}}
				for attempt := 1; attempt <= 2; attempt++ {
					resp, err := sim.Complete(context.Background(), Request{Round: round, Messages: msgs})
					if err != nil {
						t.Error(err)
						return
					}
					if want, _ := respondUnmemoized(sim, prompt, attempt, round); resp.Text != want {
						t.Errorf("goroutine %d round %d attempt %d: got %q, want %q", g, round, attempt, resp.Text, want)
						return
					}
					msgs = append(msgs,
						Message{Role: RoleAssistant, Content: resp.Text},
						Message{Role: RoleUser, Content: "feedback"})
				}
			}
		}(g)
	}
	wg.Wait()
	if n := sim.windows.Len(); n != 1 {
		t.Fatalf("memo holds %d windows, want 1", n)
	}
}

// TestSimRespondSteadyStateAllocs pins the cost of a warm memo hit: the
// window text is found without a copy, its replies are already printed,
// and the per-call random source comes from the pool, so answering a
// window the Sim has seen allocates nothing.
func TestSimRespondSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by the race runtime")
	}
	src := parser.MustParseFunc(kbCase)
	prompt := "Optimize:\n\n" + src.String()
	sim := NewSim("Llama3.3", 7)
	for round := 0; round < 5; round++ {
		for attempt := 1; attempt <= 2; attempt++ {
			sim.respond(prompt, attempt, round)
		}
	}
	n := 0
	allocs := testing.AllocsPerRun(500, func() {
		n += len(sim.respond(prompt, 1+n%2, n%5))
	})
	if allocs != 0 {
		t.Errorf("a warm Sim.respond allocates %.0f times, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("empty replies")
	}
}
