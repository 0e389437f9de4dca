package repro

// One benchmark per paper table and figure (deliverable (d)), plus the
// ablation benchmarks DESIGN.md §6 calls out. Experiment sizes are reduced
// per iteration so `go test -bench=.` completes in minutes; cmd/lpo-bench
// runs the full-size versions.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alive"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/extract"
	"repro/internal/generalize"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/llm"
	"repro/internal/mca"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/souper"
	"repro/internal/store"
	"repro/internal/wasm"
)

const clampSrc = `define i8 @src(i32 %0) {
  %2 = icmp slt i32 %0, 0
  %3 = tail call i32 @llvm.umin.i32(i32 %0, i32 255)
  %4 = trunc nuw i32 %3 to i8
  %5 = select i1 %2, i8 0, i8 %4
  ret i8 %5
}`

const clampTgt = `define i8 @tgt(i32 %0) {
  %2 = tail call i32 @llvm.smax.i32(i32 %0, i32 0)
  %3 = tail call i32 @llvm.umin.i32(i32 %2, i32 255)
  %4 = trunc nuw i32 %3 to i8
  ret i8 %4
}`

// BenchmarkTable1Models renders the model roster (paper Table 1).
func BenchmarkTable1Models(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PrintTable1(io.Discard)
	}
}

// BenchmarkTable2RQ1 regenerates the RQ1 detection matrix (paper Table 2),
// one round per model per iteration.
func BenchmarkTable2RQ1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.RunRQ1(experiments.RQ1Options{Rounds: 1, Seed: uint64(i + 1)})
		rep.Print(io.Discard)
	}
}

// BenchmarkTable3RQ2 regenerates the RQ2 findings table (paper Table 3):
// corpus generation, extraction, discovery and both baselines.
func BenchmarkTable3RQ2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.RunRQ2(experiments.RQ2Options{Seed: uint64(i + 1), DiscoverRounds: 10})
		rep.Print(io.Discard)
	}
}

// BenchmarkTable4Throughput regenerates the throughput/cost comparison
// (paper Table 4) over a reduced sample.
func BenchmarkTable4Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.RunRQ3(experiments.RQ3Options{Sequences: 60, Seed: uint64(i + 1)})
		rep.Print(io.Discard)
	}
}

// BenchmarkTable5PatchImpact regenerates the patch-impact table (paper
// Table 5), including the real compile-time measurement.
func BenchmarkTable5PatchImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.RunTable5(uint64(i + 1))
		rep.Print(io.Discard)
	}
}

// BenchmarkFigure4CaseStudies replays the three case studies (paper Fig. 4).
func BenchmarkFigure4CaseStudies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.PrintFigure4(io.Discard, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Spec regenerates the SPEC-like runtime comparison (paper
// Figure 5).
func BenchmarkFigure5Spec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunFigure5(200)
		if err != nil {
			b.Fatal(err)
		}
		rep.Print(io.Discard)
	}
}

// --- Ablations (DESIGN.md §6) ---

func engineFor(attempts int, cfgMod func(*engine.Config)) (*engine.Engine, *ir.Func) {
	src := opt.RunO3(parser.MustParseFunc(clampSrc))
	sim := llm.NewSim("Gemini2.0T", 9)
	sim.Calibrate(ir.Hash(src), llm.Calibration{Minus: 2, Plus: 5})
	cfg := engine.Config{AttemptLimit: attempts, Verify: alive.Options{Samples: 256, Seed: 9},
		// The ablations measure the loop itself; disable the memoization so
		// every iteration pays the real verification cost.
		DisableVerifyCache: true}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	return engine.New(sim, cfg), src
}

// BenchmarkAblationAttemptLimit1 is LPO- (no feedback round).
func BenchmarkAblationAttemptLimit1(b *testing.B) {
	e, src := engineFor(1, nil)
	for i := 0; i < b.N; i++ {
		e.OptimizeSeq(context.Background(), src, i)
	}
}

// BenchmarkAblationAttemptLimit2 is the paper's configuration.
func BenchmarkAblationAttemptLimit2(b *testing.B) {
	e, src := engineFor(2, nil)
	for i := 0; i < b.N; i++ {
		e.OptimizeSeq(context.Background(), src, i)
	}
}

// BenchmarkAblationAttemptLimit4 doubles the feedback budget.
func BenchmarkAblationAttemptLimit4(b *testing.B) {
	e, src := engineFor(4, nil)
	for i := 0; i < b.N; i++ {
		e.OptimizeSeq(context.Background(), src, i)
	}
}

// BenchmarkAblationNoInterestingness shows the cost of skipping the cheap
// filter: every candidate goes straight to the verifier.
func BenchmarkAblationNoInterestingness(b *testing.B) {
	e, src := engineFor(2, func(c *engine.Config) { c.DisableInterestingness = true })
	for i := 0; i < b.N; i++ {
		e.OptimizeSeq(context.Background(), src, i)
	}
}

// BenchmarkAblationNoOptPreprocess skips candidate canonicalization.
func BenchmarkAblationNoOptPreprocess(b *testing.B) {
	e, src := engineFor(2, func(c *engine.Config) { c.DisableOptPreprocess = true })
	for i := 0; i < b.N; i++ {
		e.OptimizeSeq(context.Background(), src, i)
	}
}

// BenchmarkEngineWorkers measures the wall-clock scaling of the concurrent
// engine over a fixed extracted batch as the pool grows.
func BenchmarkEngineWorkers(b *testing.B) {
	projects := corpus.Generate(corpus.Options{Seed: 5, ModulesPerProject: 2, FuncsPerModule: 6})
	ex := extract.New(extract.Options{})
	var seqs []*extract.Sequence
	for _, p := range projects {
		for _, m := range p.Modules {
			seqs = append(seqs, ex.Module(m)...)
		}
	}
	if len(seqs) > 120 {
		seqs = seqs[:120]
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := llm.NewSim("Gemini2.0T", 5)
				e := engine.New(sim, engine.Config{
					Workers: workers, Rounds: 2,
					Verify: alive.Options{Samples: 128, Seed: 5},
				})
				results, _ := e.RunAll(context.Background(), engine.Sequences(seqs...))
				if len(results) != len(seqs) {
					b.Fatal("lost results")
				}
			}
		})
	}
}

// BenchmarkCampaignJob runs one `lpo -corpus -rounds 4 -learn -seed S` job
// per iteration (seeds 501, 502, ... in turn), wired as the campaign
// workload of perfbench wires it: the simulated provider, the engine, the
// corpus source, and the rulebook encoding at the end. It is the
// end-to-end handle for `go test -bench CampaignJob -cpuprofile`.
func BenchmarkCampaignJob(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seed := uint64(501 + i%12)
		e := engine.New(llm.NewSim("Gemini2.0T", seed), engine.Config{
			Rounds: 4,
			Learn:  true,
			Verify: alive.Options{Samples: 1024, Seed: seed},
		})
		ex := extract.New(extract.Options{})
		results, _ := e.Run(context.Background(), engine.Corpus(corpus.Options{Seed: seed}, ex))
		for res := range results {
			switch res.Outcome {
			case engine.Errored, engine.Panicked, engine.Canceled:
				b.Fatalf("seed %d window %d: %s", seed, res.Index, res.Outcome)
			}
		}
		if _, err := e.Rulebook().Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDedup measures extraction with the cross-module dedup set
// (the paper eliminates ~8.7M duplicates this way).
func BenchmarkAblationDedup(b *testing.B) {
	projects := corpus.Generate(corpus.Options{Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := extract.New(extract.Options{})
		for _, p := range projects {
			for _, m := range p.Modules {
				ex.Module(m)
			}
		}
	}
}

// BenchmarkAblationNoDedup rebuilds the dedup set per module, so duplicates
// survive across modules — the configuration the dedup design avoids.
func BenchmarkAblationNoDedup(b *testing.B) {
	projects := corpus.Generate(corpus.Options{Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range projects {
			for _, m := range p.Modules {
				extract.New(extract.Options{}).Module(m)
			}
		}
	}
}

// BenchmarkSouperEnum sweeps the Enum parameter (the paper's cost/coverage
// frontier).
func BenchmarkSouperEnum(b *testing.B) {
	src := parser.MustParseFunc(`define i8 @src(i8 %x, i8 %y) {
  %a = and i8 %x, %y
  %o = or i8 %x, %y
  %r = xor i8 %a, %o
  ret i8 %r
}`)
	for _, enum := range []int{0, 1, 2, 3} {
		enum := enum
		b.Run(benchName("enum", enum), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				souper.Optimize(src, souper.Options{Enum: enum, Seed: uint64(i)})
			}
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "=" + string(rune('0'+n))
}

// --- Substrate micro-benchmarks ---

func BenchmarkParserClamp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := parser.ParseFunc(clampSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptClamp(b *testing.B) {
	f := parser.MustParseFunc(clampSrc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.RunO3(f)
	}
}

// BenchmarkOptAllRules runs the full pipeline with every patch and
// knowledge-base rule enabled — the configuration the simulated LLM uses for
// every proposal, and the worst case for rule dispatch. The per-rule
// old-vs-new dispatch comparison lives in internal/opt's
// BenchmarkRewriteDispatch; the sub-benchmarks here show what sharing the
// prebuilt opcode-indexed RuleSet across runs saves over rebuilding it.
func BenchmarkOptAllRules(b *testing.B) {
	f := parser.MustParseFunc(clampSrc)
	rules := opt.AllRuleNames()
	b.Run("per-run-tables", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opt.Run(f, opt.Options{Patches: rules})
		}
	})
	rs := opt.NewRuleSet(opt.Options{Patches: rules})
	b.Run("prebuilt-ruleset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opt.Run(f, opt.Options{Rules: rs})
		}
	})
}

// --- Verify, interp, wasm and store hot paths ---
//
// .github/perfgate.sh compares these, the parser and opt benchmarks above
// and BenchmarkCampaignJob between a commit and its parent (time and
// allocs per op).

var multiBlockSrc = parser.MustParseFunc(`define i32 @src(i32 %x) {
entry:
  %c = icmp slt i32 %x, 0
  br i1 %c, label %neg, label %pos
neg:
  %n = sub i32 0, %x
  br label %join
pos:
  br label %join
join:
  %a = phi i32 [ %n, %neg ], [ %x, %pos ]
  %r = and i32 %a, 2147483647
  ret i32 %r
}`)

var multiBlockTgt = parser.MustParseFunc(`define i32 @tgt(i32 %x) {
  %s = ashr i32 %x, 31
  %t = xor i32 %x, %s
  %a = sub i32 %t, %s
  %r = and i32 %a, 2147483647
  ret i32 %r
}`)

var memSrc = parser.MustParseFunc(`define i8 @src(ptr %p, i32 %x) {
  %t = trunc i32 %x to i8
  %v = load i8, ptr %p
  %d = shl i8 %v, 1
  %s = add i8 %d, %t
  store i8 %s, ptr %p
  ret i8 %s
}`)

var memTgt = parser.MustParseFunc(`define i8 @tgt(ptr %p, i32 %x) {
  %t = trunc i32 %x to i8
  %v = load i8, ptr %p
  %d = add i8 %v, %v
  %s = add i8 %d, %t
  store i8 %s, ptr %p
  ret i8 %s
}`)

var sweepSrc = parser.MustParseFunc(`define i16 @src(i16 %x, i16 %y) {
  %a = and i16 %x, %y
  %o = or i16 %x, %y
  %r = xor i16 %a, %o
  ret i16 %r
}`)

var sweepTgt = parser.MustParseFunc(`define i16 @tgt(i16 %x, i16 %y) {
  %r = xor i16 %x, %y
  ret i16 %r
}`)

// rotSrc/rotTgt rotate left by %y as a right rotate by -%y: two i8
// parameters, so verification enumerates all 65,536 input vectors, with
// funnel shifts by a register amount and abs on both sides.
var rotSrc = parser.MustParseFunc(`define i8 @src(i8 %x, i8 %y) {
  %r = call i8 @llvm.fshl.i8(i8 %x, i8 %x, i8 %y)
  %a = call i8 @llvm.abs.i8(i8 %r, i1 false)
  ret i8 %a
}`)

var rotTgt = parser.MustParseFunc(`define i8 @tgt(i8 %x, i8 %y) {
  %n = sub i8 0, %y
  %r = call i8 @llvm.fshr.i8(i8 %x, i8 %x, i8 %n)
  %a = call i8 @llvm.abs.i8(i8 %r, i1 false)
  ret i8 %a
}`)

// rule8Src/rule8Tgt is the i8 rule (a0+a1)-a1 -> a0: two i8 parameters of
// add/sub, the commonest shape among the vectors a learning campaign
// verifies (seeds 501-504).
var rule8Src = parser.MustParseFunc(`define i8 @src(i8 %a0, i8 %a1) {
  %s = add i8 %a0, %a1
  %r = sub i8 %s, %a1
  ret i8 %r
}`)

var rule8Tgt = parser.MustParseFunc(`define i8 @tgt(i8 %a0, i8 %a1) {
  ret i8 %a0
}`)

// rule16Src/rule16Tgt is the i16 rule rotate-by-4 -> fshl: one i16
// parameter, constant shifts against a funnel shift by a constant.
var rule16Src = parser.MustParseFunc(`define i16 @src(i16 %x) {
  %h = shl i16 %x, 4
  %l = lshr i16 %x, 12
  %r = or i16 %h, %l
  ret i16 %r
}`)

var rule16Tgt = parser.MustParseFunc(`define i16 @tgt(i16 %x) {
  %r = call i16 @llvm.fshl.i16(i16 %x, i16 %x, i16 4)
  ret i16 %r
}`)

// clampSrcF and clampTgtF are the clamp pair parsed once; verification
// and execution never mutate a fixture.
var clampSrcF, clampTgtF = parser.MustParseFunc(clampSrc), parser.MustParseFunc(clampTgt)

// BenchmarkVerify measures the compile-once checker on a representative
// benchdata-style window (the paper's clamp case, 1024 samples) with a
// shared program cache, the engine verify stage's steady-state
// configuration. Compare BenchmarkVerifyReference (the seed's
// Exec-per-input path) for the speedup.
func BenchmarkVerify(b *testing.B) {
	opts := alive.Options{Samples: 1024, Seed: 1, Programs: interp.NewCache()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := alive.Verify(clampSrcF, clampTgtF, opts); r.Verdict != alive.Correct {
			b.Fatal("verification regressed")
		}
	}
}

// BenchmarkVerifyReference is the same workload through the
// pre-compile-once verification path, kept as the baseline.
func BenchmarkVerifyReference(b *testing.B) {
	opts := alive.Options{Samples: 1024, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := alive.ReferenceVerify(clampSrcF, clampTgtF, opts); r.Verdict != alive.Correct {
			b.Fatal("verification regressed")
		}
	}
}

// BenchmarkVerifyExhaustive verifies the two-i8-parameter rotate pair by
// full enumeration (65,536 vectors) per op, on the packed tier's funnel
// shifts by a register amount and abs. Those ops do not occur among the
// vectors a learning campaign verifies; the Rule8 and Rule16 benchmarks
// measure the shapes that do.
func BenchmarkVerifyExhaustive(b *testing.B) { benchExhaustive(b, rotSrc, rotTgt) }

// BenchmarkVerifyExhaustiveRule8 verifies the i8 rule (a0+a1)-a1 -> a0 by
// full enumeration (65,536 vectors) per op: the commonest shape among the
// vectors a learning campaign verifies.
func BenchmarkVerifyExhaustiveRule8(b *testing.B) { benchExhaustive(b, rule8Src, rule8Tgt) }

// BenchmarkVerifyExhaustiveRule16 verifies the i16 rule rotate-by-4 -> fshl
// by full enumeration (65,536 vectors) per op: one i16 parameter, constant
// shifts and a funnel shift by a constant.
func BenchmarkVerifyExhaustiveRule16(b *testing.B) { benchExhaustive(b, rule16Src, rule16Tgt) }

// benchExhaustive verifies a correct pair by full enumeration per op, with
// a shared program cache and a fresh Checker per call, as the engine
// builds one.
func benchExhaustive(b *testing.B, src, tgt *ir.Func) {
	opts := alive.Options{Seed: 1, Programs: interp.NewCache()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := alive.Verify(src, tgt, opts); r.Verdict != alive.Correct || !r.Exhaustive {
			b.Fatal("verification regressed")
		}
	}
}

// BenchmarkVerifyBatch is the tiered checker in its steady state: one
// Checker reused across calls (the CEGIS pattern), so compilation, batch
// setup and the input-generator tables are all warm and each op is pure
// lane-batched verification work.
func BenchmarkVerifyBatch(b *testing.B) { benchChecker(b, clampSrcF, clampTgtF) }

// BenchmarkVerifyMultiBlock measures the reused checker on a branchy pair
// (an abs-value diamond with a phi join against its branch-free form)
// under the masked multi-block scheduler.
func BenchmarkVerifyMultiBlock(b *testing.B) { benchChecker(b, multiBlockSrc, multiBlockTgt) }

// BenchmarkVerifyMemory measures the reused checker on a load/store pair
// (shl-vs-add on a loaded byte, stored back): per-lane memory slabs, the
// columnwise memory-fill generation and the per-lane final-memory diff.
func BenchmarkVerifyMemory(b *testing.B) { benchChecker(b, memSrc, memTgt) }

// benchChecker verifies a correct pair per op through one reused Checker.
func benchChecker(b *testing.B, src, tgt *ir.Func) {
	c := alive.NewChecker(src, tgt, alive.Options{Samples: 1024, Seed: 1, Programs: interp.NewCache()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := c.Verify(); r.Verdict != alive.Correct {
			b.Fatal("verification regressed")
		}
	}
}

// BenchmarkVerifyWidths measures a generalize-style width sweep (the same
// pair re-instantiated and re-verified at i8/i16/i32/i64) with the shared
// program cache.
func BenchmarkVerifyWidths(b *testing.B) {
	widths := []int{8, 16, 32, 64}
	opts := alive.Options{Samples: 256, Seed: 1, Programs: interp.NewCache()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wrs := alive.VerifyWidths(widths, opts, func(w int) (*ir.Func, *ir.Func, error) {
			s, err := generalize.Rewidth(sweepSrc, w)
			if err != nil {
				return nil, nil, err
			}
			t, err := generalize.Rewidth(sweepTgt, w)
			if err != nil {
				return nil, nil, err
			}
			return s, t, nil
		})
		for _, wr := range wrs {
			if wr.Verdict != alive.Correct {
				b.Fatal("width sweep regressed")
			}
		}
	}
}

func BenchmarkAliveVerifyClamp(b *testing.B) {
	src := parser.MustParseFunc(clampSrc)
	tgt := parser.MustParseFunc(clampTgt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := alive.Verify(src, tgt, alive.Options{Samples: 1024, Seed: uint64(i)})
		if r.Verdict != alive.Correct {
			b.Fatal("verification regressed")
		}
	}
}

// BenchmarkInterpExec measures one execution of the clamp window through
// the reference tree-walker.
func BenchmarkInterpExec(b *testing.B) {
	env := interp.Env{Args: []interp.RVal{interp.Scalar(ir.I32, 1234)}}
	for i := 0; i < b.N; i++ {
		interp.Exec(clampSrcF, env)
	}
}

// BenchmarkInterpBatch executes one lane batch (interp.BatchWidth input
// vectors) of the clamp window per op through a warm evaluator: it writes
// the input column, runs the batch and reads the outcome masks and return
// column, as the verifier does. Divide ns/op by interp.BatchWidth for the
// per-vector cost the verifier pays, against BenchmarkInterpExec's.
func BenchmarkInterpBatch(b *testing.B) {
	ev := interp.NewEvaluator(interp.Compile(clampSrcF))
	col := ev.ArgColumn(0)
	run := func() {
		for i := range col {
			col[i] = interp.Word{V: 1234}
		}
		ev.RunBatchFilled(interp.BatchWidth, nil, 0)
		ret, _ := ev.RetColumn()
		if ev.Masks().Returned != ^uint64(0) || ret[0].V != 255 {
			b.Fatal("clamp batch did not return 255 on every lane")
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkWasmDecode decodes the whole embedded wasm fixture corpus from
// bytes to Module per op: the frontend's parse cost per campaign intake.
func BenchmarkWasmDecode(b *testing.B) {
	fixtures := wasm.Fixtures()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, fx := range fixtures {
			if _, err := wasm.Decode(fx.Data); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWasmLift lifts the decoded fixture corpus to SSA IR per op:
// stack-machine reconstruction, control-flow restructuring, and the
// verifier pass over every lifted function.
func BenchmarkWasmLift(b *testing.B) {
	fixtures := wasm.Fixtures()
	mods := make([]*wasm.Module, len(fixtures))
	for i, fx := range fixtures {
		m, err := wasm.Decode(fx.Data)
		if err != nil {
			b.Fatal(err)
		}
		mods[i] = m
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range mods {
			if _, st := wasm.Lift(m, "bench"); st.Lifted == 0 {
				b.Fatal("lift regressed")
			}
		}
	}
}

// --- Store ingest workloads ---
//
// Three points on the durability/throughput curve, all writing the same
// finding-sized records to a fresh store on local disk:
//
//   - BenchmarkStoreCommit: the pre-scaling baseline — one record, one
//     Flush, one fsync, serial, with commit coalescing disabled. What every
//     submission paid before group commit.
//   - BenchmarkStoreGroupCommit: 8 concurrent clients each making every
//     record durable before the next (Put + Flush per op) against one log —
//     concurrent barriers share fsyncs.
//   - BenchmarkIngestThroughput: the full scaled path — 4 shards, group
//     commit, 8 concurrent clients batching a Flush barrier every 32
//     records (the persist workers' micro-batching pattern, which barriers
//     once per drained batch of up to 64 results).
//
// .github/perfgate.sh holds the ratio of the first to the last, measured
// in one run, at 10x or more.

// ingestClients is the concurrency of the ingest benchmarks — the paper
// setting of 8 submitting clients.
const ingestClients = 8

// findingVal is a representative finding record body (~220 bytes of
// compact JSON, the size class the service persists per window).
var findingVal = []byte(`{"window":"deadbeefcafef00d","status":"optimized","model":"Gemini2.0T","src":"%2 = icmp slt i32 %0, 0\n%3 = call i32 @llvm.umin.i32(i32 %0, i32 255)","tgt":"%2 = call i32 @llvm.smax.i32(i32 %0, i32 0)","cycles_saved":3}`)

// benchStore opens a fresh store under a per-benchmark temporary directory.
func benchStore(b *testing.B, opts store.Options) *store.Sharded {
	st, err := store.Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

// benchIngest drives b.N unique finding Puts through st from ingestClients
// concurrent goroutines, erecting a Flush durability barrier every
// flushEvery records per client (1 = every record durable before the next).
// Every client ends with a final barrier, so the measurement always covers
// full durability of all b.N records.
func benchIngest(b *testing.B, st *store.Sharded, flushEvery int) {
	var ctr atomic.Uint64
	per := (b.N + ingestClients - 1) / ingestClients
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < ingestClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("%016x", ctr.Add(1))
				if _, err := st.Put(store.KindFinding, key, findingVal); err != nil {
					b.Error(err)
					return
				}
				if (i+1)%flushEvery == 0 {
					if err := st.Flush(); err != nil {
						b.Error(err)
						return
					}
				}
			}
			if err := st.Flush(); err != nil {
				b.Error(err)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
}

// BenchmarkStoreCommit is the pre-scaling durability baseline: Put then
// Flush for every record, serial, with coalescing disabled (MaxDelay < 0
// commits at once), the discipline of the pre-group-commit submit path.
func BenchmarkStoreCommit(b *testing.B) {
	st := benchStore(b, store.Options{Commit: store.GroupCommitOptions{MaxDelay: -1}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Put(store.KindFinding, fmt.Sprintf("%016x", i), findingVal); err != nil {
			b.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkStoreGroupCommit keeps the strictest durability discipline —
// every record durable before its client continues — but runs 8 clients
// against one log, so concurrent barriers coalesce into shared fsyncs.
// MaxBatch is tuned to the client count so the committer fires as soon as
// every blocked client's record is pending.
func BenchmarkStoreGroupCommit(b *testing.B) {
	benchIngest(b, benchStore(b, store.Options{
		Commit: store.GroupCommitOptions{MaxDelay: 200 * time.Microsecond, MaxBatch: ingestClients},
	}), 1)
}

// BenchmarkIngestThroughput is the full scaled ingest path: 4 shards, group
// commit at defaults, 8 concurrent clients each batching 32 records per
// durability barrier — the configuration the lpod persist workers run.
func BenchmarkIngestThroughput(b *testing.B) {
	benchIngest(b, benchStore(b, store.Options{Shards: 4}), 32)
}

func BenchmarkMCAAnalyze(b *testing.B) {
	f := parser.MustParseFunc(clampSrc)
	model := mca.BTVer2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mca.Analyze(f, model)
	}
}

func BenchmarkExtractModule(b *testing.B) {
	projects := corpus.Generate(corpus.Options{Seed: 5, ModulesPerProject: 1, FuncsPerModule: 8})
	m := projects[0].Modules[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extract.New(extract.Options{}).Module(m)
	}
}
