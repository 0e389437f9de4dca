package repro

// One benchmark per paper table and figure (deliverable (d)), plus the
// ablation benchmarks DESIGN.md §6 calls out. Experiment sizes are reduced
// per iteration so `go test -bench=.` completes in minutes; cmd/lpo-bench
// runs the full-size versions.

import (
	"context"
	"io"
	"testing"

	"repro/internal/alive"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/llm"
	"repro/internal/mca"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/souper"
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

// BenchmarkVerify measures the compile-once checker on a representative
// benchdata-style window (the paper's clamp case) with a shared program
// cache, the engine verify stage's steady-state configuration. Compare
// BenchmarkVerifyReference (the seed's Exec-per-input path) for the speedup;
// BENCH_4.json records both. The workload bodies live in
// experiments (perf.go) so `lpo-bench -json` measures exactly the same
// work as these benchmarks.
func BenchmarkVerify(b *testing.B) { experiments.BenchVerify(b) }

// BenchmarkVerifyReference is the pre-compile-once verification path, kept
// as the perf trajectory's baseline.
func BenchmarkVerifyReference(b *testing.B) { experiments.BenchVerifyReference(b) }

// BenchmarkVerifyExhaustive verifies a two-i8-parameter rotate pair by
// full enumeration (65,536 vectors) per op, on the packed tier's funnel
// shifts by a register amount and abs.
func BenchmarkVerifyExhaustive(b *testing.B) { experiments.BenchVerifyExhaustive(b) }

// BenchmarkVerifyExhaustiveRule8 verifies the i8 rule (a0+a1)-a1 -> a0 by
// full enumeration (65,536 vectors) per op: the commonest shape among the
// vectors a learning campaign verifies.
func BenchmarkVerifyExhaustiveRule8(b *testing.B) { experiments.BenchVerifyExhaustiveRule8(b) }

// BenchmarkVerifyExhaustiveRule16 verifies the i16 rule rotate-by-4 -> fshl
// by full enumeration (65,536 vectors) per op.
func BenchmarkVerifyExhaustiveRule16(b *testing.B) { experiments.BenchVerifyExhaustiveRule16(b) }

// BenchmarkVerifyBatch is the tiered checker reused across calls (the CEGIS
// steady state): pure lane-batched verification with everything warm.
func BenchmarkVerifyBatch(b *testing.B) { experiments.BenchVerifyBatch(b) }

// BenchmarkVerifyMultiBlock measures the reused checker on a branchy pair
// (an abs-value diamond vs its branch-free form) under the masked
// multi-block scheduler.
func BenchmarkVerifyMultiBlock(b *testing.B) { experiments.BenchVerifyMultiBlock(b) }

// BenchmarkVerifyMemory measures the reused checker on a load/store pair:
// per-lane memory slabs let pointer programs batch, including the
// columnwise memory-fill generation and the per-lane final-memory diff.
func BenchmarkVerifyMemory(b *testing.B) { experiments.BenchVerifyMemory(b) }

// BenchmarkVerifyWidths measures a generalize-style width sweep (the same
// pair re-instantiated and re-verified at i8/i16/i32/i64) with the shared
// program cache.
func BenchmarkVerifyWidths(b *testing.B) { experiments.BenchVerifyWidths(b) }

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

// BenchmarkInterpExec measures the reference tree-walker on the clamp
// window (body shared with the `lpo-bench -json` snapshot).
func BenchmarkInterpExec(b *testing.B) { experiments.BenchInterpExec(b) }

// BenchmarkInterpBatch executes one lane batch (interp.BatchWidth vectors)
// of the clamp window per op through a warm evaluator (body shared with the
// `lpo-bench -json` snapshot); divide by interp.BatchWidth for per-vector
// cost.
func BenchmarkInterpBatch(b *testing.B) { experiments.BenchInterpBatch(b) }

// BenchmarkWasmDecode decodes the embedded wasm fixture corpus per op (body
// shared with the `lpo-bench -json` snapshot).
func BenchmarkWasmDecode(b *testing.B) { experiments.BenchWasmDecode(b) }

// BenchmarkWasmLift lifts the decoded fixture corpus to SSA IR per op (body
// shared with the `lpo-bench -json` snapshot).
func BenchmarkWasmLift(b *testing.B) { experiments.BenchWasmLift(b) }

// BenchmarkStoreCommit is the pre-scaling durability baseline: one fsync
// per finding, serial (body shared with the `lpo-bench -json` snapshot).
func BenchmarkStoreCommit(b *testing.B) { experiments.BenchStoreCommit(b) }

// BenchmarkStoreGroupCommit runs 8 clients with a per-record durability
// barrier against one group-committed log — concurrent barriers share
// fsyncs (body shared with the `lpo-bench -json` snapshot).
func BenchmarkStoreGroupCommit(b *testing.B) { experiments.BenchStoreGroupCommit(b) }

// BenchmarkIngestThroughput is the full scaled ingest path — 4 shards,
// group commit, 8 clients batching 32 records per barrier; its ratio to
// BenchmarkStoreCommit is the snapshot's ingest_speedup (body shared with
// the `lpo-bench -json` snapshot).
func BenchmarkIngestThroughput(b *testing.B) { experiments.BenchIngestThroughput(b) }

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
