// Package repro is a from-scratch Go reproduction of "LPO: Discovering
// Missed Peephole Optimizations with Large Language Models" (ASPLOS '26),
// including every substrate the paper's pipeline depends on: an LLVM IR
// subset with parser and printer, a concrete interpreter with Alive2-style
// poison/UB semantics, an InstCombine-like optimizer, an llvm-mca-style
// static performance model, a bounded translation validator, the Souper and
// Minotaur superoptimizer baselines, a synthetic corpus, and a calibrated
// simulated LLM provider.
//
// # The Engine API
//
// Discovery (the paper's Algorithm 1) runs on internal/engine, a concurrent,
// context-aware batch API. An engine.Source streams extracted instruction
// sequences — from a parsed .ll file (engine.File), the synthetic corpus
// (engine.Corpus), pre-extracted slices (engine.Sequences), or bare
// functions (engine.Funcs) — into a pool of workers that drive each sequence
// through the stage chain Propose → Preprocess → Filter → Verify with the
// paper's feedback loop between attempts:
//
//	ex := extract.New(extract.Options{})
//	eng := engine.New(llm.NewSim("Gemini2.0T", seed), engine.Config{
//		Workers: 8, Rounds: 4,
//		Verify: alive.Options{Samples: 1024, Seed: seed},
//	})
//	results, stats := eng.Run(ctx, engine.Corpus(corpus.Options{Seed: seed}, ex))
//	for res := range results { ... }
//
// Results are reassembled in source order before they are emitted, so for a
// fixed seed the output stream is identical regardless of the worker count.
// Cancelling ctx drains the run cleanly. Stats exposes concurrency-safe
// per-stage metrics (invocation counts, outcome tallies, accumulated
// llm.Usage, per-stage latency) that may be read while the run is in
// flight, and a cross-worker verification cache deduplicates identical
// (source, candidate) refinement checks by structural hash.
//
// The knobs surface on the CLIs: cmd/lpo takes -workers and -queue,
// cmd/lpo-bench and cmd/lpo-opt take -workers; engine.ParMap backs the
// provider-free fan-outs (patch-impact scans, baseline sweeps, batch opt).
//
// # The Rule Registry
//
// Every rewrite the optimizer can perform — the baseline InstSimplify
// identities and InstCombine-style rewrites, the modelled LLVM patches
// (Table 5), and the simulated LLM's knowledge base — is a first-class
// opt.Rule: an ID, a provenance, the root opcodes it fires on, a pattern doc
// string and a synthetic example it provably fires on (the registry
// soundness sweep in internal/opt verifies each against internal/alive).
// opt.Run resolves Options into an opt.RuleSet — an opcode-indexed dispatch
// table in deterministic rule order — once per run, so the per-instruction
// hot path never sorts or scans unrelated rules; llm.Sim and the engine
// share one prebuilt RuleSet across all calls. Per-rule hit counters flow
// end to end: opt.RunWithStats reports them per run, every Found
// engine.Result carries the optional rules that close its window,
// engine.Stats aggregates the attribution, and the RQ1/RQ2/Figure-5
// experiments print which rule closed each benchmark. cmd/lpo-opt -rules
// lists the registry.
//
// # The Generalize Subsystem and Rulebooks
//
// Discovery used to stop at verified concrete rewrites; internal/generalize
// closes the loop back into the compiler. With engine.Config.Learn set, every
// Found result's (source, candidate) pair runs through the post-verify
// generalize hook: concrete constants are abstracted into symbolic
// expressions of the bit width (signed/unsigned literals, width-derived
// shift amounts like w-1, low/high masks like mask(w)>>3, the sign bit),
// the abstraction is re-instantiated across a width sweep (i8/i16/i32/i64
// by default) and re-verified per width with internal/alive
// (alive.VerifyWidths), and over-generalizations are rejected by
// counterexample — a rule must survive at two or more widths or it is not
// learned. Survivors compile into dynamic opt.Rules (provenance "learned",
// opt.NewDynamicRule) that attach to any selection via RuleSet.WithRules and
// are dispatched, attributed and hit-counted exactly like registry rules.
//
// Learned rules persist in a rulebook (generalize.Rulebook, JSON): the
// witness pair, the slot abstractions, the verified widths and rendered
// side conditions, with a content-derived ID that doubles as an integrity
// check on load. Distinct witness pairs can generalize to one ID; the
// engine's rulebook then keeps the witness of the earliest sequence, so a
// campaign's rulebook bytes are the same at any worker count. The
// workflow:
//
//	lpo -corpus -learn book.json          discovery campaign, rulebook out
//	lpo-opt -rulebook book.json f.ll      optimize with the learned rules
//	lpo -corpus -rulebook book.json ...   later campaign, stronger substrate
//	lpo-verify -widths 8,16,32,64 pair.ll probe a pair's width-genericity
//
// so each discovery run makes the next optimizer measurably stronger. The
// experiments package quantifies that with the learned-rule closure table
// (experiments.RunLearnedClosure, cmd/lpo-bench -learned): how many corpus
// windows the learned rulebook closes that baseline+patches miss.
//
// # Performance
//
// Verification is the pipeline's inner loop — every candidate pays for
// thousands of concrete executions, and generalization multiplies that by a
// width sweep — so execution is split into a compile phase and an execute
// phase. interp.Compile lowers a function once into a Program: every SSA
// value is numbered into a dense register slot, constants are materialized
// into an immutable pool, and block successors and phi edges are resolved to
// indices. An interp.Evaluator executes the Program over any number of
// input vectors with reusable scratch storage (a lane-batched register
// arena, operand views, store/bitcast buffers), so a steady-state run
// performs zero allocations per execution. Both the evaluator and the reference
// tree-walker (interp.Exec, kept for one-shot callers and as the semantic
// baseline) call the same per-opcode kernels, and differential tests pin
// them bit-identical — values, poison lanes, UB reasons, step counts and
// final memory.
//
// The fast path covers the dominant window shape: a single straight-line
// block whose operands are parameters, constants, or earlier results —
// scalar or vector, with or without memory, with full poison semantics —
// and skips per-run defined-register bookkeeping and block dispatch.
// Multi-block functions (phis, loops) run on the same register machine with
// those guards enabled. Vector constants with runtime elements
// (`splat (i8 %x)`, `<i8 %a, i8 1>`) get a register of their own that the
// consuming instruction gathers lane by lane before its kernel runs, their
// unbound-element guards joining its ordered checks — so every program
// runs on the batch engine, with no per-vector fallback.
// interp.Cache memoizes Programs by structural hash: the engine installs
// one cache per campaign shared by its verify stage and the generalize
// width sweeps, and the Souper/Minotaur CEGIS loops reuse compiled
// candidates across their filtering vectors and final checks.
//
// On top of the compile-once split, execution is lane-batched:
// Evaluator.RunBatch streams up to interp.BatchWidth input vectors through a
// program at once, instruction by instruction, over a structure-of-arrays
// batch arena in which every scalar register's operands and results are
// contiguous runs of words. The per-instruction dispatch that dominates
// single-vector execution is paid once per batch, the hot scalar kernels
// (integer binaries, icmp, select, int conversions, integer intrinsics,
// freeze) run as tight per-op loops with constants pre-broadcast into
// columns, and UB, poison, return values and step budgets are tracked per
// lane — bit-identical to running each vector alone (pinned by randomized
// differential tests over straight-line, branchy and memory-touching
// programs). Multi-block programs run under a lane-masked scheduler: each
// block keeps a bitmask of lanes waiting to execute it, the scheduler
// always resumes the lowest-numbered runnable block so lanes that diverged
// at a branch reconverge at the join, and per-lane step budgets, phi
// predecessors and defined-register guards match Exec exactly
// — a lane that exhausts its budget or trips UB simply drops out of every
// later mask. Memory-touching programs batch over per-lane memory slabs
// (interp.BatchMems): one lane-strided allocation per declared region,
// carved into BatchWidth isolated Memory views at identical base
// addresses, so loads and stores index lane-local storage with no
// cross-lane interference and a lane's final memory can be diffed or reset
// (ResetLane) independently. Streaming callers write inputs straight into
// the evaluator's ArgColumn runs and execute with RunBatchFilled, eliding
// staging and scatter entirely. Compile resolves every call's intrinsic
// once, so no engine re-parses callee names while executing, and the
// scalar integer intrinsics — umin/umax/smin/smax, abs, ctpop, ctlz, cttz,
// bswap, bitreverse, the four saturating add/sub and fshl/fshr — share one
// lane-masked batch kernel whose per-lane code is the very function Exec
// evaluates them with, so the two engines cannot diverge on them.
// interp.Cache is bounded (clock eviction
// over a few thousand programs, Stats for hit/miss/eviction counters), so
// campaign-long caches stay a few MB.
//
// internal/alive builds on this with alive.NewChecker and a tiered
// verification scheduler. Tier 0 replays the source window's pooled
// counterexamples (alive.CEPool — campaign-scoped and concurrency-safe:
// every falsified candidate deposits the refuting input, CEGIS-style, so
// repeat offenders die in a handful of executions); tier 1 runs the
// exhaustive/special-value phases and tier 2 the random phases. All three
// stream through the lane-batched evaluators with one fill, RunBatchFilled
// and in-order scan: tier-0 vectors carry their pooled memory into the
// per-lane slabs, and a pooled vector with a poison pointer base (possible
// only in a pool loaded from a store) runs on the reference path at its
// place in the order.
// The input generator emits columnwise (inputGen.nextBatch binds each
// output vector to a different ArgColumn slot before drawing it, keeping
// the vector-major rng draw order that same-seed reproducibility pins).
// The exhaustive phase of a signature without pointer parameters — in a
// learning campaign almost every verified vector, since each learned rule
// is re-verified by full enumeration at i8 — skips even that: the counter
// is written straight into the input columns by the same counter-to-lanes
// writer the generator's other phases use, and the checker counts tiers once per
// batch. The generator's rng comes from a pool and is seeded on first
// draw, so a Verify allocates no random source and an exhaustive run
// refuted before its poison trials never seeds one. Memory fills land
// directly in the per-lane slabs, and refuted pairs
// restore the raw input pointer words and initial region bytes so the
// counterexample text stays byte-identical to alive.ReferenceVerify, the
// retained Exec-per-input baseline. Result.Tiers reports per-tier
// executions and the killing tier; `lpo-verify -stats` prints them,
// engine.Stats aggregates them campaign-wide (TierKills, VerifyExecs), and
// GET /v1/stats serves them.
// alive.VerifyWidths reseeds each width of a sweep with earlier widths'
// counterexamples rescaled to the new width; the engine installs one CEPool
// per campaign beside its program cache (Stats.TierKills aggregates the
// kills), and the Souper/Minotaur CEGIS loops deposit and replay through
// the same pool while folding refuting inputs into their test-vector
// filters. On one core this makes the clamp verification ~3x and the
// generalize width sweep ~3.6x faster than the PR-4 reference.
//
// In a learning campaign nearly every verified vector belongs to the i8
// exhaustive re-verification of a rule that survives, so what counts is
// the cost per vector, not skipping any. The intrinsic batch kernel, the
// columnar exhaustive tier and an ir.Hash that streams its key into FNV-1a
// without building strings take the end-to-end campaign benchmark
// (`bash perfbench/run.sh --workload campaign --seconds 30 --trace 0`, 12
// runs per side on a shared 2-vCPU KVM guest) from a median 548 to 755
// windows/s, with the same vectors checked and the same findings and
// rules; per campaign job, the generalize layer's busy time falls 38% and
// the verify stage's 31%.
//
// `lpo-bench -json FILE` records the hot-path numbers as a machine-readable
// snapshot so later PRs have a trajectory to compare against. The format
// (schema "lpo-bench-perf/6") is one JSON object: "schema", "go_max_procs",
// "go_version", "benchmarks" — an array of {name, ns_per_op, allocs_per_op,
// bytes_per_op, iterations} for the workloads verify_checker,
// verify_reference, verify_batch, verify_multiblock, verify_memory,
// verify_widths, interp_exec, interp_batch,
// opt_dispatch_all_rules and opt_run_o3 (mirrored by the root-level
// BenchmarkVerify*/BenchmarkInterp* benchmarks; interp_batch measures one
// whole BatchWidth-vector batch per op, verify_multiblock/verify_memory
// exercise the masked scheduler and the per-lane slabs on a reused
// checker) — "tier_kills", the {pool, special, random} kill counters of a
// fixed refute-twice-then-verify script that makes counterexample sharing
// CI-observable. CI uploads the snapshot as an artifact on every run and
// fails if any tracked workload regresses past 2x ns/op or grows past 2x
// allocs/op against the committed reference, or if
// "ingest_speedup" — the ratio of the store_commit workload's ns/op to
// ingest_throughput's, both measured in the same run — drops below 10x
// (`lpo-bench -json out.json -against BENCH_8.json`, tolerances via
// -tolerance / -alloc-tolerance); BENCH_8.json in the repository root is
// the PR-10 reference point (schema lpo-bench-perf/5, which adds the store
// ingest workloads store_commit / store_group_commit / ingest_throughput —
// see "Scaling the Store" below), BENCH_7.json the PR-7 one (schema 4,
// adding the wasm_decode / wasm_lift frontend workloads), BENCH_6.json the
// PR-6 one, BENCH_5.json the PR-5 one, BENCH_4.json the PR-4 one.
//
// # The WebAssembly Frontend
//
// internal/wasm gives the pipeline a second input language: compiled
// WebAssembly binaries, hunted for missed optimizations with the same
// engine that serves textual IR. The package is self-contained (leb128
// varint codec, section and function-body decoder, canonical encoder) and
// targets the MVP integer subset — i32/i64 arithmetic, bitwise and shift
// ops, comparisons, conversions, select, locals, constants, structured
// control flow (block/loop/if lowered to a CFG with phis), and linear
// memory load/store, which map onto the interpreter's pointer/region
// model as a trailing %mem pointer parameter. wasm.Lift reconstructs SSA
// from the stack machine — the operand stack holds ir.Values, locals are
// current-value bindings, and control-frame joins materialize phis only
// where merging edges disagree — and every lifted function must pass
// ir.VerifyFunc before it reaches extraction. Wasm's defined semantics
// are mapped, not approximated: shift counts are masked to the operand
// width, rotates become llvm.fshl/fshr, and bit counts become
// ctlz/cttz/ctpop (traps are the one documented approximation — they
// lift to IR whose corresponding UB the differential tests pin down).
//
// Functions outside the subset (floats, calls, globals, br_table,
// multi-result, malformed bodies) are skipped, never errored: each skip is
// tallied by reason, the per-module coverage lands in engine.Stats
// (`lpo -stats`, GET /v1/stats), and decoding is hardened against
// adversarial input (locals-count and instruction caps, a CI-fuzzed
// decoder). Every entry point accepts the format: `lpo file.wasm` sniffs
// the \0asm magic (-wasm forces it, -wasm-corpus scans the embedded
// fixture corpus), lpo-extract lifts before extraction, and lpod accepts
// raw binaries POSTed with Content-Type: application/wasm. For findings
// from wasm inputs, wasm.Isolate carves the source function plus its
// transitive callees out of the module into a minimal valid binary
// (`lpo -isolate DIR`) — shrunken provenance for reporting upstream.
//
// # The lpod Service and the Content-Addressed Store
//
// Every identity in the pipeline is already content-derived — windows and
// candidates by structural hash (ir.Hash, whose values are therefore
// frozen: a golden test pins them for every benchmark pair), learned rules
// by the hash of their witness pair — so discovery results are immutable
// facts about
// content, and a campaign is just a set of such facts. internal/store makes
// that set persistent: a directory holding one append-only record log
// ("lpod.log", magic "LPODSTR1" — bump the trailing digit on breaking
// format changes) plus an in-memory hash index rebuilt on open. Each record
// frames a kind byte (finding, rule or counterexample vector), a key, a
// value and a CRC32; Put appends (a duplicate key is a content-address hit,
// not a write), Commit flushes and fsyncs the batch, and Open recovers from
// a crash by scanning to the first torn or corrupt record and truncating
// the tail — everything before it is intact by checksum. Readers take
// snapshots (a record-count boundary) that are immune to concurrent
// appends; since records are immutable, first-write-wins is the only
// conflict rule the store needs. Findings are keyed by window hash, rules
// by their content-derived ID, pool vectors by window hash plus a hash of
// the encoded vector, and the stored finding bytes (deterministic indented
// JSON, store.Finding) double as the service's wire format.
//
// cmd/lpod serves discovery from such a store as a long-running daemon.
// internal/service wires one warm engine — program cache, verification
// cache, counterexample pool and learned rules all persistent across
// requests — behind the engine's incremental submission API
// (engine.Submitter): POST /v1/windows accepts one window or a batch
// (JSON {"ir": ...} / {"windows": [...]}, or a raw .ll module), hashes
// each function, and only hashes the store has never seen reach the
// engine; everything else is answered "cached" (stored) or "pending"
// (inflight). Results are committed to the store as they drain — finding,
// learned rule entries, and the pool's newly deposited vectors — before
// the window stops reporting pending, so a finding is never servable
// until it is durable. GET /v1/findings/{hash} returns the stored bytes
// verbatim, GET /v1/rulebook assembles the store's accumulated rule
// entries into a standard rulebook, and GET /v1/stats reports engine
// (outcomes, verify executions, tier kills, batch coverage, store hits),
// store
// (records, hit/miss counters, recovered bytes) and pool counters.
// Restarting the daemon on the same store resumes exactly: resubmitted
// corpora are answered byte-identically from disk with no provider or
// verifier work, and the stored vectors warm the pool's tier-0 replay.
// The engine side is engine.Config.Lookup — consulted once per sequence
// after per-run dedup, a hit is returned as a Cached result and counted
// in Stats.StoreHits — and cmd/lpo -store threads the same persistence
// through one-shot batch runs, so batch campaigns, the daemon and future
// runs all share one accumulated store.
//
// # Scaling the Store: Group Commit, Shards, Compaction
//
// One log and one fsync per finding caps ingest at the disk's sync latency
// (~150µs here: at most a few thousand submissions/sec, serialized), so the
// hot ingest path scales along three axes — batching commits, sharding
// logs, and streaming results out instead of being polled.
//
// Group commit (store.StartGroupCommit): Flush is the durability barrier —
// it returns once every record Put before the call is durable, or with the
// error of the commit attempt that should have covered it. With a
// committer goroutine running, concurrent Flush callers coalesce: each
// registers a notification channel and rings a doorbell; the committer
// wakes, lets the batch grow while records are still arriving (it commits
// as soon as two consecutive looks a scheduler-yield apart see the same
// pending count — arrival-driven, since OS timer granularity is orders of
// magnitude coarser than a commit cycle — with GroupCommitOptions.MaxBatch
// capping the batch and MaxDelay the wait outright), serializes the whole
// dirty batch as one framed write, fsyncs once, and notifies every waiter
// that registered before the commit. Because Commit performs its disk I/O
// without the index lock, writers keep Put-ing WHILE the current batch
// fsyncs — the next batch adapts to however slow the disk is. A failed
// group commit preserves the PR-9 invariant exactly (roll back to the
// durable boundary, keep the batch pending, report the error to that
// round's waiters) and the committer retries the backlog on its own every
// GroupCommitOptions.RetryDelay, so a transient fsync failure drains
// without waiting for new traffic. StopGroupCommit makes one final commit
// attempt, and a Flush racing shutdown falls back to a plain direct Commit.
//
// Sharding (store.OpenSharded): a sharded store fans the one logical
// record set over N full Stores — dir/lpod-00.log … hex-numbered upward,
// each with its own log, index, committer and snapshot isolation — so
// concurrent submissions stop contending on a single file and a single
// fsync queue. Records route by window-hash prefix: the shard of a key is
// a hash of everything before the first '/', which for findings (bare
// window hash) and pool vectors ("<window>/<vechash>") is the same string
// — a window's finding and its counterexamples always colocate, keeping
// per-shard append order a durability order per window. An existing
// directory's shard count always wins over the requested one (resharding
// in place would route keys away from their records; a missing shard file
// is a refused open, not silent loss), a legacy single-log store is
// migrated in place idempotently (re-Put everything, commit, then rename
// lpod.log away), and store.Backend is the interface the service runs
// against, satisfied by both *Store and *Sharded. Sharded.Flush fans out
// in parallel, so a logical barrier costs one fsync latency, not N.
//
// Compaction (store.Compact, Sharded shard-at-a-time): an append-only log
// only grows, and the counterexample pool's clock eviction means stored
// vectors outlive their usefulness. Compact rewrites a log keeping only
// records a caller-supplied policy blesses — the service's policy
// (service.CompactKeep) keeps all findings and rules and drops exactly the
// pool vectors the clock has evicted, after a pool flush so fresh vectors
// are records first. The swap is crash-safe with no tombstones: write the
// kept records to <log>.compact through the same write shim (fault
// injection covers compaction too), fsync, rename over the log, fsync the
// directory; a crash before the rename leaves the original untouched and
// the next open deletes the leftover temp. Pending (accepted-but-unsynced)
// records fold in durable. cmd/lpod runs it at startup under -compact, and
// POST /v1/compact runs it on a live daemon — existing snapshots degrade
// to reading the compacted state, never garbage.
//
// Streaming (GET /v1/findings): multi-node campaign drivers consume
// findings without polling. Plain GET returns a JSON page from an integer
// cursor ({"cursor", "next_cursor", "findings": [...]}); with ?watch=1 the
// response is a server-sent-event stream — "event: finding\nid:
// <cursor>\ndata: {\"window\": ..., \"finding\": ...}\n\n" per finding,
// ": heartbeat" comments while idle — resumable from any cursor via
// ?cursor=N (ids are 1-based positions in the stream log, seeded from the
// store at startup). Only DURABLE findings stream: a finding whose
// persistence barrier failed is deferred and published by the next
// successful barrier, so a subscriber never sees a result the store could
// still lose. The submit path rides the same machinery — POST
// /v1/windows?wait=1 blocks until the submitted windows' results are
// durable (200), or answers 202 with an Lpod-Degraded header when the
// store is in its degraded-but-serving mode, with degraded accepts counted
// in /v1/stats. The persist pipeline between engine and store is
// Config.PersistWorkers micro-batching workers, each draining up to 64
// results into one SaveResult loop and ONE Flush barrier — which is what
// the scaled benchmarks measure: store_commit (one fsync per finding,
// serial: the old submit path), store_group_commit (8 clients, a barrier
// per record, one group-committed log), and ingest_throughput (4 shards +
// group commit + 32-record client batches: >10x submissions/sec over the
// baseline, the floor CI enforces via the snapshot's ingest_speedup).
//
// # Fault Tolerance and Degraded Modes
//
// Every seam the pipeline crosses — provider, store, HTTP — can fail, and
// the layer behind each seam has a defined degraded mode rather than a
// crash path. The invariant tying them together: faults change *when* a
// result is computed and served, never *what* is ultimately persisted. A
// campaign that suffered provider outages, fsync failures and handler
// panics converges, once the faults clear, to a store byte-identical with
// a fault-free run of the same seed (pinned by the seeded chaos test in
// internal/service, which injects faults at every seam at once).
//
// Provider: llm.NewRetrying wraps any llm.Client with bounded retries —
// exponential backoff with deterministic seeded jitter, a per-request
// deadline, and transient-vs-permanent classification (an error's
// `Transient() bool` method opts it in; context cancellation is always
// permanent). Retry counts flow into llm.Usage. Behind the retrier sits a
// consecutive-failure circuit breaker: once it opens, Complete fails fast
// with llm.ErrCircuitOpen (letting every Nth request through as a probe),
// and the engine switches that sequence to the degraded knowledge-base
// proposer — opt.Run with the engine's accumulated learned rules stands in
// for the provider, so rulebook-driven discovery continues through an
// outage. Degraded results are marked (Result.Degraded), tallied
// (Stats.DegradedSeqs), served from the service's volatile memory, and
// never persisted — the window stays recomputable so the store converges.
//
// Engine: each window runs panic-isolated. A panicking stage (or provider)
// quarantines that window alone — the worker recovers, emits a Panicked
// result carrying the panic as an error, records the window hash in the
// engine's quarantine list (engine.Quarantined, GET /v1/stats), bumps
// Stats.Panics, and the campaign continues. The verify cache propagates a
// panic to every waiter of the same (source, candidate) pair rather than
// handing them a zero verdict. Config.StageTimeout bounds each stage:
// propose inherits a context deadline; verify and learn, which are
// CPU-bound and not context-aware, run under a watchdog that abandons the
// stage (ErrStageTimeout) without killing the worker.
//
// Store: Put is memory-only; Commit serializes the dirty batch at the
// durable offset, fsyncs, and only then advances it. A failed commit rolls
// the file back to the durable boundary and keeps the batch pending —
// Stats.Pending and Stats.CommitFails surface the backlog, every later
// commit retries it, and nothing accepted is ever lost (records stay
// servable from the in-memory index meanwhile: degraded-but-serving).
// store.OpenWith injects a write-layer shim, which is how the fault and
// chaos tests drive torn writes and fsync failures deterministically.
//
// Service: request bodies above Config.MaxBodyBytes answer 413 instead of
// being silently truncated; a full engine queue answers 429 with
// Retry-After instead of blocking the handler (engine.Queue.TrySubmit /
// engine.ErrQueueFull); a recovery middleware turns any handler panic into
// a 500 JSON error; GET /v1/healthz reports ok, degraded (commit backlog)
// or stopped for probes; and cmd/lpod sets server read/header timeouts
// (write stays unbounded — the SSE watch stream is a deliberately
// long-lived response whose heartbeat detects dead peers), drains
// gracefully on the first SIGINT/SIGTERM and force-exits on the second. internal/fault is the shared chaos harness behind all of this: a
// seedable injector with per-site probabilities and budgets whose client,
// file and middleware wrappers replay identically under a fixed seed.
//
// See README.md for the layout, DESIGN.md for the system inventory and the
// substitutions made for offline reproduction, and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure. The root-level
// benchmarks in bench_test.go regenerate each experiment and measure the
// engine's worker scaling (BenchmarkEngineWorkers).
package repro
