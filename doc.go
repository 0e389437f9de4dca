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
// Cancelling ctx drains the run cleanly. stats.Snapshot() copies the
// run's counters (invocation counts, outcome tallies, accumulated
// llm.Usage, per-stage latency) and may be taken while the run is in
// flight. The same engine.Snapshot is what `lpo -stats` prints and what
// lpod's GET /v1/stats serves as its engine section. A cross-worker
// verification cache deduplicates identical (source, candidate) refinement
// checks by structural hash.
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
// engine.Snapshot.RuleHits aggregates the attribution, and the RQ1/RQ2/Figure-5
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
// width sweeps, and a Souper/Minotaur run shares one across the checkers it
// builds for its candidates, so the source compiles once per run.
//
// On top of the compile-once split, execution is lane-batched:
// Evaluator.RunBatchFilled streams up to interp.BatchWidth input vectors
// through a program at once, instruction by instruction, over a structure-of-arrays
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
// (ResetLane) independently. The engine has one way in and one way out.
// Callers write inputs straight into the evaluator's ArgColumn runs and
// execute with RunBatchFilled, which takes one step budget for the run
// (Figure 5's looped programs pass 1<<24). A run reports its outcome as
// columns, not
// as one interp.Result per lane: Evaluator.Masks gives three uint64 lane
// masks (returned, UB, out of budget), RetColumn the return values side by
// side — for a straight program a view of the returned register or
// constant, for a multi-block one a column every ret writes its lanes
// into — and the UB reason and step count of each retired lane stay in
// evaluator-owned arrays until LaneResult builds one lane's full Result on
// demand. The Exec-vs-batch differential tests drive this same column API
// through one helper, so they pin the one engine. Released
// evaluators go to one sync.Pool, and NewEvaluator lays a recycled one out
// for its Program, reusing its arena, operand views and constant columns;
// what a Program fixes for every evaluator (each instruction's batch
// kernel, the constant-column offsets) is planned once at Compile. Pooled
// storage so tracks how many evaluators run at once rather than how many
// distinct programs ran lately, and the pool drops it across garbage
// collections. Compile resolves every call's intrinsic
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
// The checker reads verdicts off the outcome columns: a slot is constrained
// when the source's Returned bit is set and the target's OutOfBudget bit
// is not, and violates refinement on a target UB bit, a return value the
// source's does not refine (a tight poison-then-value loop for scalar
// integers, the NaN-aware lane rule for vector and FP returns) or a
// memory diff; only a violation builds Results, through LaneResult, and
// clones them into the counterexample. Checker.Release returns a checker's
// batch buffers to a sync.Pool and its evaluators to their Programs; the
// one-shot alive.Verify and alive.VerifyWidths release theirs when they
// finish, so a warm Verify allocates no batch arena.
// The input generator emits columnwise (inputGen.nextBatch binds each
// output vector to a different ArgColumn slot before drawing it, keeping
// the vector-major rng draw order that same-seed reproducibility pins).
// The exhaustive phase of a signature without pointer parameters — in a
// learning campaign almost every verified vector, since each learned rule
// is re-verified by full enumeration at i8 — skips even that: it draws
// nothing from the rng, so the counter is written column-major straight
// into the input columns, one pass per argument lane, and the checker
// counts tiers once per batch. The generator's rng comes from a pool and
// is seeded on first draw, so a Verify allocates no random source and an
// exhaustive run refuted before its poison trials never seeds one. Memory
// fills land directly in the per-lane slabs, and refuted pairs
// restore the raw input pointer words and initial region bytes so the
// counterexample text stays byte-identical to alive.ReferenceVerify, the
// retained Exec-per-input baseline. Result.Tiers reports per-tier
// executions and the killing tier; `lpo-verify -stats` prints them,
// engine.Snapshot aggregates them campaign-wide (TierKills, VerifyExecs),
// and GET /v1/stats serves that snapshot.
// alive.VerifyWidths reseeds each width of a sweep with earlier widths'
// counterexamples rescaled to the new width; the engine installs one CEPool
// per campaign beside its program cache (Snapshot.TierKills aggregates the
// kills). The Souper/Minotaur CEGIS loops use no pool: each candidate's
// checker is seeded (Checker.Seed) with the run's test-vector filter — the
// test vectors on which the source, run through Exec, returns a poison-free
// value, plus every poison-free counterexample of a defined source — so a
// filter kill reads as KillTier pool, and Souper charges it no
// verification cost. On one core this makes the clamp verification ~3x and the
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
// The counter phase of those enumerations now runs on interp's packed
// tier. A Program is packable when Compile finds it straight-line, with
// only scalar integers of 1 to 64 bits (no pointer, memory, vector or
// floating-point value), no runtime guard or gather, and every instruction
// before its ret a specialized scalar-integer batch kind; the rule shapes
// a campaign re-verifies all are (seeds 501–504: 96% of the 9.79M verified
// vectors come from the counter phase, all but 59 of them from such
// pairs). A packed register holds a w-bit value in lanes of 8, 16, 32 or
// 64 bits, 64 vectors per group with one poison mask per group. SWAR
// kernels run and/or/xor/add/sub/mul, shifts and funnel shifts, icmp,
// select, freeze, casts, ctpop, abs and min/max on whole words, with the
// poison their flags produce; the other specialized ops run lane by lane
// through the per-lane kernels every engine shares, with division UB in a
// per-run lane mask. The checker fills argument words from static ramps (a
// per-word lane offset ORed with a broadcast of the counter's high bits),
// runs interp.PackedGroups groups per dispatch and compares source and
// target word by word. The packed tier reports no reasons and builds no
// Result, so the lane path stays the counterexample path: the first group
// with a violating lane re-runs on the batch engine, which builds the
// Result, the counterexample and the pool deposit as before, and the
// poison trials run there too. Checked, the tier counts and counterexample
// text stay equal to alive.ReferenceVerify, and Exec stays the oracle
// (FuzzPackedMatchesBatch, TestPackedTierMatchesReference).
//
// The front half of a job — corpus, extraction, the simulator's prompt
// parse, preprocess — allocates only what it keeps. The parser is
// pull-lexed: it takes each token from the lexer on demand through a
// two-token lookahead, never building a token slice, and slices a source
// line out of the input only when a diagnostic quotes it. opt.Run never
// mutates its input and may return it: RunWithStats first probes the
// first sweep without writing (constant folding, canonicalization on a
// scratch copy of each instruction, the rule dispatch and DCE liveness)
// and, when nothing would change, returns f itself with the stats a full
// run reports; a caller that edits the result clones it first. Corpus
// functions share read-only bodies: each filler template and each
// benchdata finding is built or parsed once, and the functions drawn from
// it differ only in their name. Together they take BenchmarkCampaignJob
// from 14.9 to 7.3 MB and from 229k to 140k allocations per job, and the
// campaign workload from 123.4 to 60.8 KiB allocated per window (2-vCPU
// KVM guest, Go 1.24).
//
// CI compares each commit with its parent in the same job, on the same
// host (.github/perfgate.sh): it builds both trees and runs five
// interleaved pairs, alternating which side goes first, of the root
// verify/interp/opt/parser/wasm/store benchmarks and BenchmarkCampaignJob
// (with -benchmem) plus a 5 s perfbench campaign per side. With r the five
// HEAD/parent ratios, a benchmark fails when median(r) exceeds
// 1 + max(3·MAD(r), 0.25), or when its median allocs/op exceed 1.1 times
// the parent's plus 2; a campaign metric fails by the same rule
// with its BENCHMARK.json bound in place of 0.25. A campaign run must be
// correct with no failed op, and BenchmarkStoreCommit ns/op over
// BenchmarkIngestThroughput ns/op, both from one run, must stay at 10x or
// more. The BENCH_4–8.json files in the repository root are frozen
// snapshots from earlier hosts, kept as history; nothing compares against
// them.
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
// tallied by reason, the per-module coverage lands in engine.Snapshot.Lift
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
// that set persistent: a directory holding append-only record logs
// ("lpod-00.log" upward, one per shard, one by default; magic "LPODSTR1" —
// bump the trailing digit on breaking format changes) plus an in-memory
// hash index rebuilt on open. Each record frames a kind byte (finding, rule
// or counterexample vector), a key, a value and a CRC32; Put appends (a
// duplicate key is a content-address hit, not a write), Flush makes the
// batch durable with one fsync per shard, and Open recovers from
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
// entries into a standard rulebook, and GET /v1/stats serves each layer's
// own snapshot: engine.Snapshot (outcomes, usage, stage latency, verify
// executions, tier kills, store hits, rule hits), store.Stats (records,
// hit/miss counters, recovered bytes) and alive.CEPoolStats, plus the
// daemon's counters.
// Restarting the daemon on the same store resumes exactly: resubmitted
// corpora are answered byte-identically from disk with no provider or
// verifier work, and the stored vectors warm the pool's tier-0 replay.
// The engine side is engine.Config.Lookup — consulted once per sequence
// after per-run dedup, a hit is returned as a Cached result and counted
// in Snapshot.StoreHits — and cmd/lpo -store threads the same persistence
// through one-shot batch runs, so batch campaigns, the daemon and future
// runs all share one accumulated store.
//
// # Scaling the Store: Group Commit, Shards, Compaction
//
// One log and one fsync per finding caps ingest at the disk's sync latency
// (~150µs here: at most a few thousand submissions/sec, serialized), so the
// hot ingest path scales along three axes — batching commits, sharding
// logs, and streaming results out instead of being polled. The store has
// one shape that does all of it: store.Open(dir, store.Options{Shards,
// Commit, Wrap}) returns a sharded, group-committed store, and Flush is its
// only durability barrier.
//
// Group commit: every shard runs a committer goroutine from Open to Close.
// Flush returns once every record Put before the call is durable, or with
// the error of the commit attempt that should have covered it. Concurrent
// Flush callers coalesce: each registers a notification channel and rings
// a doorbell; the committer wakes, lets the batch grow while records are
// still arriving (it commits as soon as two consecutive looks a
// scheduler-yield apart see the same pending count — arrival-driven, since
// OS timer granularity is orders of magnitude coarser than a commit cycle
// — with GroupCommitOptions.MaxBatch capping the batch and MaxDelay the
// wait outright; a negative MaxDelay commits at once, so serial Put+Flush
// pays exactly one fsync per record), serializes the whole dirty batch as
// one framed write, fsyncs once, and notifies every waiter that registered
// before the commit. Because a commit performs its disk I/O without the
// index lock, writers keep Put-ing WHILE the current batch fsyncs — the
// next batch adapts to however slow the disk is. A failed commit preserves
// the PR-9 invariant exactly (roll back to the durable boundary, keep the
// batch pending, report the error to that round's waiters) and the
// committer retries the backlog on its own every
// GroupCommitOptions.RetryDelay (a negative RetryDelay turns that off, for
// tests that must observe each failure), so a transient fsync failure
// drains without waiting for new traffic. Close stops the committer after
// a final drain that commits whatever is pending, and a Flush racing Close
// commits directly rather than waiting on the stopped committer.
//
// Sharding (Options.Shards): the store fans the one logical record set
// over N shard logs — dir/lpod-00.log … hex-numbered upward, each with its
// own index, committer, recovery and snapshot isolation — so concurrent
// submissions stop contending on a single file and a single fsync queue.
// A fresh store gets Options.Shards logs (0 means one). Records route by
// window-hash prefix: the shard of a key is a hash of everything before
// the first '/', which for findings (bare window hash) and pool vectors
// ("<window>/<vechash>") is the same string — a window's finding and its
// counterexamples always colocate, keeping per-shard append order a
// durability order per window. An existing directory's shard count always
// wins over the requested one (resharding in place would route keys away
// from their records; a missing shard file is a refused open, not silent
// loss), and a legacy single-log store (lpod.log) is migrated in place
// idempotently (re-Put everything, flush, then rename lpod.log away).
// Flush fans out to the shards in parallel, so a logical barrier costs one
// fsync latency, not N.
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
// store at startup; the log holds each finding's stored bytes, shared with
// the store, and compacts them as it serves). Only DURABLE findings stream: a finding whose
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
// baseline, a floor the CI perf gate holds within one run).
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
// (Snapshot.DegradedSeqs), served from the service's volatile memory, and
// never persisted — the window stays recomputable so the store converges.
//
// Engine: each window runs panic-isolated. A panicking stage (or provider)
// quarantines that window alone — the worker recovers, emits a Panicked
// result carrying the panic as an error, records the window hash in the
// engine's quarantine list (engine.Quarantined, GET /v1/stats), bumps
// Snapshot.Panics, and the campaign continues. The verify cache propagates a
// panic to every waiter of the same (source, candidate) pair rather than
// handing them a zero verdict. Config.StageTimeout bounds each stage:
// propose inherits a context deadline; verify and learn, which are
// CPU-bound and not context-aware, run under a watchdog that abandons the
// stage (ErrStageTimeout) without killing the worker.
//
// Store: Put is memory-only; the commit behind Flush serializes the dirty
// batch at the durable offset, fsyncs, and only then advances it. A failed
// commit rolls the file back to the durable boundary and keeps the batch
// pending — store.Stats.Pending and CommitFails surface the backlog
// (Stats.Degraded drives /v1/healthz), the committer's retry and every
// later Flush retry it, and nothing accepted is ever lost (records stay
// servable from the in-memory index meanwhile: degraded-but-serving).
// store.Options.Wrap injects a write-layer shim, which is how the fault
// and chaos tests drive torn writes and fsync failures deterministically,
// and FuzzOpenLog feeds arbitrary bytes to crash recovery.
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
