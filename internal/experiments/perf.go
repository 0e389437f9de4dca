package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alive"
	"repro/internal/generalize"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/store"
	"repro/internal/wasm"
)

// PerfSchema names the snapshot format; bump on breaking changes.
// Version 2 adds the verify_batch / interp_batch workloads and the
// tier_kills counters of the tiered verification scheduler. Version 3 adds
// the verify_multiblock / verify_memory workloads (batched execution of
// control flow and load/store programs) and the batch_coverage record
// measured over a corpus self-verification sweep. Version 4 adds the
// wasm_decode / wasm_lift workloads (the WebAssembly frontend over the
// embedded fixture corpus). Version 5 adds the store ingest workloads
// (store_commit / store_group_commit / ingest_throughput) and the
// ingest_speedup ratio the CI guard holds a floor on. Version 6 retires the
// interp_compiled workload and the batch_coverage record: the per-vector
// evaluator is gone, so every verified vector runs lane-batched.
const PerfSchema = "lpo-bench-perf/6"

// PerfBench is one measured workload of the perf snapshot (see doc.go,
// "Performance", for the schema).
type PerfBench struct {
	// Name identifies the workload (stable across PRs).
	Name string `json:"name"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// Iterations is how many operations the measurement averaged over.
	Iterations int `json:"iterations"`
}

// PerfTierKills records the scheduler behaviour of a scripted
// refute-twice-then-verify sequence (see measureTierKills): which tier
// killed each wrong candidate. The second refutation of the same window
// must be a pool kill, so the counters double as a CI-visible functional
// check of counterexample sharing.
type PerfTierKills struct {
	Pool    int64 `json:"pool"`
	Special int64 `json:"special"`
	Random  int64 `json:"random"`
}

// PerfSnapshot is the machine-readable performance record emitted by
// `lpo-bench -json` so successive PRs have a trajectory to compare against.
type PerfSnapshot struct {
	Schema     string        `json:"schema"`
	GoMaxProcs int           `json:"go_max_procs"`
	GoVersion  string        `json:"go_version"`
	Benches    []PerfBench   `json:"benchmarks"`
	TierKills  PerfTierKills `json:"tier_kills"`
	// IngestSpeedup is store_commit ns/op divided by ingest_throughput
	// ns/op: how many times faster a submission becomes durable on the
	// scaled path (group commit + shards + client batching, 8 concurrent
	// clients) than with one fsync per finding. ComparePerf holds a floor
	// on it once a reference has recorded one.
	IngestSpeedup float64 `json:"ingest_speedup,omitempty"`
}

// Encode renders the snapshot as indented JSON.
func (s *PerfSnapshot) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// DecodePerfSnapshot parses a snapshot previously written by Encode. Older
// schema versions decode too (unknown workloads are simply absent), so the
// regression guard can compare across schema bumps.
func DecodePerfSnapshot(data []byte) (*PerfSnapshot, error) {
	var s PerfSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// ComparePerf checks the current snapshot against a committed reference and
// returns one description per regression. A tracked workload is regressed
// when its ns/op exceeds nsTolerance times the reference (the CI guard uses
// 2.0 — generous enough for shared-runner noise, tight enough to catch a
// lost optimization), or when its allocs/op exceeds allocTolerance times the
// reference (allocation counts are near-deterministic, so growth past the
// factor is a real change in the code's allocation behaviour, not noise; a
// small absolute slack exempts workloads whose reference count is tiny).
// Workloads present on only one side are ignored, so adding or retiring
// benchmarks never breaks the guard. The tier-kill counters are
// deterministic (no timing involved) and compared exactly whenever the
// reference recorded any, so a broken counterexample-sharing path fails CI
// even though every ns/op may look fine.
func ComparePerf(cur, ref *PerfSnapshot, nsTolerance, allocTolerance float64) []string {
	refByName := make(map[string]PerfBench, len(ref.Benches))
	for _, b := range ref.Benches {
		refByName[b.Name] = b
	}
	var regressions []string
	for _, b := range cur.Benches {
		r, ok := refByName[b.Name]
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		if b.NsPerOp > r.NsPerOp*nsTolerance {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f ns/op vs reference %.0f ns/op (%.2fx > %.1fx tolerance)",
				b.Name, b.NsPerOp, r.NsPerOp, b.NsPerOp/r.NsPerOp, nsTolerance))
		}
		// The +8 slack keeps sub-ten-alloc workloads from tripping the
		// guard on a one-or-two-alloc wobble.
		if limit := int64(float64(r.AllocsPerOp)*allocTolerance) + 8; b.AllocsPerOp > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %d allocs/op vs reference %d allocs/op (> %.1fx tolerance)",
				b.Name, b.AllocsPerOp, r.AllocsPerOp, allocTolerance))
		}
	}
	if ref.TierKills != (PerfTierKills{}) && cur.TierKills != ref.TierKills {
		regressions = append(regressions, fmt.Sprintf(
			"tier_kills: pool %d/special %d/random %d vs reference pool %d/special %d/random %d (scripted kill sequence is deterministic — counterexample sharing regressed)",
			cur.TierKills.Pool, cur.TierKills.Special, cur.TierKills.Random,
			ref.TierKills.Pool, ref.TierKills.Special, ref.TierKills.Random))
	}
	// The ingest speedup is a floor too: the scaled submission path must
	// stay at least minIngestSpeedup times faster than one-fsync-per-finding.
	// Both sides of the ratio are measured in the same run on the same disk,
	// so the ratio is far more stable than either absolute number. The gate
	// arms once a reference snapshot has recorded one.
	if ref.IngestSpeedup > 0 && cur.IngestSpeedup < minIngestSpeedup {
		regressions = append(regressions, fmt.Sprintf(
			"ingest_speedup: scaled ingest is %.1fx the per-finding-fsync baseline, floor is %.0fx",
			cur.IngestSpeedup, minIngestSpeedup))
	}
	return regressions
}

// minIngestSpeedup is the floor ComparePerf enforces on the scaled ingest
// path's advantage over the one-fsync-per-finding baseline.
const minIngestSpeedup = 10.0

// The perf workloads below are the single source of truth for both the
// root-level benchmarks (bench_test.go delegates to the Bench* functions)
// and the `lpo-bench -json` snapshot, so `go test -bench` output and the
// JSON artifact always measure the same work.

const perfClampSrc = `define i8 @src(i32 %0) {
  %2 = icmp slt i32 %0, 0
  %3 = tail call i32 @llvm.umin.i32(i32 %0, i32 255)
  %4 = trunc nuw i32 %3 to i8
  %5 = select i1 %2, i8 0, i8 %4
  ret i8 %5
}`

const perfClampTgt = `define i8 @tgt(i32 %0) {
  %2 = tail call i32 @llvm.smax.i32(i32 %0, i32 0)
  %3 = tail call i32 @llvm.umin.i32(i32 %2, i32 255)
  %4 = trunc nuw i32 %3 to i8
  ret i8 %4
}`

const perfMultiBlockSrc = `define i32 @src(i32 %x) {
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
}`

const perfMultiBlockTgt = `define i32 @tgt(i32 %x) {
  %s = ashr i32 %x, 31
  %t = xor i32 %x, %s
  %a = sub i32 %t, %s
  %r = and i32 %a, 2147483647
  ret i32 %r
}`

const perfMemSrc = `define i8 @src(ptr %p, i32 %x) {
  %t = trunc i32 %x to i8
  %v = load i8, ptr %p
  %d = shl i8 %v, 1
  %s = add i8 %d, %t
  store i8 %s, ptr %p
  ret i8 %s
}`

const perfMemTgt = `define i8 @tgt(ptr %p, i32 %x) {
  %t = trunc i32 %x to i8
  %v = load i8, ptr %p
  %d = add i8 %v, %v
  %s = add i8 %d, %t
  store i8 %s, ptr %p
  ret i8 %s
}`

const perfSweepSrc = `define i16 @src(i16 %x, i16 %y) {
  %a = and i16 %x, %y
  %o = or i16 %x, %y
  %r = xor i16 %a, %o
  ret i16 %r
}`

const perfSweepTgt = `define i16 @tgt(i16 %x, i16 %y) {
  %r = xor i16 %x, %y
  ret i16 %r
}`

// perfRotSrc/perfRotTgt rotate left by %y as a right rotate by -%y: two
// i8 parameters, so verification enumerates all 65,536 input vectors
// through the intrinsic batch kernel.
const perfRotSrc = `define i8 @src(i8 %x, i8 %y) {
  %r = call i8 @llvm.fshl.i8(i8 %x, i8 %x, i8 %y)
  %a = call i8 @llvm.abs.i8(i8 %r, i1 false)
  ret i8 %a
}`

const perfRotTgt = `define i8 @tgt(i8 %x, i8 %y) {
  %n = sub i8 0, %y
  %r = call i8 @llvm.fshr.i8(i8 %x, i8 %x, i8 %n)
  %a = call i8 @llvm.abs.i8(i8 %r, i1 false)
  ret i8 %a
}`

var (
	perfOnce                     sync.Once
	perfClampSrcF, perfClampTgtF *ir.Func
	perfSweepSrcF, perfSweepTgtF *ir.Func
	perfMBSrcF, perfMBTgtF       *ir.Func
	perfMemSrcF, perfMemTgtF     *ir.Func
	perfRotSrcF, perfRotTgtF     *ir.Func
)

func perfFuncs() {
	perfOnce.Do(func() {
		perfClampSrcF = parser.MustParseFunc(perfClampSrc)
		perfClampTgtF = parser.MustParseFunc(perfClampTgt)
		perfSweepSrcF = parser.MustParseFunc(perfSweepSrc)
		perfSweepTgtF = parser.MustParseFunc(perfSweepTgt)
		perfMBSrcF = parser.MustParseFunc(perfMultiBlockSrc)
		perfMBTgtF = parser.MustParseFunc(perfMultiBlockTgt)
		perfMemSrcF = parser.MustParseFunc(perfMemSrc)
		perfMemTgtF = parser.MustParseFunc(perfMemTgt)
		perfRotSrcF = parser.MustParseFunc(perfRotSrc)
		perfRotTgtF = parser.MustParseFunc(perfRotTgt)
	})
}

// BenchVerify measures the compile-once checker on a representative
// benchdata-style window (the paper's clamp case, 1024 samples) with a
// shared program cache — the engine verify stage's steady-state
// configuration.
func BenchVerify(b *testing.B) {
	perfFuncs()
	opts := alive.Options{Samples: 1024, Seed: 1, Programs: interp.NewCache()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := alive.Verify(perfClampSrcF, perfClampTgtF, opts); r.Verdict != alive.Correct {
			b.Fatal("verification regressed")
		}
	}
}

// BenchVerifyExhaustive measures one Verify of a two-i8-parameter rotate
// pair, the shape of most verified vectors in a learning campaign: the full
// 65,536-vector exhaustive enumeration through the columnar input tier and
// the intrinsic batch kernel, with a fresh Checker per call as the engine
// builds one.
func BenchVerifyExhaustive(b *testing.B) {
	perfFuncs()
	opts := alive.Options{Seed: 1, Programs: interp.NewCache()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := alive.Verify(perfRotSrcF, perfRotTgtF, opts); r.Verdict != alive.Correct || !r.Exhaustive {
			b.Fatal("verification regressed")
		}
	}
}

// BenchVerifyReference is the same workload through the pre-compile-once
// verification path, kept as the perf trajectory's baseline.
func BenchVerifyReference(b *testing.B) {
	perfFuncs()
	opts := alive.Options{Samples: 1024, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := alive.ReferenceVerify(perfClampSrcF, perfClampTgtF, opts); r.Verdict != alive.Correct {
			b.Fatal("verification regressed")
		}
	}
}

// BenchVerifyBatch measures the tiered checker in its steady state: one
// Checker reused across calls (the CEGIS pattern), so compilation, batch
// setup and the input-generator tables are all warm and each op is pure
// lane-batched verification work.
func BenchVerifyBatch(b *testing.B) {
	perfFuncs()
	c := alive.NewChecker(perfClampSrcF, perfClampTgtF,
		alive.Options{Samples: 1024, Seed: 1, Programs: interp.NewCache()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := c.Verify(); r.Verdict != alive.Correct {
			b.Fatal("verification regressed")
		}
	}
}

// BenchVerifyMultiBlock measures steady-state verification of a branchy
// window (an abs-value diamond with a phi join against its branch-free
// form) through a reused Checker — the masked multi-block scheduler is the
// whole workload, where the seed fell back to per-vector execution.
func BenchVerifyMultiBlock(b *testing.B) {
	perfFuncs()
	c := alive.NewChecker(perfMBSrcF, perfMBTgtF,
		alive.Options{Samples: 1024, Seed: 1, Programs: interp.NewCache()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := c.Verify(); r.Verdict != alive.Correct {
			b.Fatal("verification regressed")
		}
	}
}

// BenchVerifyMemory measures steady-state verification of a load/store
// window (shl-vs-add on a loaded byte, stored back) through a reused
// Checker — per-lane slab memories and the per-lane memory diff are the
// workload, where the seed fell back to per-vector execution.
func BenchVerifyMemory(b *testing.B) {
	perfFuncs()
	c := alive.NewChecker(perfMemSrcF, perfMemTgtF,
		alive.Options{Samples: 1024, Seed: 1, Programs: interp.NewCache()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := c.Verify(); r.Verdict != alive.Correct {
			b.Fatal("verification regressed")
		}
	}
}

// BenchVerifyWidths measures a generalize-style width sweep (the same pair
// re-instantiated and re-verified at i8/i16/i32/i64) with the shared
// program cache.
func BenchVerifyWidths(b *testing.B) {
	perfFuncs()
	widths := []int{8, 16, 32, 64}
	opts := alive.Options{Samples: 256, Seed: 1, Programs: interp.NewCache()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wrs := alive.VerifyWidths(widths, opts, func(w int) (*ir.Func, *ir.Func, error) {
			s, err := generalize.Rewidth(perfSweepSrcF, w)
			if err != nil {
				return nil, nil, err
			}
			t, err := generalize.Rewidth(perfSweepTgtF, w)
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

// BenchInterpExec measures one execution of the clamp window through the
// reference tree-walker.
func BenchInterpExec(b *testing.B) {
	perfFuncs()
	env := interp.Env{Args: []interp.RVal{interp.Scalar(ir.I32, 1234)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interp.Exec(perfClampSrcF, env)
	}
}

// BenchInterpBatch executes one lane batch (interp.BatchWidth input
// vectors) of the clamp window through a warm evaluator per op — divide
// ns/op by interp.BatchWidth for the per-vector cost the verifier pays,
// against interp_exec's tree-walking cost.
func BenchInterpBatch(b *testing.B) {
	perfFuncs()
	ev := interp.NewEvaluator(interp.Compile(perfClampSrcF))
	args := []interp.RVal{interp.Scalar(ir.I32, 1234)}
	envs := make([]interp.Env, interp.BatchWidth)
	for i := range envs {
		envs[i] = interp.Env{Args: args}
	}
	out := make([]interp.Result, interp.BatchWidth)
	ev.RunBatch(envs, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.RunBatch(envs, out)
	}
}

// BenchWasmDecode measures decoding the whole embedded wasm fixture corpus
// from bytes to Module — the frontend's parse cost per campaign intake.
func BenchWasmDecode(b *testing.B) {
	fixtures := wasm.Fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fx := range fixtures {
			if _, err := wasm.Decode(fx.Data); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchWasmLift measures lifting the decoded fixture corpus to SSA IR —
// stack-machine reconstruction, control-flow restructuring, and the
// verifier pass over every lifted function.
func BenchWasmLift(b *testing.B) {
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

// BenchOptDispatchAllRules measures the opcode-indexed rewrite dispatch with
// every registry rule enabled over a prebuilt RuleSet.
func BenchOptDispatchAllRules(b *testing.B) {
	perfFuncs()
	rs := opt.NewRuleSet(opt.Options{Patches: opt.AllRuleNames()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Run(perfClampSrcF, opt.Options{Rules: rs})
	}
}

// BenchOptRunO3 measures the baseline optimizer pipeline.
func BenchOptRunO3(b *testing.B) {
	perfFuncs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.RunO3(perfClampSrcF)
	}
}

// --- Store ingest workloads ---
//
// Three points on the durability/throughput curve, all writing the same
// finding-sized records to a fresh store on local disk:
//
//   - store_commit: the pre-scaling baseline — one record, one Commit, one
//     fsync, serial. What every submission paid before group commit.
//   - store_group_commit: 8 concurrent clients each making every record
//     durable before the next (Put + Flush per op) against one
//     group-committed log — concurrent barriers share fsyncs.
//   - ingest_throughput: the full scaled path — 4 shards, group commit, 8
//     concurrent clients batching a Flush barrier every 32 records (the
//     persist workers' micro-batching pattern, which barriers once per
//     drained batch of up to 64 results).
//
// ingest_throughput ns/op versus store_commit ns/op is the snapshot's
// ingest_speedup ratio; ComparePerf keeps it above minIngestSpeedup.

// ingestClients is the concurrency of the ingest benchmarks — the paper
// setting of 8 submitting clients.
const ingestClients = 8

// perfFindingVal is a representative finding record body (~220 bytes of
// compact JSON, the size class the service persists per window).
var perfFindingVal = []byte(`{"window":"deadbeefcafef00d","status":"optimized","model":"Gemini2.0T","src":"%2 = icmp slt i32 %0, 0\n%3 = call i32 @llvm.umin.i32(i32 %0, i32 255)","tgt":"%2 = call i32 @llvm.smax.i32(i32 %0, i32 0)","cycles_saved":3}`)

// benchIngest drives b.N unique finding Puts through st from ingestClients
// concurrent goroutines, erecting a Flush durability barrier every
// flushEvery records per client (1 = every record durable before the next).
// Every client ends with a final barrier, so the measurement always covers
// full durability of all b.N records.
func benchIngest(b *testing.B, st store.Backend, flushEvery int) {
	var ctr uint64
	per := (b.N + ingestClients - 1) / ingestClients
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < ingestClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("%016x", atomic.AddUint64(&ctr, 1))
				if _, err := st.Put(store.KindFinding, key, perfFindingVal); err != nil {
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

// BenchStoreCommit is the baseline the scaling work is measured against:
// one fsync per finding, serial — Put then Commit for every record, the
// durability discipline of the pre-group-commit submit path.
func BenchStoreCommit(b *testing.B) {
	dir, err := os.MkdirTemp("", "lpo-bench-store")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("%016x", i)
		if _, err := st.Put(store.KindFinding, key, perfFindingVal); err != nil {
			b.Fatal(err)
		}
		if err := st.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchStoreGroupCommit keeps the strictest durability discipline — every
// record durable before its client continues — but runs 8 clients against
// a group-committed log, so concurrent barriers coalesce into shared
// fsyncs. MaxBatch is tuned to the client count so the committer fires as
// soon as every blocked client's record is pending.
func BenchStoreGroupCommit(b *testing.B) {
	dir, err := os.MkdirTemp("", "lpo-bench-store")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	st.StartGroupCommit(store.GroupCommitOptions{MaxDelay: 200 * time.Microsecond, MaxBatch: ingestClients})
	benchIngest(b, st, 1)
}

// BenchIngestThroughput is the full scaled ingest path: 4 shards, group
// commit at defaults, 8 concurrent clients each batching 32 records per
// durability barrier — the configuration the lpod persist workers run.
func BenchIngestThroughput(b *testing.B) {
	dir, err := os.MkdirTemp("", "lpo-bench-store")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenSharded(dir, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	st.StartGroupCommit(store.GroupCommitOptions{})
	benchIngest(b, st, 32)
}

// perfWorkloads lists the snapshot entries in emission order.
var perfWorkloads = []struct {
	Name string
	Fn   func(*testing.B)
}{
	{"verify_checker", BenchVerify},
	{"verify_reference", BenchVerifyReference},
	{"verify_batch", BenchVerifyBatch},
	{"verify_multiblock", BenchVerifyMultiBlock},
	{"verify_memory", BenchVerifyMemory},
	{"verify_widths", BenchVerifyWidths},
	{"interp_exec", BenchInterpExec},
	{"interp_batch", BenchInterpBatch},
	{"wasm_decode", BenchWasmDecode},
	{"wasm_lift", BenchWasmLift},
	{"opt_dispatch_all_rules", BenchOptDispatchAllRules},
	{"opt_run_o3", BenchOptRunO3},
	{"store_commit", BenchStoreCommit},
	{"store_group_commit", BenchStoreGroupCommit},
	{"ingest_throughput", BenchIngestThroughput},
}

// RunPerfSnapshot measures every perf workload with testing.Benchmark and
// returns the snapshot. Workload names map 1:1 onto the root-level
// benchmarks (BenchmarkVerify, BenchmarkVerifyReference,
// BenchmarkVerifyBatch, BenchmarkVerifyWidths, BenchmarkInterpExec,
// BenchmarkInterpBatch and the opt dispatch pair),
// which delegate to the same Bench* functions.
func RunPerfSnapshot() *PerfSnapshot {
	snap := &PerfSnapshot{Schema: PerfSchema, GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	for _, w := range perfWorkloads {
		r := testing.Benchmark(w.Fn)
		snap.Benches = append(snap.Benches, PerfBench{
			Name:        w.Name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		})
	}
	snap.TierKills = measureTierKills()
	var baseNs, scaledNs float64
	for _, b := range snap.Benches {
		switch b.Name {
		case "store_commit":
			baseNs = b.NsPerOp
		case "ingest_throughput":
			scaledNs = b.NsPerOp
		}
	}
	if scaledNs > 0 {
		snap.IngestSpeedup = baseNs / scaledNs
	}
	return snap
}

// measureTierKills runs a fixed script of refuted verifications through one
// shared counterexample pool and records which scheduler tier killed each
// candidate:
//
//  1. add/add-nsw at i8 — the corner values catch the signed overflow
//     (special-tier kill) and the refuting input enters the pool;
//  2. a second wrong candidate for the same window — the pooled input kills
//     it on the first replayed vector (pool-tier kill);
//  3. an i32 identity rewrite broken only on x ≡ 777 (mod 1000), a residue
//     no corner value hits — only the random phase finds it (random-tier
//     kill).
//
// The counters are deterministic for the fixed seed, so the snapshot makes
// counterexample sharing itself CI-observable.
func measureTierKills() PerfTierKills {
	pool := alive.NewCEPool()
	opts := alive.Options{Samples: 4096, Seed: 1, Programs: interp.NewCache(), Pool: pool}
	src := parser.MustParseFunc(`define i8 @src(i8 %x, i8 %y) { %r = add i8 %x, %y ret i8 %r }`)
	nsw := parser.MustParseFunc(`define i8 @tgt(i8 %x, i8 %y) { %r = add nsw i8 %x, %y ret i8 %r }`)
	ident := parser.MustParseFunc(`define i8 @tgt(i8 %x, i8 %y) { ret i8 %x }`)
	randSrc := parser.MustParseFunc(`define i32 @src(i32 %x) { ret i32 %x }`)
	randTgt := parser.MustParseFunc(`define i32 @tgt(i32 %x) {
  %m = urem i32 %x, 1000
  %c = icmp eq i32 %m, 777
  %r = select i1 %c, i32 0, i32 %x
  ret i32 %r
}`)
	var kills PerfTierKills
	for _, pair := range [][2]*ir.Func{{src, nsw}, {src, ident}, {randSrc, randTgt}} {
		switch alive.Verify(pair[0], pair[1], opts).Tiers.KillTier {
		case alive.TierPool:
			kills.Pool++
		case alive.TierSpecial:
			kills.Special++
		case alive.TierRandom:
			kills.Random++
		}
	}
	return kills
}
