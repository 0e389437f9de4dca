package alive

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
)

// loopSrc counts up to max(n, 1) in a loop: a multi-block program whose
// trip count, and so its step count, depends on the input.
const loopSrc = `define i8 @src(i8 %n) {
entry:
  br label %loop
loop:
  %i = phi i8 [ 0, %entry ], [ %i2, %loop ]
  %i2 = add i8 %i, 1
  %c = icmp ult i8 %i2, %n
  br i1 %c, label %loop, label %exit
exit:
  ret i8 %i2
}`

// recycleCases are refuted pairs whose verification exercises each kind of
// per-lane state a recycled evaluator or checker carries over: UB kills,
// budget exhaustion in the multi-block scheduler, per-lane slab memories
// and vector return columns. dirty runs first on the same program cache,
// leaving that state behind in the pooled scratch.
var recycleCases = []struct {
	name, src, tgt string
	dirty          func(t *testing.T, cache *interp.Cache, src, tgt *ir.Func)
}{
	{"ub-kills",
		// Both sides are UB for y = 0, the first four exhaustive batches;
		// the target is wrong from x = 77, y = 1 on (batch 5, lane 13).
		`define i8 @src(i8 %x, i8 %y) { %q = udiv i8 %x, %y ret i8 %q }`,
		`define i8 @tgt(i8 %x, i8 %y) {
  %q = udiv i8 %x, %y
  %e = icmp eq i8 %x, 77
  %r = select i1 %e, i8 0, i8 %q
  ret i8 %r
}`,
		func(t *testing.T, cache *interp.Cache, src, tgt *ir.Func) {
			Verify(src, tgt, Options{Seed: 9, Samples: 128, MaxExhaustiveBits: 8, Programs: cache})
			// A refuting sweep leaves a recycled checker that was seeded
			// with another width's counterexample.
			and := parser.MustParseFunc(`define i8 @s(i8 %x, i8 %y) { %r = and i8 %x, %y ret i8 %r }`)
			or := parser.MustParseFunc(`define i8 @t(i8 %x, i8 %y) { %r = or i8 %x, %y ret i8 %r }`)
			VerifyWidths([]int{8, 8}, Options{Seed: 2, Programs: cache}, func(int) (*ir.Func, *ir.Func, error) {
				return and, or, nil
			})
		}},
	{"multi-block-budget",
		loopSrc,
		`define i8 @tgt(i8 %n) { %r = call i8 @llvm.umax.i8(i8 %n, i8 2) ret i8 %r }`,
		func(t *testing.T, cache *interp.Cache, src, tgt *ir.Func) {
			// n = 200..255 loops past the 40-step budget; n wraps to 0..7
			// on the last lanes, which return.
			ev := interp.NewEvaluator(cache.Program(src))
			col := ev.ArgColumn(0)
			for b := range col {
				col[b] = interp.Word{V: uint64(200+b) & 0xFF}
			}
			ev.RunBatchFilled(interp.BatchWidth, nil, 40)
			if m := ev.Masks(); m.OutOfBudget&1 == 0 || m.Returned == 0 {
				t.Fatalf("the dirtying batch did not mix budget exhaustion and returns: %+v", m)
			}
			ev.Release()
		}},
	{"pointer-slabs",
		`define void @src(ptr %p, i8 %x) { %d = shl i8 %x, 1 store i8 %d, ptr %p ret void }`,
		`define void @tgt(ptr %p, i8 %x) { %d = shl i8 %x, 2 store i8 %d, ptr %p ret void }`,
		func(t *testing.T, cache *interp.Cache, src, tgt *ir.Func) {
			// Another pointer pair, with its region at another parameter
			// and name: the slabs are recycled and relabelled both ways.
			s := parser.MustParseFunc(`define void @s(i8 %x, ptr %q) { store i8 %x, ptr %q ret void }`)
			tq := parser.MustParseFunc(`define void @t(i8 %x, ptr %q) { %y = xor i8 %x, 1 store i8 %y, ptr %q ret void }`)
			opts := Options{Seed: 4, Samples: 64, Programs: cache}
			if diff := resultsEqual(Verify(s, tq, opts), ReferenceVerify(s, tq, opts)); diff != "" {
				t.Fatalf("pair on recycled slabs vs ReferenceVerify: %s", diff)
			}
			Verify(src, tgt, Options{Seed: 5, Samples: 64, MemFills: 3, Programs: cache})
		}},
	{"vector-return",
		// Exhaustive over 16 bits; lane 0 of the target clamps at 250, so
		// the first violation is x = <250, 0> (batch 3, lane 58).
		`define <2 x i8> @src(<2 x i8> %x) { %r = add <2 x i8> %x, <i8 1, i8 1> ret <2 x i8> %r }`,
		`define <2 x i8> @tgt(<2 x i8> %x) {
  %r = add <2 x i8> %x, <i8 1, i8 1>
  %u = call <2 x i8> @llvm.umin.v2i8(<2 x i8> %r, <2 x i8> <i8 250, i8 255>)
  ret <2 x i8> %u
}`,
		func(t *testing.T, cache *interp.Cache, src, tgt *ir.Func) {
			Verify(src, tgt, Options{Seed: 8, Samples: 96, MaxExhaustiveBits: 8, Programs: cache})
		}},
}

// TestRecycledScratchMatchesFresh pins scratch reuse: verifying a pair on
// evaluators and checker buffers recycled from an earlier run must give the
// verdict, Checked, kill tier and counterexample text of a run on freshly
// compiled programs — and the counterexample must be ReferenceVerify's.
func TestRecycledScratchMatchesFresh(t *testing.T) {
	opts := Options{Seed: 3, Samples: 256}
	for _, tc := range recycleCases {
		t.Run(tc.name, func(t *testing.T) {
			src, tgt := parser.MustParseFunc(tc.src), parser.MustParseFunc(tc.tgt)
			fresh := Verify(src, tgt, opts)
			ref := ReferenceVerify(src, tgt, opts)
			if fresh.Verdict != Incorrect || fresh.CE == nil {
				t.Fatalf("want a refuted pair, got verdict %v", fresh.Verdict)
			}
			if diff := resultsEqual(fresh, ref); diff != "" {
				t.Fatalf("fresh vs ReferenceVerify: %s", diff)
			}
			cache := interp.NewCache()
			cached := opts
			cached.Programs = cache
			Verify(src, tgt, cached) // compile, and pool the evaluators
			tc.dirty(t, cache, src, tgt)
			got := Verify(src, tgt, cached)
			if diff := resultsEqual(got, fresh); diff != "" {
				t.Fatalf("recycled vs fresh: %s", diff)
			}
			if got.Tiers.KillTier != fresh.Tiers.KillTier {
				t.Fatalf("recycled kill tier %d, fresh %d", got.Tiers.KillTier, fresh.Tiers.KillTier)
			}
			// The counterexample owns its storage: runs on the same
			// recycled scratch must not change its text.
			text := got.CE.Format()
			tc.dirty(t, cache, src, tgt)
			if got.CE.Format() != text {
				t.Fatalf("counterexample changed after its scratch was reused:\n%s\nvs\n%s", got.CE.Format(), text)
			}
		})
	}
}

// TestConcurrentVerifySharedCache runs one-shot Verify from 8 goroutines
// on one shared program cache, so pooled evaluators and checkers change
// hands between goroutines; every result must equal the sequential one
// (run under -race in CI).
func TestConcurrentVerifySharedCache(t *testing.T) {
	opts := Options{Seed: 6, Samples: 128}
	pairs := make([][2]*ir.Func, len(recycleCases))
	want := make([]Result, len(recycleCases))
	for i, tc := range recycleCases {
		pairs[i] = [2]*ir.Func{parser.MustParseFunc(tc.src), parser.MustParseFunc(tc.tgt)}
		want[i] = Verify(pairs[i][0], pairs[i][1], opts)
	}
	cached := opts
	cached.Programs = interp.NewCache()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(pairs); k++ {
				i := (g + k) % len(pairs)
				if diff := resultsEqual(Verify(pairs[i][0], pairs[i][1], cached), want[i]); diff != "" {
					errs <- recycleCases[i].name + ": " + diff
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestOneShotVerifySteadyStateAllocs bounds the bytes a one-shot Verify
// allocates on a warm program cache: evaluators and checker buffers are
// recycled, so what is left is the generator and the Result, not the
// per-call batch arenas (tens of KB each).
func TestOneShotVerifySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by the race runtime")
	}
	src := parser.MustParseFunc(`define i8 @src(i8 %x, i8 %y) {
  %r = call i8 @llvm.fshl.i8(i8 %x, i8 %x, i8 %y)
  ret i8 %r
}`)
	tgt := parser.MustParseFunc(`define i8 @tgt(i8 %x, i8 %y) {
  %n = sub i8 0, %y
  %r = call i8 @llvm.fshr.i8(i8 %x, i8 %x, i8 %n)
  ret i8 %r
}`)
	opts := Options{Seed: 1, Programs: interp.NewCache()}
	if r := Verify(src, tgt, opts); r.Verdict != Correct || !r.Exhaustive {
		t.Fatalf("rotate pair: verdict %v, exhaustive %v", r.Verdict, r.Exhaustive)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Verify(src, tgt, opts)
	}
	runtime.ReadMemStats(&after)
	// A garbage collection mid-loop empties the pools, so allow a rebuild
	// or two on top of the steady state.
	const budget = 4 << 10
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Fatalf("one-shot Verify allocates %d bytes per call on a warm cache, want <= %d", per, budget)
	}
}

// TestPackedExhaustiveSteadyStateAllocs bounds a warm exhaustive Verify on
// the packed tier at the one-shot checker's budget: the packed scratch is
// recycled with the evaluators, so neither the 1,024 groups of an i8 pair
// nor the 1,024 of an i16 rule allocate, and a 4-group i4 pair allocates
// the same as the i8 one.
func TestPackedExhaustiveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by the race runtime")
	}
	addSub := func(w int) (*ir.Func, *ir.Func) {
		return parser.MustParseFunc(fmt.Sprintf(`define i%[1]d @src(i%[1]d %%a0, i%[1]d %%a1) {
  %%s = add i%[1]d %%a0, %%a1
  %%r = sub i%[1]d %%s, %%a1
  ret i%[1]d %%r
}`, w)), parser.MustParseFunc(fmt.Sprintf(`define i%[1]d @tgt(i%[1]d %%a0, i%[1]d %%a1) {
  ret i%[1]d %%a0
}`, w))
	}
	rotSrc := parser.MustParseFunc(`define i16 @src(i16 %x) {
  %h = shl i16 %x, 4
  %l = lshr i16 %x, 12
  %r = or i16 %h, %l
  ret i16 %r
}`)
	rotTgt := parser.MustParseFunc(`define i16 @tgt(i16 %x) {
  %r = call i16 @llvm.fshl.i16(i16 %x, i16 %x, i16 4)
  ret i16 %r
}`)
	opts := Options{Seed: 1, Programs: interp.NewCache()}
	measure := func(src, tgt *ir.Func) (allocs float64, bytes uint64) {
		c := NewChecker(src, tgt, opts)
		packable := c.packable
		c.Release()
		if !packable {
			t.Fatalf("%s is not packable", src)
		}
		if r := Verify(src, tgt, opts); r.Verdict != Correct || !r.Exhaustive {
			t.Fatalf("verdict %v, exhaustive %v", r.Verdict, r.Exhaustive)
		}
		allocs = testing.AllocsPerRun(20, func() { Verify(src, tgt, opts) })
		const runs = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			Verify(src, tgt, opts)
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	// The one-shot budgets of TestOneShotVerifySteadyStateAllocs and
	// TestVerifySteadyStateAllocs; a collection mid-loop empties the pools,
	// so the byte budget leaves room for a rebuild.
	const maxAllocs, maxBytes = 200, 4 << 10
	wide, wideBytes := measure(addSub(8))
	narrow, _ := measure(addSub(4))
	rot, rotBytes := measure(rotSrc, rotTgt)
	t.Logf("i8: %.0f allocs, %d bytes; i4: %.0f allocs; i16 rotate: %.0f allocs, %d bytes",
		wide, wideBytes, narrow, rot, rotBytes)
	if wide != narrow {
		t.Fatalf("packed Verify allocates %.0f times over 1,024 groups but %.0f over 4: allocations grow with groups", wide, narrow)
	}
	for _, m := range []struct {
		name   string
		allocs float64
		bytes  uint64
	}{{"i8 add/sub", wide, wideBytes}, {"i16 rotate", rot, rotBytes}} {
		if m.allocs > maxAllocs || m.bytes > maxBytes {
			t.Fatalf("%s: warm packed Verify allocates %.0f times, %d bytes; want <= %d, <= %d",
				m.name, m.allocs, m.bytes, maxAllocs, maxBytes)
		}
	}
}
