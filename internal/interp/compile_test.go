package interp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/parser"
)

// diffCases are functions chosen to exercise every execution construct the
// two engines implement: straight-line scalar and vector code, intrinsics,
// conversions, memory, control flow with phis and loops, and the runtime
// error paths (unbound values, unknown blocks, budget exhaustion).
var diffCases = []struct {
	name string
	src  string
}{
	{"clamp", `define i8 @f(i32 %0) {
  %2 = icmp slt i32 %0, 0
  %3 = tail call i32 @llvm.umin.i32(i32 %0, i32 255)
  %4 = trunc nuw i32 %3 to i8
  %5 = select i1 %2, i8 0, i8 %4
  ret i8 %5
}`},
	{"flags-poison", `define i8 @f(i8 %x, i8 %y) {
  %a = add nsw i8 %x, %y
  %b = shl nuw i8 %a, 2
  %c = or disjoint i8 %b, %y
  %d = sub nuw i8 %c, %x
  ret i8 %d
}`},
	{"division", `define i8 @f(i8 %x, i8 %y) {
  %d = sdiv i8 %x, %y
  %r = srem i8 %d, 3
  ret i8 %r
}`},
	{"intrinsics", `define i8 @f(i8 %x, i8 %y) {
  %a = call i8 @llvm.umax.i8(i8 %x, i8 %y)
  %b = call i8 @llvm.ctpop.i8(i8 %a)
  %c = call i8 @llvm.fshl.i8(i8 %b, i8 %x, i8 3)
  %d = call i8 @llvm.uadd.sat.i8(i8 %c, i8 %y)
  ret i8 %d
}`},
	{"float", `define i1 @f(double %x, double %y) {
  %a = fadd double %x, %y
  %m = call double @llvm.maxnum.f64(double %a, double %y)
  %c = fcmp ogt double %m, 1.000000e+00
  ret i1 %c
}`},
	{"conversions", `define i32 @f(i16 %x) {
  %a = sext i16 %x to i32
  %b = trunc nsw i32 %a to i8
  %c = zext nneg i8 %b to i32
  %d = xor i32 %a, %c
  ret i32 %d
}`},
	{"vector", `define <4 x i8> @f(<4 x i8> %v, <4 x i8> %w) {
  %a = add <4 x i8> %v, %w
  %s = shufflevector <4 x i8> %a, <4 x i8> %w, <4 x i32> <i32 0, i32 5, i32 2, i32 7>
  %e = extractelement <4 x i8> %s, i32 2
  %i = insertelement <4 x i8> %s, i8 %e, i32 0
  ret <4 x i8> %i
}`},
	{"bitcast", `define i32 @f(<4 x i8> %v) {
  %b = bitcast <4 x i8> %v to i32
  ret i32 %b
}`},
	{"memory", `define i16 @f(ptr %p, i8 %x) {
  store i8 %x, ptr %p
  %q = getelementptr i8, ptr %p, i64 1
  store i8 37, ptr %q
  %r = load i16, ptr %p, align 1
  ret i16 %r
}`},
	{"gep-inbounds", `define i8 @f(ptr %p, i64 %i) {
  %q = getelementptr inbounds i8, ptr %p, i64 %i
  %v = load i8, ptr %q
  ret i8 %v
}`},
	{"branch-phi", `define i8 @f(i8 %x) {
entry:
  %c = icmp sgt i8 %x, 10
  br i1 %c, label %big, label %small
big:
  %b = add i8 %x, 1
  br label %join
small:
  %s = sub i8 %x, 1
  br label %join
join:
  %r = phi i8 [ %b, %big ], [ %s, %small ]
  ret i8 %r
}`},
	{"loop", `define i8 @f(i8 %n) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %inext, %body ]
  %acc = phi i8 [ 0, %entry ], [ %anext, %body ]
  %c = icmp ult i8 %i, %n
  br i1 %c, label %body, label %done
body:
  %anext = add i8 %acc, %i
  %inext = add i8 %i, 1
  br label %head
done:
  ret i8 %acc
}`},
	{"branch-on-poison", `define i8 @f(i8 %x) {
entry:
  %p = add nuw i8 %x, 255
  %c = icmp eq i8 %p, 0
  br i1 %c, label %a, label %b
a:
  ret i8 1
b:
  ret i8 2
}`},
	{"unreachable", `define i8 @f(i8 %x) {
entry:
  %c = icmp eq i8 %x, 0
  br i1 %c, label %dead, label %live
dead:
  unreachable
live:
  ret i8 %x
}`},
	{"unbound-cross-block", `define i8 @f(i8 %x) {
entry:
  %c = icmp eq i8 %x, 0
  br i1 %c, label %use, label %def
def:
  %v = add i8 %x, 1
  br label %use
use:
  %r = add i8 %v, 2
  ret i8 %r
}`},
	{"void-store-only", `define void @f(ptr %p, i8 %x) {
  store i8 %x, ptr %p, align 1
  ret void
}`},
	{"dynamic-vector", `define <2 x i8> @f(i8 %x, <2 x i8> %v) {
  %a = add <2 x i8> %v, splat (i8 %x)
  %e = extractelement <2 x i8> %a, i32 1
  %b = udiv <2 x i8> <i8 %e, i8 poison>, <i8 %x, i8 7>
  ret <2 x i8> <i8 %e, i8 3>
}`},
	{"dynamic-vector-unbound", `define <2 x i8> @f(i8 %x) {
entry:
  %c = icmp ult i8 %x, 100
  br i1 %c, label %def, label %use
def:
  %v = add i8 %x, 1
  br label %use
use:
  %p = phi <2 x i8> [ <i8 %v, i8 %x>, %def ], [ splat (i8 %x), %entry ]
  %r = add <2 x i8> %p, <i8 %x, i8 %v>
  ret <2 x i8> %r
}`},
}

// runBoth executes f on equivalent fresh environments through Exec and a
// one-vector batch run of a compiled Evaluator and requires bit-identical
// results.
func runBoth(t *testing.T, f *ir.Func, ev *Evaluator, args []RVal, maxSteps int, label string) {
	t.Helper()
	mkEnv := func() Env {
		env := Env{MaxSteps: maxSteps}
		env.Args = make([]RVal, len(args))
		copy(env.Args, args)
		var mem *Memory
		for i, p := range f.Params {
			if ir.IsPtr(p.Ty) {
				if mem == nil {
					mem = NewMemory()
				}
				base := uint64(0x10000 + i*0x1000)
				r := mem.AddRegion(p.Nm, base, 32)
				for b := range r.Data {
					r.Data[b] = byte(b * 3)
				}
				env.Args[i] = Scalar(ir.Ptr, base)
			}
		}
		env.Mem = mem
		return env
	}
	e1, e2 := mkEnv(), mkEnv()
	r1 := Exec(f, e1)
	r2 := runColumns(ev, []Env{e2}, maxSteps)[0]
	if r1.UB != r2.UB || r1.UBReason != r2.UBReason ||
		r1.Completed != r2.Completed || r1.DynInstrs != r2.DynInstrs {
		t.Fatalf("%s: result mismatch\nexec:      %+v\nevaluator: %+v", label, r1, r2)
	}
	if !r1.UB && r1.Completed {
		if !r1.Ret.Equal(r2.Ret) {
			t.Fatalf("%s: return mismatch: exec %s vs evaluator %s", label, r1.Ret.Format(), r2.Ret.Format())
		}
	}
	if e1.Mem != nil {
		for ri := range e1.Mem.Regions {
			a, b := e1.Mem.Regions[ri], e2.Mem.Regions[ri]
			for bi := range a.Data {
				if a.Data[bi] != b.Data[bi] || a.Poison[bi] != b.Poison[bi] {
					t.Fatalf("%s: memory mismatch in %s at byte %d: exec %02x/%v vs evaluator %02x/%v",
						label, a.Name, bi, a.Data[bi], a.Poison[bi], b.Data[bi], b.Poison[bi])
				}
			}
		}
	}
}

func diffArgs(f *ir.Func, rng *rand.Rand, poisonMask int) []RVal {
	args := make([]RVal, len(f.Params))
	for i, p := range f.Params {
		if poisonMask&(1<<i) != 0 {
			args[i] = PoisonRV(p.Ty)
			continue
		}
		lanes := make([]Word, ir.Lanes(p.Ty))
		w := ir.ScalarBits(ir.Elem(p.Ty))
		for l := range lanes {
			lanes[l] = Word{V: rng.Uint64() & ir.MaskW(w)}
		}
		args[i] = RVal{Ty: p.Ty, Lanes: lanes}
	}
	return args
}

// TestCompiledEvaluatorMatchesExec is the engine-level differential: every
// construct case runs on corner vectors, random vectors and poison trials
// through both engines, asserting identical values, poison, UB reasons,
// step counts and final memory.
func TestCompiledEvaluatorMatchesExec(t *testing.T) {
	for _, tc := range diffCases {
		f, err := parser.ParseFunc(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		ev := NewEvaluator(Compile(f))
		rng := rand.New(rand.NewSource(99))
		// Corner values: all-zero, all-ones, small counters.
		for _, fillv := range []uint64{0, ^uint64(0), 1, 7, 10, 128} {
			args := make([]RVal, len(f.Params))
			for i, p := range f.Params {
				lanes := make([]Word, ir.Lanes(p.Ty))
				for l := range lanes {
					lanes[l] = Word{V: fillv & ir.MaskW(ir.ScalarBits(ir.Elem(p.Ty)))}
				}
				args[i] = RVal{Ty: p.Ty, Lanes: lanes}
			}
			runBoth(t, f, ev, args, 0, fmt.Sprintf("%s/corner=%d", tc.name, fillv))
		}
		// Random vectors.
		for k := 0; k < 64; k++ {
			runBoth(t, f, ev, diffArgs(f, rng, 0), 0, fmt.Sprintf("%s/rand=%d", tc.name, k))
		}
		// Poison trials, one per argument.
		for i := range f.Params {
			runBoth(t, f, ev, diffArgs(f, rng, 1<<i), 0, fmt.Sprintf("%s/poison=%d", tc.name, i))
		}
	}
}

// TestCompiledEvaluatorBudget checks that step-budget exhaustion is
// bit-identical (same Completed flag and DynInstrs at every budget).
func TestCompiledEvaluatorBudget(t *testing.T) {
	f := parser.MustParseFunc(`define i8 @f(i8 %n) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %inext, %head ]
  %inext = add i8 %i, 1
  %c = icmp ult i8 %inext, %n
  br i1 %c, label %head, label %done
done:
  ret i8 %inext
}`)
	ev := NewEvaluator(Compile(f))
	for budget := 1; budget < 40; budget++ {
		args := []RVal{Scalar(ir.I8, 9)}
		runBoth(t, f, ev, args, budget, fmt.Sprintf("budget=%d", budget))
	}
}

// TestCompiledEvaluatorFallback covers a dynamic vector constant built
// through the IR API: a constant vector referencing a parameter is resolved
// dynamically by the reference interpreter and gathered per lane by the
// compiled engine, with identical results.
func TestCompiledEvaluatorFallback(t *testing.T) {
	x := &ir.Param{Nm: "x", Ty: ir.I8}
	vec := ir.VecT(2, ir.I8)
	cv := &ir.ConstVec{Ty: vec, Elems: []ir.Value{x, ir.CInt(ir.I8, 3)}}
	v := &ir.Param{Nm: "v", Ty: vec}
	add := ir.Bin(ir.OpAdd, "r", ir.NoFlags, v, cv)
	f := ir.NewFunc("f", vec, []*ir.Param{x, v}, []*ir.Instr{add, ir.RetI(add)})
	ev := NewEvaluator(Compile(f))
	args := []RVal{Scalar(ir.I8, 5), VecOf(vec, 1, 2)}
	r1 := Exec(f, Env{Args: args})
	r2 := runColumns(ev, []Env{{Args: args}}, 0)[0]
	if diff := sameResult(r1, r2); diff != "" {
		t.Fatalf("dynamic vector constant: %s", diff)
	}
}

// TestCompiledStraightLineIsRecognized pins the fast path on the dominant
// window shape.
func TestCompiledStraightLineIsRecognized(t *testing.T) {
	f := parser.MustParseFunc(diffCases[0].src)
	if p := Compile(f); !p.straight {
		t.Fatal("single-block straight-line function should take the fast path")
	}
	g := parser.MustParseFunc(diffCases[10].src) // branch-phi
	if p := Compile(g); p.straight {
		t.Fatal("multi-block function must not take the fast path")
	}
}

// TestCacheSharesPrograms checks the hash-keyed program cache.
func TestCacheSharesPrograms(t *testing.T) {
	c := NewCache()
	f := parser.MustParseFunc(`define i8 @f(i8 %x) { %r = add i8 %x, 1 ret i8 %r }`)
	g := parser.MustParseFunc(`define i8 @g(i8 %x) { %r = add i8 %x, 1 ret i8 %r }`)
	p1, p2 := c.Program(f), c.Program(f)
	if p1 != p2 {
		t.Fatal("same function must share one program")
	}
	_ = c.Program(g)
	var nilCache *Cache
	if nilCache.Program(f) == nil {
		t.Fatal("nil cache must still compile")
	}
}

// TestEvaluatorRetLifetime documents that Ret aliases scratch until the next
// run and that Clone detaches it.
func TestEvaluatorRetLifetime(t *testing.T) {
	f := parser.MustParseFunc(`define i8 @f(i8 %x) { %r = add i8 %x, 1 ret i8 %r }`)
	ev := NewEvaluator(Compile(f))
	ev.ArgColumn(0)[0] = Word{V: 1}
	ev.RunBatchFilled(1, nil, 0)
	kept := ev.LaneResult(0).Ret.Clone()
	ev.ArgColumn(0)[0] = Word{V: 100}
	ev.RunBatchFilled(1, nil, 0)
	if kept.Lanes[0].V != 2 {
		t.Fatalf("cloned return mutated: %v", kept.Lanes[0])
	}
}
