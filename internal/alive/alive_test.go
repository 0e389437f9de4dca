package alive

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/parser"
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

func verify(t *testing.T, src, tgt string, opts Options) Result {
	t.Helper()
	sf := parser.MustParseFunc(src)
	tf := parser.MustParseFunc(tgt)
	return Verify(sf, tf, opts)
}

func TestClampTransformationVerifies(t *testing.T) {
	r := verify(t, clampSrc, clampTgt, Options{Seed: 1})
	if r.Verdict != Correct {
		msg := ""
		if r.CE != nil {
			msg = r.CE.Format()
		}
		t.Fatalf("expected Correct, got %v\n%s", r.Verdict, msg)
	}
	if r.Checked == 0 {
		t.Fatal("no inputs were checked")
	}
}

func TestBrokenClampIsRefuted(t *testing.T) {
	// Dropping the negative-input guard is wrong: x < 0 must clamp to 0,
	// but umin(x, 255) on a negative x yields 255.
	broken := `define i8 @tgt(i32 %0) {
  %3 = tail call i32 @llvm.umin.i32(i32 %0, i32 255)
  %4 = trunc nuw i32 %3 to i8
  ret i8 %4
}`
	r := verify(t, clampSrc, broken, Options{Seed: 1})
	if r.Verdict != Incorrect {
		t.Fatalf("expected Incorrect, got %v", r.Verdict)
	}
	msg := r.CE.Format()
	if !strings.Contains(msg, "Transformation doesn't verify!") {
		t.Fatalf("counterexample missing header:\n%s", msg)
	}
	if !strings.Contains(msg, "Source value:") || !strings.Contains(msg, "Target value:") {
		t.Fatalf("counterexample missing values:\n%s", msg)
	}
}

func TestTargetMorePoisonousIsRefuted(t *testing.T) {
	src := `define i8 @src(i8 %x, i8 %y) {
  %r = add i8 %x, %y
  ret i8 %r
}`
	tgt := `define i8 @tgt(i8 %x, i8 %y) {
  %r = add nsw i8 %x, %y
  ret i8 %r
}`
	r := verify(t, src, tgt, Options{Seed: 1})
	if r.Verdict != Incorrect {
		t.Fatalf("adding nsw must be refuted, got %v", r.Verdict)
	}
	if !r.Exhaustive {
		t.Fatal("16-bit input space should be checked exhaustively")
	}
}

func TestDroppingPoisonFlagIsAllowed(t *testing.T) {
	src := `define i8 @src(i8 %x, i8 %y) {
  %r = add nsw i8 %x, %y
  ret i8 %r
}`
	tgt := `define i8 @tgt(i8 %x, i8 %y) {
  %r = add i8 %x, %y
  ret i8 %r
}`
	r := verify(t, src, tgt, Options{Seed: 1})
	if r.Verdict != Correct {
		t.Fatalf("dropping nsw is a refinement, got %v\n%s", r.Verdict, r.CE.Format())
	}
}

func TestTargetUBIsRefuted(t *testing.T) {
	src := `define i8 @src(i8 %x) {
  %r = add i8 %x, 1
  ret i8 %r
}`
	tgt := `define i8 @tgt(i8 %x) {
  %d = udiv i8 1, %x
  %r = add i8 %x, 1
  ret i8 %r
}`
	r := verify(t, src, tgt, Options{Seed: 1})
	if r.Verdict != Incorrect {
		t.Fatalf("introducing division UB must be refuted, got %v", r.Verdict)
	}
	if !r.CE.TgtUB {
		t.Fatal("counterexample should flag target UB")
	}
	if !strings.Contains(r.CE.Format(), "target is undefined") {
		t.Fatalf("unexpected message:\n%s", r.CE.Format())
	}
}

func TestSignatureMismatch(t *testing.T) {
	src := `define i8 @src(i8 %x) { ret i8 %x }`
	tgt := `define i8 @tgt(i8 %x, i8 %y) { ret i8 %x }`
	r := verify(t, src, tgt, Options{})
	if r.Verdict != Unsupported || !strings.Contains(r.Err, "signature mismatch") {
		t.Fatalf("expected signature mismatch, got %v %q", r.Verdict, r.Err)
	}
	tgt2 := `define i16 @tgt(i8 %x) { %r = zext i8 %x to i16 ret i16 %r }`
	r = verify(t, src, tgt2, Options{})
	if r.Verdict != Unsupported || !strings.Contains(r.Err, "return type") {
		t.Fatalf("expected return type mismatch, got %v %q", r.Verdict, r.Err)
	}
}

func TestLoadMergeVerifies(t *testing.T) {
	src := `define i32 @src(ptr %0) {
  %2 = load i16, ptr %0, align 2
  %3 = getelementptr i8, ptr %0, i64 2
  %4 = load i16, ptr %3, align 1
  %5 = zext i16 %4 to i32
  %6 = shl nuw i32 %5, 16
  %7 = zext i16 %2 to i32
  %8 = or disjoint i32 %6, %7
  ret i32 %8
}`
	tgt := `define i32 @tgt(ptr %0) {
  %2 = load i32, ptr %0, align 2
  ret i32 %2
}`
	r := verify(t, src, tgt, Options{Seed: 2})
	if r.Verdict != Correct {
		t.Fatalf("load merge should verify, got %v\n%s", r.Verdict, r.CE.Format())
	}
}

func TestWrongLoadOffsetIsRefuted(t *testing.T) {
	src := `define i16 @src(ptr %0) {
  %2 = getelementptr i8, ptr %0, i64 2
  %3 = load i16, ptr %2, align 1
  ret i16 %3
}`
	tgt := `define i16 @tgt(ptr %0) {
  %2 = load i16, ptr %0, align 1
  ret i16 %2
}`
	r := verify(t, src, tgt, Options{Seed: 2})
	if r.Verdict != Incorrect {
		t.Fatalf("different load offsets must be refuted, got %v", r.Verdict)
	}
}

func TestStoreRefinement(t *testing.T) {
	src := `define void @src(ptr %p, i8 %x) {
  %d = shl i8 %x, 1
  store i8 %d, ptr %p
  ret void
}`
	good := `define void @tgt(ptr %p, i8 %x) {
  %d = add i8 %x, %x
  store i8 %d, ptr %p
  ret void
}`
	bad := `define void @tgt(ptr %p, i8 %x) {
  %d = shl i8 %x, 2
  store i8 %d, ptr %p
  ret void
}`
	if r := verify(t, src, good, Options{Seed: 3}); r.Verdict != Correct {
		t.Fatalf("x*2 == x+x on stores, got %v\n%s", r.Verdict, r.CE.Format())
	}
	r := verify(t, src, bad, Options{Seed: 3})
	if r.Verdict != Incorrect {
		t.Fatalf("different stored bytes must be refuted, got %v", r.Verdict)
	}
	if !strings.Contains(r.CE.Format(), "memory") {
		t.Fatalf("memory mismatch should be reported:\n%s", r.CE.Format())
	}
}

func TestUmaxChainVerifies(t *testing.T) {
	src := `define i8 @src(i8 %0) {
  %2 = call i8 @llvm.umax.i8(i8 %0, i8 1)
  %3 = shl nuw i8 %2, 1
  %4 = call i8 @llvm.umax.i8(i8 %3, i8 16)
  ret i8 %4
}`
	tgt := `define i8 @tgt(i8 %0) {
  %2 = shl nuw i8 %0, 1
  %3 = call i8 @llvm.umax.i8(i8 %2, i8 16)
  ret i8 %3
}`
	r := verify(t, src, tgt, Options{Seed: 4})
	if r.Verdict != Correct {
		t.Fatalf("umax chain should verify, got %v\n%s", r.Verdict, r.CE.Format())
	}
	if !r.Exhaustive {
		t.Fatal("8-bit input should be exhaustive")
	}
}

func TestFcmpOrdSelectVerifies(t *testing.T) {
	src := `define i1 @src(double %0) {
  %2 = fcmp ord double %0, 0.000000e+00
  %3 = select i1 %2, double %0, double 0.000000e+00
  %4 = fcmp oeq double %3, 1.000000e+00
  ret i1 %4
}`
	tgt := `define i1 @tgt(double %0) {
  %2 = fcmp oeq double %0, 1.000000e+00
  ret i1 %2
}`
	r := verify(t, src, tgt, Options{Seed: 5})
	if r.Verdict != Correct {
		t.Fatalf("fcmp-ord-select should verify, got %v\n%s", r.Verdict, r.CE.Format())
	}
}

func TestFcmpOrdSelectZeroConstantIsRefuted(t *testing.T) {
	// With C == 0.0 the rewrite is wrong: NaN input gives true in src
	// (select yields 0.0, 0.0 == 0.0) but false in tgt (NaN == 0.0).
	src := `define i1 @src(double %0) {
  %2 = fcmp ord double %0, 0.000000e+00
  %3 = select i1 %2, double %0, double 0.000000e+00
  %4 = fcmp oeq double %3, 0.000000e+00
  ret i1 %4
}`
	tgt := `define i1 @tgt(double %0) {
  %2 = fcmp oeq double %0, 0.000000e+00
  ret i1 %2
}`
	r := verify(t, src, tgt, Options{Seed: 5})
	if r.Verdict != Incorrect {
		t.Fatalf("C==0 variant must be refuted (NaN), got %v", r.Verdict)
	}
}

func TestRefinementIsReflexive(t *testing.T) {
	for _, src := range []string{
		clampSrc,
		`define i8 @f(i8 %x) { %r = add nsw i8 %x, 1 ret i8 %r }`,
		`define <4 x i32> @f(<4 x i32> %v) { %r = add <4 x i32> %v, %v ret <4 x i32> %r }`,
		`define i1 @f(double %x) { %r = fcmp ord double %x, 1.000000e+00 ret i1 %r }`,
	} {
		f := parser.MustParseFunc(src)
		r := Verify(f, ir.CloneFunc(f), Options{Seed: 6, Samples: 512})
		if r.Verdict != Correct {
			t.Fatalf("function should refine itself:\n%s\n%s", src, r.CE.Format())
		}
	}
}

// The optimizer's output must always refine its input: this couples the two
// substrates the way InstCombine and Alive2 are coupled in LLVM's workflow.
func TestOptimizerOutputRefinesInput(t *testing.T) {
	srcs := []string{
		`define i8 @f(i8 %x) { %a = add i8 %x, 10 %b = add i8 %a, 20 ret i8 %b }`,
		`define i8 @f(i8 %x) { %a = mul nsw i8 %x, 8 ret i8 %a }`,
		`define i8 @f(i8 %x) { %a = sub i8 %x, 5 ret i8 %a }`,
		`define i8 @f(i8 %x) { %c = icmp sgt i8 %x, 0 %r = select i1 %c, i8 %x, i8 0 ret i8 %r }`,
		`define i8 @f(i8 %x) { %a = call i8 @llvm.umin.i8(i8 %x, i8 100) %b = call i8 @llvm.umin.i8(i8 %a, i8 50) ret i8 %b }`,
		`define i8 @f(i8 %x) { %a = udiv i8 %x, 8 ret i8 %a }`,
		`define i8 @f(i8 %x) { %a = urem i8 %x, 16 ret i8 %a }`,
		`define i8 @f(i8 %x) { %t = trunc i8 %x to i4 %z = zext i4 %t to i8 ret i8 %z }`,
		`define i8 @f(i8 %x, i8 %y) { %a = xor i8 %x, %y %b = xor i8 %a, %y ret i8 %b }`,
		`define i1 @f(i8 %x) { %c = icmp ult i8 %x, 0 ret i1 %c }`,
	}
	for _, src := range srcs {
		f := parser.MustParseFunc(src)
		g := opt.RunO3(f)
		r := Verify(f, g, Options{Seed: 7})
		if r.Verdict != Correct {
			t.Fatalf("optimizer broke refinement:\noriginal:\n%s\noptimized:\n%s\n%s",
				f, g, r.CE.Format())
		}
	}
}

// Patched optimizations must also refine, exhaustively at 8 bits.
func TestPatchedOptimizerRefines(t *testing.T) {
	cases := map[string]string{
		"157371": `define i8 @f(i8 %x) { %n = xor i8 %x, -1 %r = add i8 %n, 1 ret i8 %r }`,
		"163108": `define i8 @f(i8 %x) { %s = ashr i8 %x, 7 %r = and i8 %s, %x ret i8 %r }`,
		"143211": `define i8 @f(i8 %x) { %a = shl i8 %x, 3 %b = lshr i8 %a, 3 ret i8 %b }`,
		"154238": `define i8 @f(i1 %c) { %r = select i1 %c, i8 1, i8 0 ret i8 %r }`,
		"157370": `define i8 @f(i8 %x) { %a = shl i8 %x, 4 %b = ashr i8 %a, 4 ret i8 %b }`,
		"157524": `define i8 @f(i8 %x) { %n = sub i8 0, %x %r = xor i8 %n, -1 ret i8 %r }`,
		"166973": `define i8 @f(i8 %x) { %a = lshr i8 %x, 3 %b = shl i8 %a, 3 ret i8 %b }`,
		"142674": `define i8 @f(i8 %x) { %a = and i8 %x, -16 %b = and i8 %x, 15 %r = or i8 %a, %b ret i8 %r }`,
	}
	for patch, src := range cases {
		f := parser.MustParseFunc(src)
		g := opt.Run(f, opt.Options{Rules: opt.NewRuleSet(patch)})
		r := Verify(f, g, Options{Seed: 8})
		if r.Verdict != Correct {
			t.Fatalf("patch %s broke refinement:\noriginal:\n%s\npatched:\n%s\n%s",
				patch, f, g, r.CE.Format())
		}
	}
}
