package opt

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
)

func optimize(t *testing.T, src string, opts Options) *ir.Func {
	t.Helper()
	f, err := parser.ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g := Run(f, opts)
	if err := ir.VerifyFunc(g); err != nil {
		t.Fatalf("optimized function does not verify: %v\n%s", err, g)
	}
	return g
}

func TestConstantFolding(t *testing.T) {
	g := optimize(t, `define i32 @f() {
  %a = add i32 2, 3
  %b = mul i32 %a, 4
  %c = shl i32 %b, 1
  ret i32 %c
}`, Options{})
	if n := g.NumInstrs(true); n != 0 {
		t.Fatalf("expected full folding, %d instrs remain:\n%s", n, g)
	}
	ret := g.Entry().Terminator()
	if c, ok := ret.Args[0].(*ir.ConstInt); !ok || c.V != 40 {
		t.Fatalf("expected ret i32 40, got %s", ret)
	}
}

func TestIdentitySimplifications(t *testing.T) {
	cases := []struct{ name, src string }{
		{"add0", `define i32 @f(i32 %x) { %r = add i32 %x, 0 ret i32 %r }`},
		{"mul1", `define i32 @f(i32 %x) { %r = mul i32 %x, 1 ret i32 %r }`},
		{"and-1", `define i32 @f(i32 %x) { %r = and i32 %x, -1 ret i32 %r }`},
		{"or0", `define i32 @f(i32 %x) { %r = or i32 %x, 0 ret i32 %r }`},
		{"xor0", `define i32 @f(i32 %x) { %r = xor i32 %x, 0 ret i32 %r }`},
		{"shl0", `define i32 @f(i32 %x) { %r = shl i32 %x, 0 ret i32 %r }`},
		{"udiv1", `define i32 @f(i32 %x) { %r = udiv i32 %x, 1 ret i32 %r }`},
		{"sub0", `define i32 @f(i32 %x) { %r = sub i32 %x, 0 ret i32 %r }`},
		{"selSame", `define i32 @f(i1 %c, i32 %x) { %r = select i1 %c, i32 %x, i32 %x ret i32 %r }`},
		{"uminMax", `define i8 @f(i8 %x) { %r = call i8 @llvm.umin.i8(i8 %x, i8 -1) ret i8 %r }`},
		{"umax0", `define i8 @f(i8 %x) { %r = call i8 @llvm.umax.i8(i8 %x, i8 0) ret i8 %r }`},
		{"freezeFreeze", `define i8 @f(i8 %x) { %a = freeze i8 %x %b = freeze i8 %a ret i8 %b }`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := optimize(t, tc.src, Options{})
			if n := g.NumInstrs(true); n > 1 {
				t.Fatalf("expected at most one instruction, got %d:\n%s", n, g)
			}
		})
	}
}

func TestXorChainCancels(t *testing.T) {
	g := optimize(t, `define i32 @f(i32 %x) {
  %a = xor i32 %x, 1234
  %b = xor i32 %a, 1234
  ret i32 %b
}`, Options{})
	if n := g.NumInstrs(true); n != 0 {
		t.Fatalf("xor chain should cancel, got:\n%s", g)
	}
}

func TestCanonicalizeConstantRHS(t *testing.T) {
	g := optimize(t, `define i32 @f(i32 %x) {
  %r = add i32 7, %x
  ret i32 %r
}`, Options{})
	in := g.Entry().Instrs[0]
	if ir.IsConst(in.Args[0]) || !ir.IsConst(in.Args[1]) {
		t.Fatalf("constant should be canonicalized to RHS: %s", in)
	}
}

func TestSubToAdd(t *testing.T) {
	g := optimize(t, `define i32 @f(i32 %x) {
  %r = sub i32 %x, 5
  ret i32 %r
}`, Options{})
	in := g.Entry().Instrs[0]
	if in.Op != ir.OpAdd {
		t.Fatalf("sub x, c should canonicalize to add: %s", in)
	}
	if c, ok := constIntOf(in.Args[1]); !ok || ir.SignExt(c, 32) != -5 {
		t.Fatalf("expected add %%x, -5, got %s", in)
	}
}

func TestMulPow2ToShl(t *testing.T) {
	g := optimize(t, `define i32 @f(i32 %x) {
  %r = mul nsw i32 %x, 8
  ret i32 %r
}`, Options{})
	in := g.Entry().Instrs[0]
	if in.Op != ir.OpShl {
		t.Fatalf("mul by 8 should become shl: %s", in)
	}
	if c, _ := constIntOf(in.Args[1]); c != 3 {
		t.Fatalf("expected shift by 3, got %s", in)
	}
}

func TestAddChainReassociates(t *testing.T) {
	g := optimize(t, `define i32 @f(i32 %x) {
  %a = add i32 %x, 10
  %b = add i32 %a, 20
  ret i32 %b
}`, Options{})
	if n := g.NumInstrs(true); n != 1 {
		t.Fatalf("add chain should fuse, got:\n%s", g)
	}
	if c, _ := constIntOf(g.Entry().Instrs[0].Args[1]); c != 30 {
		t.Fatalf("expected add %%x, 30:\n%s", g)
	}
}

func TestMinMaxChainCompresses(t *testing.T) {
	g := optimize(t, `define i32 @f(i32 %x) {
  %a = call i32 @llvm.umin.i32(i32 %x, i32 100)
  %b = call i32 @llvm.umin.i32(i32 %a, i32 50)
  ret i32 %b
}`, Options{})
	if n := g.NumInstrs(true); n != 1 {
		t.Fatalf("umin chain should compress:\n%s", g)
	}
	if c, _ := constIntOf(g.Entry().Instrs[0].Args[1]); c != 50 {
		t.Fatalf("expected umin(x, 50):\n%s", g)
	}
}

func TestSelectCanonicalizesToSmax(t *testing.T) {
	g := optimize(t, `define i32 @f(i32 %x) {
  %c = icmp sgt i32 %x, 0
  %r = select i1 %c, i32 %x, i32 0
  ret i32 %r
}`, Options{})
	if n := g.NumInstrs(true); n != 1 {
		t.Fatalf("expected one instruction:\n%s", g)
	}
	in := g.Entry().Instrs[0]
	if in.Op != ir.OpCall || ir.IntrinsicBase(in.Callee) != "smax" {
		t.Fatalf("expected smax canonicalization, got %s", in)
	}
}

func TestDCE(t *testing.T) {
	g := optimize(t, `define i32 @f(i32 %x) {
  %dead = mul i32 %x, %x
  %dead2 = add i32 %dead, 3
  %r = add i32 %x, 1
  ret i32 %r
}`, Options{})
	if n := g.NumInstrs(true); n != 1 {
		t.Fatalf("dead code should be removed:\n%s", g)
	}
}

func TestDivByZeroNotFolded(t *testing.T) {
	g := optimize(t, `define i32 @f() {
  %r = udiv i32 10, 0
  ret i32 %r
}`, Options{})
	if n := g.NumInstrs(true); n != 1 {
		t.Fatalf("udiv by zero must be preserved:\n%s", g)
	}
}

// The paper's suboptimal functions must remain unoptimized by the baseline
// pipeline: they are the missed optimizations LPO is supposed to find.
func TestBaselineMissesPaperPatterns(t *testing.T) {
	cases := []struct {
		name, src string
		instrs    int // expected surviving instruction count (excluding ret)
	}{
		{"fig1b-clamp", `define i8 @src(i32 %0) {
  %2 = icmp slt i32 %0, 0
  %3 = tail call i32 @llvm.umin.i32(i32 %0, i32 255)
  %4 = trunc nuw i32 %3 to i8
  %5 = select i1 %2, i8 0, i8 %4
  ret i8 %5
}`, 4},
		{"fig4a-loadmerge", `define i32 @src(ptr %0) {
  %2 = load i16, ptr %0, align 2
  %3 = getelementptr i8, ptr %0, i64 2
  %4 = load i16, ptr %3, align 1
  %5 = zext i16 %4 to i32
  %6 = shl nuw i32 %5, 16
  %7 = zext i16 %2 to i32
  %8 = or disjoint i32 %6, %7
  ret i32 %8
}`, 7},
		{"fig4b-umaxchain", `define i8 @src(i8 %0) {
  %2 = call i8 @llvm.umax.i8(i8 %0, i8 1)
  %3 = shl nuw i8 %2, 1
  %4 = call i8 @llvm.umax.i8(i8 %3, i8 16)
  ret i8 %4
}`, 3},
		{"fig4c-fcmpord", `define i1 @src(double %0) {
  %2 = fcmp ord double %0, 0.000000e+00
  %3 = select i1 %2, double %0, double 0.000000e+00
  %4 = fcmp oeq double %3, 1.000000e+00
  ret i1 %4
}`, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := optimize(t, tc.src, Options{})
			if n := g.NumInstrs(true); n != tc.instrs {
				t.Fatalf("baseline changed the function (want %d instrs, got %d):\n%s",
					tc.instrs, n, g)
			}
		})
	}
}

// With the corresponding patch enabled, each paper pattern optimizes to the
// paper's target shape.
func TestPatchesFixPaperPatterns(t *testing.T) {
	cases := []struct {
		name, patch, src string
		maxInstrs        int
		wantSubstr       string
	}{
		{"clamp", "143636", `define i8 @src(i32 %0) {
  %2 = icmp slt i32 %0, 0
  %3 = tail call i32 @llvm.umin.i32(i32 %0, i32 255)
  %4 = trunc nuw i32 %3 to i8
  %5 = select i1 %2, i8 0, i8 %4
  ret i8 %5
}`, 3, "llvm.smax.i32"},
		{"loadmerge", "128134", `define i32 @src(ptr %0) {
  %2 = load i16, ptr %0, align 2
  %3 = getelementptr i8, ptr %0, i64 2
  %4 = load i16, ptr %3, align 1
  %5 = zext i16 %4 to i32
  %6 = shl nuw i32 %5, 16
  %7 = zext i16 %2 to i32
  %8 = or disjoint i32 %6, %7
  ret i32 %8
}`, 1, "load i32, ptr %0"},
		{"umaxchain", "142711", `define i8 @src(i8 %0) {
  %2 = call i8 @llvm.umax.i8(i8 %0, i8 1)
  %3 = shl nuw i8 %2, 1
  %4 = call i8 @llvm.umax.i8(i8 %3, i8 16)
  ret i8 %4
}`, 2, "llvm.umax.i8"},
		{"fcmpord", "133367", `define i1 @src(double %0) {
  %2 = fcmp ord double %0, 0.000000e+00
  %3 = select i1 %2, double %0, double 0.000000e+00
  %4 = fcmp oeq double %3, 1.000000e+00
  ret i1 %4
}`, 1, "fcmp oeq double %0"},
		{"negxor", "157371", `define i32 @f(i32 %x) {
  %n = xor i32 %x, -1
  %r = add i32 %n, 1
  ret i32 %r
}`, 1, "sub i32 0, %x"},
		{"andashr", "163108", `define i32 @f(i32 %x) {
  %s = ashr i32 %x, 31
  %r = and i32 %s, %x
  ret i32 %r
}`, 1, "llvm.smin.i32"},
		{"absorption", "163108", `define i32 @f(i32 %x, i32 %y) {
  %a = and i32 %x, %y
  %r = or i32 %a, %x
  ret i32 %r
}`, 0, "ret i32 %x"},
		{"complmask", "142674", `define i32 @f(i32 %x) {
  %a = and i32 %x, -16
  %b = and i32 %x, 15
  %r = or i32 %a, %b
  ret i32 %r
}`, 0, "ret i32 %x"},
		{"lshrshl", "143211", `define i32 @f(i32 %x) {
  %a = shl i32 %x, 8
  %b = lshr i32 %a, 8
  ret i32 %b
}`, 1, "and i32 %x, 16777215"},
		{"selzeroone", "154238", `define i32 @f(i1 %c) {
  %r = select i1 %c, i32 1, i32 0
  ret i32 %r
}`, 1, "zext i1 %c to i32"},
		{"uminzext", "157315", `define i32 @f(i8 %x) {
  %z = zext i8 %x to i32
  %r = call i32 @llvm.umin.i32(i32 %z, i32 255)
  ret i32 %r
}`, 1, "zext i8 %x to i32"},
		{"ashrshl", "157370", `define i32 @f(i32 %x) {
  %a = shl i32 %x, 24
  %b = ashr i32 %a, 24
  ret i32 %b
}`, 2, "sext i8"},
		{"mulminus1", "157371", `define i32 @f(i32 %x) {
  %r = mul i32 %x, -1
  ret i32 %r
}`, 1, "sub i32 0, %x"},
		{"xorneg", "157524", `define i32 @f(i32 %x) {
  %n = sub i32 0, %x
  %r = xor i32 %n, -1
  ret i32 %r
}`, 1, "add i32 %x, -1"},
		{"shllshr", "166973", `define i32 @f(i32 %x) {
  %a = lshr i32 %x, 8
  %b = shl i32 %a, 8
  ret i32 %b
}`, 1, "and i32 %x, -256"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := optimize(t, tc.src, Options{Rules: NewRuleSet(tc.patch)})
			if n := g.NumInstrs(true); n > tc.maxInstrs {
				t.Fatalf("patch %s did not fire (want <= %d instrs, got %d):\n%s",
					tc.patch, tc.maxInstrs, n, g)
			}
			if !strings.Contains(g.String(), tc.wantSubstr) {
				t.Fatalf("patched output missing %q:\n%s", tc.wantSubstr, g)
			}
		})
	}
}

// Patched results must agree with the original on concrete inputs.
func TestPatchesPreserveSemantics(t *testing.T) {
	srcs := map[string]string{
		"143636": `define i8 @src(i32 %0) {
  %2 = icmp slt i32 %0, 0
  %3 = tail call i32 @llvm.umin.i32(i32 %0, i32 255)
  %4 = trunc nuw i32 %3 to i8
  %5 = select i1 %2, i8 0, i8 %4
  ret i8 %5
}`,
		"142674": `define i8 @src(i8 %0) {
  %2 = call i8 @llvm.umax.i8(i8 %0, i8 1)
  %3 = shl nuw i8 %2, 1
  %4 = call i8 @llvm.umax.i8(i8 %3, i8 16)
  ret i8 %4
}`,
		"142711": `define i8 @f(i8 %x) {
  %s = ashr i8 %x, 7
  %r = and i8 %s, %x
  ret i8 %r
}`,
		"143211": `define i8 @f(i8 %x) {
  %a = shl i8 %x, 3
  %b = lshr i8 %a, 3
  ret i8 %b
}`,
		"157370": `define i8 @f(i8 %x) {
  %a = shl i8 %x, 4
  %b = ashr i8 %a, 4
  ret i8 %b
}`,
		"157524": `define i8 @f(i8 %x) {
  %n = sub i8 0, %x
  %r = xor i8 %n, -1
  ret i8 %r
}`,
		"166973": `define i8 @f(i8 %x) {
  %a = shl i8 %x, 3
  %b = lshr i8 %x, 5
  %r = or i8 %a, %b
  ret i8 %r
}`,
	}
	for patch, src := range srcs {
		t.Run(patch, func(t *testing.T) {
			f := parser.MustParseFunc(src)
			g := Run(f, Options{Rules: NewRuleSet(patch)})
			// Exhaustive check over the 8-bit (or sampled 32-bit) domain.
			w := ir.ScalarBits(f.Params[0].Ty)
			var inputs []uint64
			if w <= 8 {
				for v := uint64(0); v <= ir.MaskW(w); v++ {
					inputs = append(inputs, v)
				}
			} else {
				inputs = []uint64{0, 1, 2, 127, 128, 255, 256, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF}
			}
			for _, v := range inputs {
				env := interp.Env{Args: []interp.RVal{interp.Scalar(f.Params[0].Ty, v)}}
				r1 := interp.Exec(f, env)
				r2 := interp.Exec(g, env)
				if r1.UB {
					continue // tgt may do anything
				}
				if r2.UB {
					t.Fatalf("input %d: patched function introduced UB: %s", v, r2.UBReason)
				}
				for i := range r1.Ret.Lanes {
					if r1.Ret.Lanes[i].Poison {
						continue // tgt lane unconstrained
					}
					if r2.Ret.Lanes[i].Poison || r2.Ret.Lanes[i].V != r1.Ret.Lanes[i].V {
						t.Fatalf("input %d: %s != %s\noriginal:\n%s\npatched:\n%s",
							v, r1.Ret.Format(), r2.Ret.Format(), f, g)
					}
				}
			}
		})
	}
}

func TestVectorClampPatch(t *testing.T) {
	src := `define <4 x i8> @src(<4 x i32> %v) {
  %c = icmp slt <4 x i32> %v, zeroinitializer
  %m = tail call <4 x i32> @llvm.umin.v4i32(<4 x i32> %v, <4 x i32> splat (i32 255))
  %t = trunc nuw <4 x i32> %m to <4 x i8>
  %r = select <4 x i1> %c, <4 x i8> zeroinitializer, <4 x i8> %t
  ret <4 x i8> %r
}`
	g := optimize(t, src, Options{Rules: NewRuleSet("143636")})
	if !strings.Contains(g.String(), "llvm.smax.v4i32") {
		t.Fatalf("vector clamp patch did not fire:\n%s", g)
	}
}

func TestOptimizerIsIdempotent(t *testing.T) {
	srcs := []string{
		`define i32 @f(i32 %x) { %a = add i32 %x, 10 %b = add i32 %a, 20 ret i32 %b }`,
		`define i8 @f(i8 %x) { %a = call i8 @llvm.umin.i8(i8 %x, i8 100) %b = call i8 @llvm.umin.i8(i8 %a, i8 50) ret i8 %b }`,
		`define i32 @f(i32 %x) { %c = icmp sgt i32 %x, 0 %r = select i1 %c, i32 %x, i32 0 ret i32 %r }`,
	}
	for _, src := range srcs {
		f := parser.MustParseFunc(src)
		g1 := RunO3(f)
		g2 := RunO3(g1)
		if ir.Hash(g1) != ir.Hash(g2) {
			t.Fatalf("optimizer not idempotent:\nfirst:\n%s\nsecond:\n%s", g1, g2)
		}
	}
}
