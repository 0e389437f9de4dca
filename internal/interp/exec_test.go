package interp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/parser"
)

func run(t *testing.T, src string, env Env) Result {
	t.Helper()
	f, err := parser.ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Exec(f, env)
}

func TestClampPairAgreesOnConcreteInputs(t *testing.T) {
	srcIR := `define i8 @src(i32 %0) {
  %2 = icmp slt i32 %0, 0
  %3 = tail call i32 @llvm.umin.i32(i32 %0, i32 255)
  %4 = trunc nuw i32 %3 to i8
  %5 = select i1 %2, i8 0, i8 %4
  ret i8 %5
}`
	tgtIR := `define i8 @tgt(i32 %0) {
  %2 = tail call i32 @llvm.smax.i32(i32 %0, i32 0)
  %3 = tail call i32 @llvm.umin.i32(i32 %2, i32 255)
  %4 = trunc nuw i32 %3 to i8
  ret i8 %4
}`
	sf := parser.MustParseFunc(srcIR)
	tf := parser.MustParseFunc(tgtIR)
	for _, x := range []int64{-5, -1, 0, 1, 127, 128, 255, 256, 1000, -2147483648, 2147483647} {
		env := Env{Args: []RVal{Scalar(ir.I32, uint64(x))}}
		rs := Exec(sf, env)
		rt := Exec(tf, env)
		if rs.UB || rt.UB {
			t.Fatalf("unexpected UB at x=%d: src=%v tgt=%v", x, rs.UBReason, rt.UBReason)
		}
		if !rs.Ret.Equal(rt.Ret) {
			t.Fatalf("mismatch at x=%d: src=%s tgt=%s", x, rs.Ret.Format(), rt.Ret.Format())
		}
		want := x
		if want < 0 {
			want = 0
		}
		if want > 255 {
			want = 255
		}
		if got := int64(rs.Ret.Lanes[0].V); got != want {
			t.Fatalf("clamp(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestNUWAddPoison(t *testing.T) {
	src := `define i8 @f(i8 %x) {
  %r = add nuw i8 %x, 1
  ret i8 %r
}`
	r := run(t, src, Env{Args: []RVal{Scalar(ir.I8, 255)}})
	if r.UB || !r.Ret.Lanes[0].Poison {
		t.Fatalf("add nuw 255+1 should be poison, got %s", r.Ret.Format())
	}
	r = run(t, src, Env{Args: []RVal{Scalar(ir.I8, 254)}})
	if r.Ret.Lanes[0].Poison || r.Ret.Lanes[0].V != 255 {
		t.Fatalf("add nuw 254+1 should be 255, got %s", r.Ret.Format())
	}
}

func TestNSWOverflow(t *testing.T) {
	src := `define i8 @f(i8 %x, i8 %y) {
  %r = add nsw i8 %x, %y
  ret i8 %r
}`
	r := run(t, src, Env{Args: []RVal{Scalar(ir.I8, 127), Scalar(ir.I8, 1)}})
	if !r.Ret.Lanes[0].Poison {
		t.Fatal("127+1 nsw should be poison")
	}
	r = run(t, src, Env{Args: []RVal{Scalar(ir.I8, 0x80), Scalar(ir.I8, 0xFF)}})
	if !r.Ret.Lanes[0].Poison {
		t.Fatal("-128 + -1 nsw should be poison")
	}
	r = run(t, src, Env{Args: []RVal{Scalar(ir.I8, 0x80), Scalar(ir.I8, 1)}})
	if r.Ret.Lanes[0].Poison {
		t.Fatal("-128 + 1 nsw should not be poison")
	}
}

func TestDivisionUB(t *testing.T) {
	src := `define i32 @f(i32 %x, i32 %y) {
  %r = udiv i32 %x, %y
  ret i32 %r
}`
	r := run(t, src, Env{Args: []RVal{Scalar(ir.I32, 10), Scalar(ir.I32, 0)}})
	if !r.UB {
		t.Fatal("udiv by zero must be UB")
	}
	sdiv := `define i8 @f(i8 %x, i8 %y) {
  %r = sdiv i8 %x, %y
  ret i8 %r
}`
	r = run(t, sdiv, Env{Args: []RVal{Scalar(ir.I8, 0x80), Scalar(ir.I8, 0xFF)}})
	if !r.UB {
		t.Fatal("sdiv INT_MIN / -1 must be UB")
	}
}

func TestShiftOutOfRangePoison(t *testing.T) {
	src := `define i8 @f(i8 %x, i8 %s) {
  %r = shl i8 %x, %s
  ret i8 %r
}`
	r := run(t, src, Env{Args: []RVal{Scalar(ir.I8, 1), Scalar(ir.I8, 8)}})
	if !r.Ret.Lanes[0].Poison {
		t.Fatal("shl by >= bitwidth must be poison")
	}
}

func TestSelectPoisonCond(t *testing.T) {
	src := `define i32 @f(i32 %x) {
  %s = shl i32 %x, 40
  %c = trunc i32 %s to i1
  %r = select i1 %c, i32 1, i32 2
  ret i32 %r
}`
	r := run(t, src, Env{Args: []RVal{Scalar(ir.I32, 1)}})
	if !r.Ret.Lanes[0].Poison {
		t.Fatal("select on poison condition must be poison")
	}
}

func TestOrDisjointPoison(t *testing.T) {
	src := `define i8 @f(i8 %x, i8 %y) {
  %r = or disjoint i8 %x, %y
  ret i8 %r
}`
	r := run(t, src, Env{Args: []RVal{Scalar(ir.I8, 3), Scalar(ir.I8, 1)}})
	if !r.Ret.Lanes[0].Poison {
		t.Fatal("or disjoint with shared bits must be poison")
	}
	r = run(t, src, Env{Args: []RVal{Scalar(ir.I8, 0xF0), Scalar(ir.I8, 0x0F)}})
	if r.Ret.Lanes[0].Poison || r.Ret.Lanes[0].V != 0xFF {
		t.Fatalf("disjoint or of f0|0f should be ff, got %s", r.Ret.Format())
	}
}

func TestTruncNUWPoison(t *testing.T) {
	src := `define i8 @f(i32 %x) {
  %r = trunc nuw i32 %x to i8
  ret i8 %r
}`
	r := run(t, src, Env{Args: []RVal{Scalar(ir.I32, 256)}})
	if !r.Ret.Lanes[0].Poison {
		t.Fatal("trunc nuw dropping set bits must be poison")
	}
	r = run(t, src, Env{Args: []RVal{Scalar(ir.I32, 255)}})
	if r.Ret.Lanes[0].Poison || r.Ret.Lanes[0].V != 255 {
		t.Fatalf("trunc nuw 255 should be 255, got %s", r.Ret.Format())
	}
}

func TestFreezeStopsPoison(t *testing.T) {
	src := `define i8 @f(i8 %x) {
  %p = add nuw i8 %x, 1
  %fr = freeze i8 %p
  %r = add i8 %fr, 0
  ret i8 %r
}`
	r := run(t, src, Env{Args: []RVal{Scalar(ir.I8, 255)}})
	if r.Ret.Lanes[0].Poison {
		t.Fatal("freeze must stop poison propagation")
	}
}

func TestLoadMergePairAgree(t *testing.T) {
	srcIR := `define i32 @src(ptr %0) {
  %2 = load i16, ptr %0, align 2
  %3 = getelementptr i8, ptr %0, i64 2
  %4 = load i16, ptr %3, align 1
  %5 = zext i16 %4 to i32
  %6 = shl nuw i32 %5, 16
  %7 = zext i16 %2 to i32
  %8 = or disjoint i32 %6, %7
  ret i32 %8
}`
	tgtIR := `define i32 @tgt(ptr %0) {
  %2 = load i32, ptr %0, align 2
  ret i32 %2
}`
	sf := parser.MustParseFunc(srcIR)
	tf := parser.MustParseFunc(tgtIR)
	mem := NewMemory()
	reg := mem.AddRegion("arg0", 0x1000, 64)
	copy(reg.Data, []byte{0x78, 0x56, 0x34, 0x12})
	env := Env{Args: []RVal{Scalar(ir.Ptr, 0x1000)}, Mem: mem}
	rs := Exec(sf, Env{Args: env.Args, Mem: mem.Clone()})
	rt := Exec(tf, Env{Args: env.Args, Mem: mem.Clone()})
	if rs.UB || rt.UB {
		t.Fatalf("unexpected UB: %v / %v", rs.UBReason, rt.UBReason)
	}
	if rs.Ret.Lanes[0].V != 0x12345678 || !rs.Ret.Equal(rt.Ret) {
		t.Fatalf("got src=%s tgt=%s, want 0x12345678", rs.Ret.Format(), rt.Ret.Format())
	}
}

func TestOutOfBoundsLoadIsUB(t *testing.T) {
	src := `define i32 @f(ptr %p) {
  %g = getelementptr i8, ptr %p, i64 100
  %v = load i32, ptr %g
  ret i32 %v
}`
	mem := NewMemory()
	mem.AddRegion("arg0", 0x1000, 64)
	r := run(t, src, Env{Args: []RVal{Scalar(ir.Ptr, 0x1000)}, Mem: mem})
	if !r.UB {
		t.Fatal("out-of-bounds load must be UB")
	}
}

func TestInboundsGEPOutOfObjectIsPoison(t *testing.T) {
	src := `define ptr @f(ptr %p) {
  %g = getelementptr inbounds i8, ptr %p, i64 100
  ret ptr %g
}`
	mem := NewMemory()
	mem.AddRegion("arg0", 0x1000, 64)
	r := run(t, src, Env{Args: []RVal{Scalar(ir.Ptr, 0x1000)}, Mem: mem})
	if r.UB || !r.Ret.Lanes[0].Poison {
		t.Fatalf("inbounds gep out of object must be poison, got %s", r.Ret.Format())
	}
}

func TestStoreThenLoad(t *testing.T) {
	src := `define i16 @f(ptr %p, i16 %v) {
  store i16 %v, ptr %p, align 2
  %g = getelementptr i8, ptr %p, i64 0
  %r = load i16, ptr %g, align 2
  ret i16 %r
}`
	mem := NewMemory()
	mem.AddRegion("arg0", 0x2000, 64)
	r := run(t, src, Env{Args: []RVal{Scalar(ir.Ptr, 0x2000), Scalar(ir.I16, 0xBEEF)}, Mem: mem})
	if r.UB || r.Ret.Lanes[0].V != 0xBEEF {
		t.Fatalf("store/load roundtrip failed: %s (%s)", r.Ret.Format(), r.UBReason)
	}
}

func TestFcmpOrdSelectPairAgreeOnNaN(t *testing.T) {
	srcIR := `define i1 @src(double %0) {
  %2 = fcmp ord double %0, 0.000000e+00
  %3 = select i1 %2, double %0, double 0.000000e+00
  %4 = fcmp oeq double %3, 1.000000e+00
  ret i1 %4
}`
	tgtIR := `define i1 @tgt(double %0) {
  %2 = fcmp oeq double %0, 1.000000e+00
  ret i1 %2
}`
	sf := parser.MustParseFunc(srcIR)
	tf := parser.MustParseFunc(tgtIR)
	for _, f := range []float64{math.NaN(), 0, 1, -1, math.Inf(1), math.Inf(-1), 0.5} {
		env := Env{Args: []RVal{Scalar(ir.F64, math.Float64bits(f))}}
		rs := Exec(sf, env)
		rt := Exec(tf, env)
		if !rs.Ret.Equal(rt.Ret) {
			t.Fatalf("mismatch at %v: src=%s tgt=%s", f, rs.Ret.Format(), rt.Ret.Format())
		}
	}
}

func TestLoopExecution(t *testing.T) {
	src := `define i64 @sum(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %loop ]
  %acc.next = add i64 %acc, %i
  %i.next = add nuw i64 %i, 1
  %done = icmp eq i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}`
	r := run(t, src, Env{Args: []RVal{Scalar(ir.I64, 10)}})
	if r.UB || !r.Completed {
		t.Fatalf("loop failed: ub=%v reason=%s", r.UB, r.UBReason)
	}
	if r.Ret.Lanes[0].V != 45 { // 0+1+...+9
		t.Fatalf("sum(10) = %d, want 45", r.Ret.Lanes[0].V)
	}
	if r.DynInstrs < 40 {
		t.Fatalf("dynamic instruction count too low: %d", r.DynInstrs)
	}
}

func TestStepBudget(t *testing.T) {
	src := `define void @inf() {
entry:
  br label %loop
loop:
  br label %loop
}`
	f := parser.MustParseFunc(src)
	r := Exec(f, Env{MaxSteps: 1000})
	if r.Completed {
		t.Fatal("infinite loop should exhaust the step budget")
	}
}

// TestExecArgCountMismatch checks the argument-count error path: a call
// with the wrong number of arguments is UB with a reason naming both counts.
func TestExecArgCountMismatch(t *testing.T) {
	r := run(t, `define i8 @f(i8 %x) { ret i8 %x }`, Env{})
	if !r.UB || !r.Completed || r.UBReason != "argument count mismatch: have 0, want 1" {
		t.Fatalf("got %+v", r)
	}
}

func TestVectorOpsPerLane(t *testing.T) {
	src := `define <4 x i32> @f(<4 x i32> %v) {
  %c = icmp slt <4 x i32> %v, zeroinitializer
  %m = tail call <4 x i32> @llvm.umin.v4i32(<4 x i32> %v, <4 x i32> splat (i32 255))
  %r = select <4 x i1> %c, <4 x i32> zeroinitializer, <4 x i32> %m
  ret <4 x i32> %r
}`
	v := VecOf(ir.VecT(4, ir.I32), uint64(0xFFFFFFFF), 0, 100, 1000)
	r := run(t, src, Env{Args: []RVal{v}})
	want := []uint64{0, 0, 100, 255}
	for i, w := range want {
		if r.Ret.Lanes[i].V != w {
			t.Fatalf("lane %d = %d, want %d", i, r.Ret.Lanes[i].V, w)
		}
	}
}

func TestIntrinsics(t *testing.T) {
	cases := []struct {
		src  string
		args []RVal
		want uint64
	}{
		{`define i8 @f(i8 %x) { %r = call i8 @llvm.ctpop.i8(i8 %x) ret i8 %r }`,
			[]RVal{Scalar(ir.I8, 0xB7)}, 6},
		{`define i8 @f(i8 %x) { %r = call i8 @llvm.ctlz.i8(i8 %x, i1 false) ret i8 %r }`,
			[]RVal{Scalar(ir.I8, 0x10)}, 3},
		{`define i8 @f(i8 %x) { %r = call i8 @llvm.cttz.i8(i8 %x, i1 false) ret i8 %r }`,
			[]RVal{Scalar(ir.I8, 0x10)}, 4},
		{`define i8 @f(i8 %x) { %r = call i8 @llvm.abs.i8(i8 %x, i1 false) ret i8 %r }`,
			[]RVal{Scalar(ir.I8, 0xFB)}, 5},
		{`define i16 @f(i16 %x) { %r = call i16 @llvm.bswap.i16(i16 %x) ret i16 %r }`,
			[]RVal{Scalar(ir.I16, 0x1234)}, 0x3412},
		{`define i8 @f(i8 %x, i8 %y) { %r = call i8 @llvm.uadd.sat.i8(i8 %x, i8 %y) ret i8 %r }`,
			[]RVal{Scalar(ir.I8, 200), Scalar(ir.I8, 100)}, 255},
		{`define i8 @f(i8 %x, i8 %y) { %r = call i8 @llvm.sadd.sat.i8(i8 %x, i8 %y) ret i8 %r }`,
			[]RVal{Scalar(ir.I8, 100), Scalar(ir.I8, 100)}, 127},
		{`define i8 @f(i8 %a, i8 %b, i8 %s) { %r = call i8 @llvm.fshl.i8(i8 %a, i8 %b, i8 %s) ret i8 %r }`,
			[]RVal{Scalar(ir.I8, 0x81), Scalar(ir.I8, 0xFF), Scalar(ir.I8, 4)}, 0x1F},
	}
	for _, tc := range cases {
		r := run(t, tc.src, Env{Args: tc.args})
		if r.UB {
			t.Fatalf("%s: UB %s", tc.src, r.UBReason)
		}
		if r.Ret.Lanes[0].V != tc.want {
			t.Fatalf("%s = %d, want %d", tc.src, r.Ret.Lanes[0].V, tc.want)
		}
	}
}

func TestAbsIntMinPoisonFlag(t *testing.T) {
	src := `define i8 @f(i8 %x) { %r = call i8 @llvm.abs.i8(i8 %x, i1 true) ret i8 %r }`
	r := run(t, src, Env{Args: []RVal{Scalar(ir.I8, 0x80)}})
	if !r.Ret.Lanes[0].Poison {
		t.Fatal("abs(INT_MIN, true) must be poison")
	}
}

func TestBitcastRoundTripProperty(t *testing.T) {
	// bitcast i32 -> <4 x i8> -> i32 must be the identity.
	src := `define i32 @f(i32 %x) {
  %v = bitcast i32 %x to <4 x i8>
  %r = bitcast <4 x i8> %v to i32
  ret i32 %r
}`
	f := parser.MustParseFunc(src)
	prop := func(x uint32) bool {
		r := Exec(f, Env{Args: []RVal{Scalar(ir.I32, uint64(x))}})
		return !r.UB && r.Ret.Lanes[0].V == uint64(x)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFshlMatchesRotateProperty(t *testing.T) {
	// fshl(x, x, s) is rotate-left.
	src := `define i8 @f(i8 %x, i8 %s) { %r = call i8 @llvm.fshl.i8(i8 %x, i8 %x, i8 %s) ret i8 %r }`
	f := parser.MustParseFunc(src)
	prop := func(x uint8, s uint8) bool {
		r := Exec(f, Env{Args: []RVal{Scalar(ir.I8, uint64(x)), Scalar(ir.I8, uint64(s))}})
		sh := uint(s % 8)
		want := uint64(byte(x<<sh | x>>(8-sh)))
		if sh == 0 {
			want = uint64(x)
		}
		return !r.UB && r.Ret.Lanes[0].V == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUminUmaxProperties(t *testing.T) {
	src := `define i32 @f(i32 %x, i32 %y) {
  %a = call i32 @llvm.umin.i32(i32 %x, i32 %y)
  %b = call i32 @llvm.umax.i32(i32 %x, i32 %y)
  %r = add i32 %a, %b
  ret i32 %r
}`
	f := parser.MustParseFunc(src)
	prop := func(x, y uint32) bool {
		r := Exec(f, Env{Args: []RVal{Scalar(ir.I32, uint64(x)), Scalar(ir.I32, uint64(y))}})
		// min + max == x + y (mod 2^32)
		return !r.UB && uint32(r.Ret.Lanes[0].V) == x+y
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPoisonStoreLoadRoundTrip(t *testing.T) {
	src := `define i8 @f(ptr %p, i8 %x) {
  %pv = add nuw i8 %x, 1
  store i8 %pv, ptr %p
  %r = load i8, ptr %p
  ret i8 %r
}`
	mem := NewMemory()
	mem.AddRegion("arg0", 0x1000, 16)
	r := run(t, src, Env{Args: []RVal{Scalar(ir.Ptr, 0x1000), Scalar(ir.I8, 255)}, Mem: mem})
	if !r.Ret.Lanes[0].Poison {
		t.Fatal("loading stored poison must yield poison")
	}
}
