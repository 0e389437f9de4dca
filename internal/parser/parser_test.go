package parser

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

// The verbatim IR functions from the paper's figures.
var paperFuncs = map[string]string{
	"fig1b": `define i8 @src(i32 %0) {
  %2 = icmp slt i32 %0, 0
  %3 = tail call i32 @llvm.umin.i32(i32 %0, i32 255)
  %4 = trunc nuw i32 %3 to i8
  %5 = select i1 %2, i8 0, i8 %4
  ret i8 %5
}`,
	"fig1c": `define i8 @tgt(i32 %0) {
  %2 = tail call i32 @llvm.smax.i32(i32 %0, i32 0)
  %3 = tail call i32 @llvm.umin.i32(i32 %2, i32 255)
  %4 = trunc nuw i32 %3 to i8
  ret i8 %4
}`,
	"fig3a": `define <4 x i8> @src(i64 %a0, ptr %a1) {
entry:
  %0 = getelementptr inbounds nuw i32, ptr %a1, i64 %a0
  %wide.load = load <4 x i32>, ptr %0, align 4
  %3 = icmp slt <4 x i32> %wide.load, zeroinitializer
  %5 = tail call <4 x i32> @llvm.umin.v4i32(<4 x i32> %wide.load, <4 x i32> splat (i32 255))
  %7 = trunc nuw <4 x i32> %5 to <4 x i8>
  %9 = select <4 x i1> %3, <4 x i8> zeroinitializer, <4 x i8> %7
  ret <4 x i8> %9
}`,
	"fig3d": `define <4 x i8> @src(i64 %a0, ptr %a1) {
entry:
  %0 = getelementptr inbounds nuw i32, ptr %a1, i64 %a0
  %wide.load = load <4 x i32>, ptr %0, align 4
  %smax_val = tail call <4 x i32> @llvm.smax.v4i32(<4 x i32> %wide.load, <4 x i32> zeroinitializer)
  %smin_val = tail call <4 x i32> @llvm.smin.v4i32(<4 x i32> %smax_val, <4 x i32> splat (i32 255))
  %result = trunc nuw <4 x i32> %smin_val to <4 x i8>
  ret <4 x i8> %result
}`,
	"fig4a": `define i32 @src(ptr %0) {
  %2 = load i16, ptr %0, align 2
  %3 = getelementptr i8, ptr %0, i64 2
  %4 = load i16, ptr %3, align 1
  %5 = zext i16 %4 to i32
  %6 = shl nuw i32 %5, 16
  %7 = zext i16 %2 to i32
  %8 = or disjoint i32 %6, %7
  ret i32 %8
}`,
	"fig4b": `define i8 @src(i8 %0) {
  %2 = call i8 @llvm.umax.i8(i8 %0, i8 1)
  %3 = shl nuw i8 %2, 1
  %4 = call i8 @llvm.umax.i8(i8 %3, i8 16)
  ret i8 %4
}`,
	"fig4c": `define i1 @src(double %0) {
  %2 = fcmp ord double %0, 0.000000e+00
  %3 = select i1 %2, double %0, double 0.000000e+00
  %4 = fcmp oeq double %3, 1.000000e+00
  ret i1 %4
}`,
	"fig4d": `define i32 @tgt(ptr %0) {
  %2 = load i32, ptr %0, align 2
  ret i32 %2
}`,
	"fig4e": `define i8 @tgt(i8 %0) {
  %2 = shl nuw i8 %0, 1
  %3 = call i8 @llvm.umax.i8(i8 %2, i8 16)
  ret i8 %3
}`,
	"fig4f": `define i1 @tgt(double %0) {
  %2 = fcmp oeq double %0, 1.000000e+00
  ret i1 %2
}`,
}

func TestParsePaperFigures(t *testing.T) {
	for name, src := range paperFuncs {
		t.Run(name, func(t *testing.T) {
			f, err := ParseFunc(src)
			if err != nil {
				t.Fatalf("parse failed: %v", err)
			}
			if err := ir.VerifyFunc(f); err != nil {
				t.Fatalf("verify failed: %v", err)
			}
		})
	}
}

func TestRoundTripPaperFigures(t *testing.T) {
	for name, src := range paperFuncs {
		t.Run(name, func(t *testing.T) {
			f1, err := ParseFunc(src)
			if err != nil {
				t.Fatalf("first parse failed: %v", err)
			}
			printed := f1.String()
			f2, err := ParseFunc(printed)
			if err != nil {
				t.Fatalf("reparse of printed form failed: %v\nprinted:\n%s", err, printed)
			}
			if ir.Hash(f1) != ir.Hash(f2) {
				t.Fatalf("round trip changed structure:\noriginal:\n%s\nreparsed:\n%s", printed, f2)
			}
			if printed != f2.String() {
				t.Fatalf("printing is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", printed, f2)
			}
		})
	}
}

func TestParseMultiBlockFunction(t *testing.T) {
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
	f, err := ParseFunc(src)
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	if len(f.Blocks) != 3 {
		t.Fatalf("expected 3 blocks, got %d", len(f.Blocks))
	}
	if err := ir.VerifyFunc(f); err != nil {
		t.Fatalf("verify failed: %v", err)
	}
	// Round trip.
	f2, err := ParseFunc(f.String())
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, f.String())
	}
	if ir.Hash(f) != ir.Hash(f2) {
		t.Fatal("multi-block round trip changed structure")
	}
}

func TestSyntaxErrorMessageMatchesOptStyle(t *testing.T) {
	// The paper's Figure 3b: the LLM emitted "smax" as a bare opcode, which
	// opt rejects with "expected instruction opcode".
	src := `define <4 x i8> @src(i64 %a0, ptr %a1) {
entry:
  %smax_0 = smax <4 x i32> %wide.load, zeroinitializer
  ret <4 x i8> zeroinitializer
}`
	_, err := ParseFunc(src)
	if err == nil {
		t.Fatal("expected a syntax error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "error: expected instruction opcode") {
		t.Fatalf("unexpected message: %q", msg)
	}
	if !strings.Contains(msg, "%smax_0 = smax") {
		t.Fatalf("message should quote the offending line, got: %q", msg)
	}
	if !strings.Contains(msg, "^") {
		t.Fatalf("message should include a caret, got: %q", msg)
	}
}

func TestUseOfUndefinedValue(t *testing.T) {
	src := `define i32 @f(i32 %x) {
  %y = add i32 %x, %zzz
  ret i32 %y
}`
	_, err := ParseFunc(src)
	if err == nil {
		t.Fatal("expected an undefined-value error")
	}
	if !strings.Contains(err.Error(), "use of undefined value '%zzz'") {
		t.Fatalf("unexpected message: %q", err)
	}
}

// parseErrorCases are malformed functions and a fragment of the diagnostic
// each must produce.
var parseErrorCases = []struct {
	name, src, want string
}{
	{"bad type", "define wat @f() {\n ret void\n}", "expected type"},
	{"missing paren", "define void @f( {\n ret void\n}", "expected type"},
	{"bad predicate", "define i1 @f(i32 %x) {\n %c = icmp wat i32 %x, 0\n ret i1 %c\n}", "expected icmp predicate"},
	{"store with name", "define void @f(i32 %x, ptr %p) {\n %s = store i32 %x, ptr %p\n ret void\n}", "produces no result"},
	{"trunc widen", "define i64 @f(i32 %x) {\n %t = trunc i32 %x to i64\n ret i64 %t\n}", "trunc must narrow"},
	{"vector arity", "define <2 x i32> @f() {\n ret <2 x i32> <i32 1, i32 2, i32 3>\n}", "3 elements"},
	{"ret type mismatch", "define i64 @f(i32 %x) {\n ret i32 %x\n}", "does not match function return type"},
	{"shufflevector scalar", "define i8 @f(i8 %x) {\n %s = shufflevector i8 %x, i8 %x, <2 x i32> <i32 0, i32 0>\n ret i8 %x\n}", "shufflevector operands must be vectors"},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseFunc(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
}

func TestParseConstants(t *testing.T) {
	src := `define <4 x i32> @f(<4 x i32> %v) {
  %a = add <4 x i32> %v, splat (i32 -7)
  %b = add <4 x i32> %a, <i32 1, i32 2, i32 3, i32 4>
  %c = add <4 x i32> %b, zeroinitializer
  %d = select <4 x i1> <i1 true, i1 false, i1 true, i1 false>, <4 x i32> %c, <4 x i32> undef
  ret <4 x i32> %d
}`
	f, err := ParseFunc(src)
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	f2, err := ParseFunc(f.String())
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, f.String())
	}
	if ir.Hash(f) != ir.Hash(f2) {
		t.Fatal("constant round trip changed structure")
	}
}

func TestParseFloatForms(t *testing.T) {
	src := `define double @f(double %x) {
  %a = fadd double %x, 1.5
  %b = fmul double %a, 2.550000e+02
  %c = fadd double %b, 0x3FF0000000000000
  ret double %c
}`
	f, err := ParseFunc(src)
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	// 0x3FF0000000000000 is 1.0.
	instrs := f.Entry().Instrs
	cf, ok := instrs[2].Args[1].(*ir.ConstFloat)
	if !ok || cf.F != 1.0 {
		t.Fatalf("hex float parsed wrong: %#v", instrs[2].Args[1])
	}
}

func TestUnnamedResultsAutoNumber(t *testing.T) {
	src := `define i32 @f(i32 %0) {
  %2 = add i32 %0, 1
  ret i32 %2
}`
	f, err := ParseFunc(src)
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	if f.Params[0].Nm != "0" {
		t.Fatalf("param name: %q", f.Params[0].Nm)
	}
}
