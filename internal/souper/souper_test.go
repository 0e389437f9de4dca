package souper

import (
	"testing"

	"repro/internal/benchdata"
	"repro/internal/parser"
)

func TestDefaultModeInfersConstants(t *testing.T) {
	src := parser.MustParseFunc(`define i8 @src(i8 %x) {
  %n = xor i8 %x, -1
  %r = and i8 %n, %x
  ret i8 %r
}`)
	res := Optimize(src, Options{Enum: 0})
	if !res.Found {
		t.Fatalf("default mode should infer the constant 0: %+v", res)
	}
	if got := res.Candidate.String(); got != "define i8 @souper(i8 %x) {\n  ret i8 0\n}\n" {
		t.Fatalf("unexpected candidate:\n%s", got)
	}
}

func TestDefaultModeDoesNotFindNonConstants(t *testing.T) {
	src := parser.MustParseFunc(`define i8 @src(i8 %x, i8 %y) {
  %a = and i8 %x, %y
  %o = or i8 %x, %y
  %r = xor i8 %a, %o
  ret i8 %r
}`)
	res := Optimize(src, Options{Enum: 0})
	if res.Found {
		t.Fatalf("default mode must not synthesize xor(x,y): %+v", res)
	}
}

func TestEnumFindsXor(t *testing.T) {
	src := parser.MustParseFunc(`define i8 @src(i8 %x, i8 %y) {
  %a = and i8 %x, %y
  %o = or i8 %x, %y
  %r = xor i8 %a, %o
  ret i8 %r
}`)
	res := Optimize(src, Options{Enum: 1})
	if !res.Found {
		t.Fatalf("enum=1 should synthesize xor(x,y): %+v", res)
	}
	if res.Candidate.NumInstrs(true) != 1 {
		t.Fatalf("expected a one-instruction candidate:\n%s", res.Candidate)
	}
}

func TestEnumFindsIdentity(t *testing.T) {
	src := parser.MustParseFunc(`define i8 @src(i8 %x) {
  %a = and i8 %x, -16
  %b = and i8 %x, 15
  %r = or i8 %a, %b
  ret i8 %r
}`)
	res := Optimize(src, Options{Enum: 1})
	if !res.Found {
		t.Fatalf("enum should find the identity leaf: %+v", res)
	}
	if res.Candidate.NumInstrs(true) != 0 {
		t.Fatalf("expected the identity candidate:\n%s", res.Candidate)
	}
}

func TestEnum2FindsSextTrunc(t *testing.T) {
	src := parser.MustParseFunc(`define i8 @src(i8 %x) {
  %a = shl i8 %x, 4
  %b = ashr i8 %a, 4
  ret i8 %b
}`)
	res := Optimize(src, Options{Enum: 2})
	if !res.Found {
		t.Fatalf("enum=2 should synthesize sext(trunc x): %+v", res)
	}
}

func TestUnsupportedWindows(t *testing.T) {
	cases := map[string]string{
		"intrinsic": `define i8 @f(i8 %x) {
  %r = call i8 @llvm.umax.i8(i8 %x, i8 1)
  ret i8 %r
}`,
		"vector": `define <4 x i8> @f(<4 x i8> %v) {
  %r = add <4 x i8> %v, %v
  ret <4 x i8> %r
}`,
		"float": `define double @f(double %x) {
  %r = fadd double %x, 1.0
  ret double %r
}`,
		"memory": `define i8 @f(ptr %p) {
  %r = load i8, ptr %p
  ret i8 %r
}`,
	}
	for name, src := range cases {
		res := Optimize(parser.MustParseFunc(src), Options{Enum: 3})
		if !res.Unsupported {
			t.Errorf("%s window should be unsupported: %+v", name, res)
		}
	}
}

func TestWideInputsTimeOutUnderEnum(t *testing.T) {
	pair := benchdata.FindingByID("128460").Pair // neg-via-xor on i64
	src := parser.MustParseFunc(pair.Src)
	res := Optimize(src, Options{Enum: 1})
	if !res.TimedOut {
		t.Fatalf("i64 enum run should exhaust the 20-minute virtual budget: %+v", res)
	}
	// ... but the default mode completes quickly (no constant found though).
	res = Optimize(src, Options{Enum: 0})
	if res.TimedOut || res.Found {
		t.Fatalf("default mode should finish without finding: %+v", res)
	}
}

// An i16 window whose space construction fits the budget but whose
// enumeration does not: the run stops inside the depth-1..Enum loop, and a
// timed-out run must occupy exactly the budget there too.
func TestEnumerationTimeoutOccupiesBudget(t *testing.T) {
	src := parser.MustParseFunc(`define i16 @src(i16 %a0, i16 %a1) {
  %v2 = and i16 %a0, %a1
  %v3 = shl i16 %v2, 3
  ret i16 %v3
}`)
	res := Optimize(src, Options{Enum: 2, Seed: 10})
	if !res.TimedOut || res.Candidates <= len(buildLeaves(src)) {
		t.Fatalf("run should time out during enumeration: %+v", res)
	}
	if res.VirtualSeconds != 1200 {
		t.Fatalf("timed-out run reports %v virtual seconds, want the 1200 s budget", res.VirtualSeconds)
	}
}

func TestDefaultFindsWideConstWhereEnumTimesOut(t *testing.T) {
	pair := benchdata.FindingByID("143957").Pair // icmp-const on i64
	src := parser.MustParseFunc(pair.Src)
	def := Optimize(src, Options{Enum: 0})
	if !def.Found {
		t.Fatalf("default mode should infer the constant: %+v", def)
	}
	enum := Optimize(src, Options{Enum: 1})
	if !enum.TimedOut {
		t.Fatalf("enum mode should time out on the wide input: %+v", enum)
	}
}

// Emergence test: running our Souper on the RQ1 suite must reproduce the
// paper's totals — 3 found by the default mode, 14 by Enum 1-3, 15 total.
func TestRQ1EmergentTotals(t *testing.T) {
	defaultFound := map[string]bool{}
	enumFound := map[string]bool{}
	for _, c := range benchdata.RQ1Cases() {
		src := parser.MustParseFunc(c.Pair.Src)
		if Optimize(src, Options{Enum: 0, Seed: 1}).Found {
			defaultFound[c.IssueID] = true
		}
		for e := 1; e <= 3; e++ {
			if Optimize(src, Options{Enum: e, Seed: 1}).Found {
				enumFound[c.IssueID] = true
				break
			}
		}
	}
	want := benchdata.PaperRQ1Baselines
	if len(defaultFound) != want.SouperDefault {
		t.Errorf("default found %d (%v), paper says %d", len(defaultFound), keys(defaultFound), want.SouperDefault)
	}
	if len(enumFound) != want.SouperEnum {
		t.Errorf("enum found %d (%v), paper says %d", len(enumFound), keys(enumFound), want.SouperEnum)
	}
	total := map[string]bool{}
	for k := range defaultFound {
		total[k] = true
	}
	for k := range enumFound {
		total[k] = true
	}
	if len(total) != want.SouperTotal {
		t.Errorf("total found %d (%v), paper says %d", len(total), keys(total), want.SouperTotal)
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
