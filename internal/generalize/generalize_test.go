package generalize

import (
	"strings"
	"testing"

	"repro/internal/alive"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/parser"
)

func mustGeneralize(t *testing.T, src, tgt string) *Rule {
	t.Helper()
	res := Generalize(parser.MustParseFunc(src), parser.MustParseFunc(tgt), Options{})
	if res.Rule == nil {
		t.Fatalf("expected a learned rule, got rejection: %s (rejected %d candidates)",
			res.Reason, len(res.Rejected))
	}
	return res.Rule
}

// A structural rewrite with no constants must generalize to every sweep
// width and rewrite windows at widths the witness never saw.
func TestGeneralizeStructural(t *testing.T) {
	rule := mustGeneralize(t, `define i16 @src(i16 %x, i16 %y) {
  %a = and i16 %x, %y
  %o = or i16 %x, %y
  %r = xor i16 %a, %o
  ret i16 %r
}`, `define i16 @tgt(i16 %x, i16 %y) {
  %r = xor i16 %x, %y
  ret i16 %r
}`)
	if len(rule.Widths) != 4 {
		t.Fatalf("expected 4 verified widths, got %v", rule.Widths)
	}
	if rule.Width != 16 {
		t.Fatalf("witness width = %d, want 16", rule.Width)
	}
	or, err := rule.OptRule()
	if err != nil {
		t.Fatal(err)
	}
	if or.Provenance != opt.ProvLearned {
		t.Fatalf("provenance = %s, want learned", or.Provenance)
	}
	// The learned rule must close the same window at a width the witness
	// never saw (i64), under a baseline-only selection.
	rs := opt.NewRuleSet().WithRules(or)
	win := parser.MustParseFunc(`define i64 @f(i64 %p, i64 %q) {
  %a = and i64 %p, %q
  %o = or i64 %p, %q
  %r = xor i64 %a, %o
  ret i64 %r
}`)
	got, stats := opt.RunWithStats(win, opt.Options{Rules: rs})
	if stats.RuleHits[rule.ID] == 0 {
		t.Fatalf("learned rule did not fire at i64: hits %v\n%s", stats.RuleHits, got)
	}
	if got.NumInstrs(true) != 1 {
		t.Fatalf("window not closed:\n%s", got)
	}
	v := alive.Verify(win, got, alive.Options{Samples: 512, Seed: 3})
	if v.Verdict != alive.Correct {
		t.Fatalf("learned rewrite is not a refinement at i64")
	}
	// Baseline alone must miss the window (it is a genuine learned gain).
	if base := opt.RunO3(win); base.NumInstrs(true) != 3 {
		t.Fatalf("baseline unexpectedly closes the window:\n%s", base)
	}
}

// Width-derived constants: lshr (shl X, C), C -> and X, mask(w)>>C must
// learn the mask as a function of the width, not the literal 31.
func TestGeneralizeWidthDerivedMask(t *testing.T) {
	rule := mustGeneralize(t, `define i8 @src(i8 %x) {
  %a = shl i8 %x, 3
  %b = lshr i8 %a, 3
  ret i8 %b
}`, `define i8 @tgt(i8 %x) {
  %r = and i8 %x, 31
  ret i8 %r
}`)
	if len(rule.Widths) < 2 {
		t.Fatalf("verified widths %v, want at least 2", rule.Widths)
	}
	or, err := rule.OptRule()
	if err != nil {
		t.Fatal(err)
	}
	rs := opt.NewRuleSet().WithRules(or)
	// At i32 the mask must become mask(32)>>3 = 0x1FFFFFFF, not 31.
	win := parser.MustParseFunc(`define i32 @f(i32 %x) {
  %a = shl i32 %x, 3
  %b = lshr i32 %a, 3
  ret i32 %b
}`)
	got := opt.Run(win, opt.Options{Rules: rs})
	if got.NumInstrs(true) != 1 {
		t.Fatalf("window not closed:\n%s", got)
	}
	in := got.Instrs()[0]
	if in.Op != ir.OpAnd {
		t.Fatalf("expected an and, got %s", in.Op.Name())
	}
	c, ok := ir.IntConstValue(in.Args[1])
	if !ok || c != ir.MaskW(32)>>3 {
		t.Fatalf("mask = %#x, want %#x", c, ir.MaskW(32)>>3)
	}
	v := alive.Verify(win, got, alive.Options{Samples: 512, Seed: 3})
	if v.Verdict != alive.Correct {
		t.Fatal("learned rewrite is not a refinement at i32")
	}
}

// The over-generalization fixture: (x<<7)+x == mul i8 %x, -127 holds only
// at i8 (129 = 2^7+1 is width-tied, and the sign-bit-set constant reads as
// a signed literal). Every candidate abstraction must be refuted with a
// counterexample and no rule learned.
func TestOverGeneralizationRejected(t *testing.T) {
	src := parser.MustParseFunc(`define i8 @src(i8 %x) {
  %a = shl i8 %x, 7
  %r = add i8 %a, %x
  ret i8 %r
}`)
	tgt := parser.MustParseFunc(`define i8 @tgt(i8 %x) {
  %r = mul i8 %x, -127
  ret i8 %r
}`)
	// The concrete witness itself is sound at i8.
	if v := alive.Verify(src, tgt, alive.Options{}); v.Verdict != alive.Correct {
		t.Fatalf("fixture witness is not a refinement at i8")
	}
	res := Generalize(src, tgt, Options{})
	if res.Rule != nil {
		t.Fatalf("over-generalization was learned: %s (widths %v)", res.Rule.Doc, res.Rule.Widths)
	}
	if len(res.Rejected) == 0 {
		t.Fatal("expected rejected candidates with counterexamples")
	}
	sawCE := false
	for _, rej := range res.Rejected {
		if rej.CE != nil {
			sawCE = true
			if rej.Width == 8 {
				t.Fatalf("counterexample at the witness width itself: %+v", rej)
			}
			if !strings.Contains(rej.CE.Format(), "Transformation doesn't verify!") {
				t.Fatalf("counterexample does not render: %q", rej.CE.Format())
			}
		}
	}
	if !sawCE {
		t.Fatalf("no rejection carries a counterexample: %+v", res.Rejected)
	}
}

// Non-generalizable shapes must be declined with a reason, not learned.
func TestGeneralizeRejectsUnsupportedShapes(t *testing.T) {
	cases := []struct{ name, src, tgt string }{
		{"memory", `define void @src(ptr %p) {
  %v = load i32, ptr %p, align 4
  store i32 %v, ptr %p, align 4
  ret void
}`, `define void @tgt(ptr %p) {
  ret void
}`},
		{"mixed-width", `define i32 @src(i8 %x) {
  %z = zext i8 %x to i32
  %r = call i32 @llvm.umin.i32(i32 %z, i32 255)
  ret i32 %r
}`, `define i32 @tgt(i8 %x) {
  %z = zext i8 %x to i32
  ret i32 %z
}`},
		{"vector", `define <4 x i8> @src(<4 x i8> %x, <4 x i8> %y) {
  %a = and <4 x i8> %x, %y
  %o = or <4 x i8> %x, %y
  %r = xor <4 x i8> %a, %o
  ret <4 x i8> %r
}`, `define <4 x i8> @tgt(<4 x i8> %x, <4 x i8> %y) {
  %r = xor <4 x i8> %x, %y
  ret <4 x i8> %r
}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Generalize(parser.MustParseFunc(tc.src), parser.MustParseFunc(tc.tgt), Options{})
			if res.Rule != nil {
				t.Fatalf("learned a rule from an unsupported shape: %s", res.Rule.Doc)
			}
			if res.Reason == "" {
				t.Fatal("rejection carries no reason")
			}
		})
	}
}

// Learned rules must survive the JSON round trip bit-for-bit and compile to
// an identical selection.
func TestRulebookRoundTrip(t *testing.T) {
	r1 := mustGeneralize(t, `define i16 @src(i16 %x, i16 %y) {
  %a = and i16 %x, %y
  %o = or i16 %x, %y
  %r = xor i16 %a, %o
  ret i16 %r
}`, `define i16 @tgt(i16 %x, i16 %y) {
  %r = xor i16 %x, %y
  ret i16 %r
}`)
	r2 := mustGeneralize(t, `define i8 @src(i8 %x) {
  %a = shl i8 %x, 3
  %b = lshr i8 %a, 3
  ret i8 %b
}`, `define i8 @tgt(i8 %x) {
  %r = and i8 %x, 31
  ret i8 %r
}`)
	book := NewRulebook([]*Rule{r1, r2})
	data, err := book.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRulebook(data)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := back.Compile()
	if err != nil {
		t.Fatal(err)
	}
	data2, err := NewRulebook(rules).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("rulebook does not round-trip:\n%s\nvs\n%s", data, data2)
	}
	if err := back.Verify(alive.Options{Samples: 256, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	// The compiled selections must be identical: same rule IDs in the same
	// dispatch order, and identical behaviour on the witness windows.
	ors1, err := OptRules([]*Rule{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	ors2, err := OptRules(rules)
	if err != nil {
		t.Fatal(err)
	}
	rs1 := opt.NewRuleSet().WithRules(ors1...)
	rs2 := opt.NewRuleSet().WithRules(ors2...)
	ids := func(rs *opt.RuleSet) []string {
		var out []string
		for _, r := range rs.Rules() {
			out = append(out, r.ID)
		}
		return out
	}
	a, b := ids(rs1), ids(rs2)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("selections differ:\n%v\nvs\n%v", a, b)
	}
	for _, r := range []*Rule{r1, r2} {
		win := parser.MustParseFunc(r.SrcIR)
		g1 := opt.Run(win, opt.Options{Rules: rs1})
		g2 := opt.Run(win, opt.Options{Rules: rs2})
		if !ir.StructurallyEqual(g1, g2) {
			t.Fatalf("round-tripped selection optimizes differently:\n%s\nvs\n%s", g1, g2)
		}
	}
	// Tampering must be caught by the content-hash check: a rewritten
	// witness, a width-parametric slot swapped for a literal that agrees
	// only at the witness width, and an unverified width spliced into the
	// sorted width list are all miscompile vectors if they load.
	// Locate the shl/lshr entry (the one with a width-derived mask slot).
	entryIdx, maskIdx := -1, -1
	for ei, e := range back.Rules {
		for si, s := range e.Slots {
			if s.Kind == KindMaskShr {
				entryIdx, maskIdx = ei, si
			}
		}
	}
	if entryIdx < 0 {
		t.Fatal("expected an entry with a mask-shr slot")
	}
	tamper := func(name string, mutate func(*Entry)) {
		t.Helper()
		tampered := *back
		tampered.Rules = append([]Entry(nil), back.Rules...)
		mutate(&tampered.Rules[entryIdx])
		if _, err := tampered.Compile(); err == nil {
			t.Fatalf("%s-tampered rulebook compiled cleanly", name)
		}
	}
	tamper("witness", func(e *Entry) { e.Src = strings.Replace(e.Src, "lshr", "ashr", 1) })
	tamper("slot", func(e *Entry) {
		e.Slots = append([]CExpr(nil), e.Slots...)
		e.Slots[maskIdx] = CExpr{Kind: KindLit, K: 31} // agrees at i8 only
	})
	tamper("width", func(e *Entry) {
		e.Widths = []int{8, 16, 32, 37, 64} // 37 was never verified
	})
}

// Rewidth backs cmd/lpo-verify -widths: literal policy, with clean errors
// for constants that do not survive the move.
func TestRewidth(t *testing.T) {
	f := parser.MustParseFunc(`define i8 @f(i8 %x) {
  %a = and i8 %x, -16
  %r = xor i8 %a, 5
  ret i8 %r
}`)
	g, err := Rewidth(f, 32)
	if err != nil {
		t.Fatal(err)
	}
	in := g.Instrs()[0]
	if c, _ := ir.IntConstValue(in.Args[1]); ir.SignExt(c, 32) != -16 {
		t.Fatalf("signed literal did not sign-extend: %#x", c)
	}
	shift := parser.MustParseFunc(`define i16 @f(i16 %x) {
  %r = lshr i16 %x, 12
  ret i16 %r
}`)
	if _, err := Rewidth(shift, 8); err == nil {
		t.Fatal("shift amount 12 must not survive the move to i8")
	}
	if _, err := Rewidth(shift, 64); err != nil {
		t.Fatalf("widening a shift must work: %v", err)
	}
}

// An intrinsic window (rotate -> fshl) must generalize with the overload
// following the width.
func TestGeneralizeIntrinsicOverload(t *testing.T) {
	rule := mustGeneralize(t, `define i16 @src(i16 %x) {
  %a = shl i16 %x, 4
  %b = lshr i16 %x, 12
  %r = or i16 %a, %b
  ret i16 %r
}`, `define i16 @tgt(i16 %x) {
  %r = tail call i16 @llvm.fshl.i16(i16 %x, i16 %x, i16 4)
  ret i16 %r
}`)
	or, err := rule.OptRule()
	if err != nil {
		t.Fatal(err)
	}
	rs := opt.NewRuleSet().WithRules(or)
	win := parser.MustParseFunc(`define i32 @f(i32 %x) {
  %a = shl i32 %x, 4
  %b = lshr i32 %x, 28
  %r = or i32 %a, %b
  ret i32 %r
}`)
	got := opt.Run(win, opt.Options{Rules: rs})
	if got.NumInstrs(true) != 1 {
		t.Fatalf("rotate window not closed at i32:\n%s", got)
	}
	call := got.Instrs()[0]
	if call.Op != ir.OpCall || call.Callee != "llvm.fshl.i32" {
		t.Fatalf("expected llvm.fshl.i32, got %s %s", call.Op.Name(), call.Callee)
	}
	if v := alive.Verify(win, got, alive.Options{Samples: 512, Seed: 3}); v.Verdict != alive.Correct {
		t.Fatal("learned rotate rewrite is not a refinement at i32")
	}
}
