package opt_test

import (
	"reflect"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/parser"
)

// TestRunCopyOnWriteMatchesClone checks RunWithStats against RunClone, the
// clone-first optimizer it replaces, on the benchdata pairs and on the
// functions and extracted sequences of two corpus seeds, under the
// baseline, knowledge-base and full rule sets. The input must come back
// untouched; the result, its names and the stats must match the clone's;
// and the result must be the input itself exactly when the clone's result
// is structurally equal to the input.
func TestRunCopyOnWriteMatchesClone(t *testing.T) {
	var fns []*ir.Func
	seen := make(map[string]bool)
	add := func(f *ir.Func) {
		if text := f.String(); !seen[text] {
			seen[text] = true
			fns = append(fns, f)
		}
	}
	// One function per probe step that alone changes it: a constant fold,
	// an operand swap, a rule and a dead instruction; then a multi-block
	// function whose phi keeps its operands live.
	for _, src := range []string{
		"define i8 @f(i8 %x) {\n  %a = add i8 3, 4\n  %b = add i8 %x, %a\n  ret i8 %b\n}",
		"define i8 @f(i8 %x) {\n  %a = add i8 1, %x\n  ret i8 %a\n}",
		"define i8 @f(i8 %x) {\n  %a = add i8 %x, 0\n  ret i8 %a\n}",
		"define i8 @f(i8 %x, i8 %y) {\n  %a = add i8 %x, %y\n  %b = mul i8 %x, %y\n  ret i8 %a\n}",
		"define i8 @f(i1 %c, i8 %x, i8 %y) {\nentry:\n  %a = add i8 %x, %y\n  br i1 %c, label %l, label %r\nl:\n  br label %r\nr:\n  %p = phi i8 [ %a, %entry ], [ %x, %l ]\n  ret i8 %p\n}",
	} {
		add(parser.MustParseFunc(src))
	}
	for _, c := range benchdata.RQ1Cases() {
		add(parser.MustParseFunc(c.Pair.Src))
		add(parser.MustParseFunc(c.Pair.Tgt))
	}
	for _, f := range benchdata.RQ2Findings() {
		add(parser.MustParseFunc(f.Pair.Src))
		add(parser.MustParseFunc(f.Pair.Tgt))
	}
	for _, seed := range []uint64{7, 8} {
		ex := extract.New(extract.Options{})
		for _, p := range corpus.Generate(corpus.Options{Seed: seed}) {
			for _, m := range p.Modules {
				for _, f := range m.Funcs {
					add(f)
				}
				for _, s := range ex.Module(m) {
					add(s.Fn)
				}
			}
		}
	}
	sets := []struct {
		name string
		rs   *opt.RuleSet
	}{
		{"baseline", opt.NewRuleSet()},
		{"kb", opt.NewRuleSet(opt.KBNames()...)},
		{"full", opt.FullRuleSet()},
	}
	for _, set := range sets {
		opts := opt.Options{Rules: set.rs}
		unchanged := 0
		for _, f := range fns {
			text, hash := f.String(), ir.Hash(f)
			got, stats := opt.RunWithStats(f, opts)
			if ir.Hash(f) != hash || f.String() != text {
				t.Fatalf("%s: RunWithStats mutated its input\nbefore:\n%s\nafter:\n%s", set.name, text, f)
			}
			want, wantStats := opt.RunClone(f, opts)
			if got.String() != want.String() {
				t.Errorf("%s: result differs from the clone's\ninput:\n%s\ngot:\n%s\nwant:\n%s", set.name, text, got, want)
			}
			if !reflect.DeepEqual(stats, wantStats) {
				t.Errorf("%s: stats %+v, clone's %+v\ninput:\n%s", set.name, stats, wantStats, text)
			}
			if same := ir.StructurallyEqual(want, f); (got == f) != same {
				t.Errorf("%s: result is the input: %v, clone's result equals the input: %v\ninput:\n%s",
					set.name, got == f, same, text)
			}
			if got == f {
				unchanged++
			}
		}
		t.Logf("%s: %d of %d functions returned as the input", set.name, unchanged, len(fns))
		if unchanged == 0 || unchanged == len(fns) {
			t.Errorf("%s: %d of %d unchanged; the check needs both outcomes", set.name, unchanged, len(fns))
		}
	}
}
