package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/parser"
)

// specProgram is one synthetic SPEC CPU2017-style integer benchmark: a
// loop-heavy function whose body may contain one of the fixed suboptimal
// patterns. Performance is measured as dynamically executed instructions
// under the interpreter (the substitution for real SPEC runs, DESIGN.md §3).
type specProgram struct {
	Name    string
	Pattern string // patch ID whose pattern is embedded ("" = none)
	Src     string
	UsesPtr bool
}

// specLoop builds the common loop skeleton around a pattern body. The body
// receives %x (i32, derived from the induction variable) and must define
// %r (i32). A block of surrounding "application" work dilutes the pattern
// the way real hot loops do — this is why the paper measures speedups within
// noise: peephole windows are a tiny fraction of executed instructions.
func specLoop(name, body string) string {
	return fmt.Sprintf(`define i64 @%s(i64 %%n) {
entry:
  br label %%loop
loop:
  %%i = phi i64 [ 0, %%entry ], [ %%i.next, %%loop ]
  %%acc = phi i64 [ 0, %%entry ], [ %%acc.next, %%loop ]
  %%x = trunc i64 %%i to i32
  %%w0 = mul i32 %%x, 2654435761
  %%w1 = xor i32 %%w0, %%x
  %%w2 = lshr i32 %%w1, 13
  %%w3 = add i32 %%w2, %%w1
  %%w4 = and i32 %%w3, 262143
  %%w5 = or i32 %%w4, 1
  %%w6 = mul i32 %%w5, 13
  %%w7 = xor i32 %%w6, %%w2
  %%w8 = add i32 %%w7, %%w4
  %%w9 = ashr i32 %%w8, 2
%s
  %%mix = xor i32 %%r, %%w9
  %%rz = zext i32 %%mix to i64
  %%acc.next = add i64 %%acc, %%rz
  %%i.next = add nuw i64 %%i, 1
  %%done = icmp eq i64 %%i.next, %%n
  br i1 %%done, label %%exit, label %%loop
exit:
  ret i64 %%acc.next
}`, name, body)
}

// specPrograms mirrors the ten SPEC CPU2017 integer benchmarks the paper
// evaluates; each carries at most one fixed pattern so per-patch speedups
// stay small, exactly as the paper observes.
func specPrograms() []specProgram {
	progs := []specProgram{
		{Name: "perlbench", Pattern: "143636", Src: specLoop("perlbench", `  %c = icmp slt i32 %x, 0
  %m = tail call i32 @llvm.umin.i32(i32 %x, i32 255)
  %t = trunc nuw i32 %m to i8
  %sel = select i1 %c, i8 0, i8 %t
  %r = zext i8 %sel to i32`)},
		{Name: "gcc", Pattern: "143211", Src: specLoop("gcc", `  %a = shl i32 %x, 8
  %r = lshr i32 %a, 8`)},
		{Name: "mcf", Pattern: "157371", Src: specLoop("mcf", `  %nx = xor i32 %x, -1
  %neg = add i32 %nx, 1
  %r = xor i32 %neg, 11`)},
		{Name: "omnetpp", Pattern: "157524", Src: specLoop("omnetpp", `  %nz = sub i32 0, %x
  %r = xor i32 %nz, -1`)},
		{Name: "xalancbmk", Pattern: "166973", Src: specLoop("xalancbmk", `  %a = lshr i32 %x, 4
  %r = shl i32 %a, 4`)},
		{Name: "x264", Pattern: "142674", Src: specLoop("x264", `  %a = and i32 %x, -256
  %b = and i32 %x, 255
  %r = or i32 %a, %b`)},
		{Name: "deepsjeng", Pattern: "163108", Src: specLoop("deepsjeng", `  %m = and i32 %x, 4095
  %r = or i32 %m, %x`)},
		{Name: "leela", Pattern: "157370", Src: specLoop("leela", `  %a = shl i32 %x, 24
  %r = ashr i32 %a, 24`)},
		{Name: "exchange2", Pattern: "", Src: specLoop("exchange2", `  %a = mul i32 %x, 37
  %b = add i32 %a, 11
  %r = xor i32 %b, %x`)},
		{Name: "xz", Pattern: "", Src: specLoop("xz", `  %a = add i32 %x, 7
  %b = and i32 %a, %x
  %r = or i32 %b, 3`)},
	}
	return progs
}

// SpecRow is one patch's measured geometric-mean speedup.
type SpecRow struct {
	PatchID string
	Speedup float64  // >1 means the patch makes the programs faster
	Rules   []string // registry rules (sorted IDs) that fired across the suite
}

// SpecReport is the measured Figure 5.
type SpecReport struct {
	Rows   []SpecRow
	Yearly float64 // all patches vs none (the paper's year-over-year compare)
	Iters  int
}

// RunFigure5 reproduces Figure 5: for each patch, optimize the SPEC-like
// programs with and without it, execute them, and report the geometric mean
// of the dynamic-instruction-count ratios. Outputs are asserted equal, so
// this is also an end-to-end correctness check of the patched optimizer on
// looped code.
func RunFigure5(iters int) (*SpecReport, error) {
	if iters == 0 {
		iters = 500
	}
	progs := specPrograms()
	parsed := make([]*ir.Func, len(progs))
	for i, p := range progs {
		f, err := parser.ParseFunc(p.Src)
		if err != nil {
			return nil, fmt.Errorf("spec program %s: %w", p.Name, err)
		}
		parsed[i] = f
	}
	// The loop bodies execute tens of thousands of dynamic instructions per
	// program; run them through the compile-once evaluator instead of
	// re-walking the tree per instruction.
	run := func(f *ir.Func) (int, uint64, error) {
		ev := interp.NewEvaluator(interp.Compile(f))
		defer ev.Release()
		ev.ArgColumn(0)[0] = interp.Word{V: uint64(iters)}
		ev.RunBatchFilled(1, nil, 1<<24)
		r := ev.LaneResult(0)
		if r.UB || !r.Completed {
			return 0, 0, fmt.Errorf("program failed: ub=%v reason=%s", r.UB, r.UBReason)
		}
		return r.DynInstrs, r.Ret.Lanes[0].V, nil
	}
	baseInstrs := make([]int, len(progs))
	baseVals := make([]uint64, len(progs))
	for i, f := range parsed {
		g := opt.RunO3(f)
		n, v, err := run(g)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", progs[i].Name, err)
		}
		baseInstrs[i] = n
		baseVals[i] = v
	}
	rep := &SpecReport{Iters: iters}
	// measure optimizes the suite with the given rule selection, returning
	// the geometric-mean dynamic-instruction speedup and which non-baseline
	// registry rules fired (sorted IDs) — the rule-level attribution of the
	// speedup.
	measure := func(patches []string) (float64, []string, error) {
		rs := opt.NewRuleSet(patches...)
		fired := make(map[string]bool)
		logSum := 0.0
		for i, f := range parsed {
			g, stats := opt.RunWithStats(f, opt.Options{Rules: rs})
			for id := range opt.OptionalRuleHits(stats.RuleHits) {
				fired[id] = true
			}
			n, v, err := run(g)
			if err != nil {
				return 0, nil, fmt.Errorf("%s patched: %w", progs[i].Name, err)
			}
			if v != baseVals[i] {
				return 0, nil, fmt.Errorf("%s: patched program computes %d, baseline %d",
					progs[i].Name, v, baseVals[i])
			}
			logSum += math.Log(float64(baseInstrs[i]) / float64(n))
		}
		ids := make([]string, 0, len(fired))
		for id := range fired {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return math.Exp(logSum / float64(len(progs))), ids, nil
	}
	for _, id := range []string{"128134", "142674", "143211", "143636",
		"157315", "157370", "157524", "163108", "166973"} {
		s, rules, err := measure([]string{id})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, SpecRow{PatchID: id, Speedup: s, Rules: rules})
	}
	yearly, _, err := measure(opt.PatchIDs())
	if err != nil {
		return nil, err
	}
	rep.Yearly = yearly
	return rep, nil
}

// Print renders the measured Figure 5.
func (r *SpecReport) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 5: SPEC-like integer suite speedups (dynamic instructions, %d iterations)\n", r.Iters)
	for _, row := range r.Rows {
		bar := int((row.Speedup - 0.9) * 200)
		if bar < 0 {
			bar = 0
		}
		if bar > 40 {
			bar = 40
		}
		rules := ""
		if len(row.Rules) > 0 {
			rules = "  [" + strings.Join(row.Rules, ", ") + "]"
		}
		fmt.Fprintf(w, "  %-8s %6.3fx %s%s\n", row.PatchID, row.Speedup, bars(bar), rules)
	}
	fmt.Fprintf(w, "  %-8s %6.3fx (all patches vs none — the paper's year-over-year compare)\n",
		"yearly", r.Yearly)
	fmt.Fprintln(w, "(paper: all individual-patch speedups within 2% of 1.0x; same for the yearly comparison)")
}

func bars(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
