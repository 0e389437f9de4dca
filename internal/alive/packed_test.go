package alive_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/alive"
	"repro/internal/benchdata"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/extract"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/llm"
	"repro/internal/parser"
)

// censusShape is one of the pair shapes that make up nearly every vector a
// learning campaign verifies exhaustively (seeds 501-504): src and tgt are
// bodies over params that define %r, which both return.
type censusShape struct {
	name     string
	params   []string // "i8 %a0"
	ret      string
	src, tgt string
}

var censusShapes = []censusShape{
	{"add-sub-i8", []string{"i8 %a0", "i8 %a1"}, "i8",
		"%s = add i8 %a0, %a1\n  %r = sub i8 %s, %a1", "%r = or i8 %a0, 0"},
	{"and-or-xor-i8", []string{"i8 %x", "i8 %y"}, "i8",
		"%a = and i8 %x, %y\n  %o = or i8 %x, %y\n  %r = xor i8 %a, %o", "%r = xor i8 %x, %y"},
	{"nsw-nuw-i8", []string{"i8 %x", "i8 %y"}, "i8",
		"%s = add nsw nuw i8 %x, %y\n  %r = sub nuw i8 %s, %y", "%r = or i8 %x, 0"},
	{"shift-mask-i16", []string{"i16 %x"}, "i16",
		"%h = shl i16 %x, 4\n  %r = lshr i16 %h, 4", "%r = and i16 %x, 4095"},
	{"ashr-exact-i16", []string{"i16 %x"}, "i16",
		"%h = shl nsw i16 %x, 3\n  %r = ashr exact i16 %h, 3", "%r = add i16 %x, 0"},
	{"icmp-select-i16", []string{"i16 %x"}, "i16",
		"%c = icmp slt i16 %x, 0\n  %n = sub i16 0, %x\n  %r = select i1 %c, i16 %n, i16 %x",
		"%r = call i16 @llvm.abs.i16(i16 %x, i1 false)"},
	{"icmp-i1-i8", []string{"i1 %c", "i1 %d", "i8 %x"}, "i1",
		"%k = icmp ule i8 %x, 127\n  %e = and i1 %c, %d\n  %r = or i1 %e, %k",
		"%k = icmp sgt i8 %x, -1\n  %e = and i1 %d, %c\n  %r = or i1 %k, %e"},
	{"rotate-fshl-i16", []string{"i16 %x"}, "i16",
		"%h = shl i16 %x, 4\n  %l = lshr i16 %x, 12\n  %r = or i16 %h, %l",
		"%r = call i16 @llvm.fshl.i16(i16 %x, i16 %x, i16 4)"},
	{"ctpop-i16", []string{"i16 %x"}, "i16",
		"%n = xor i16 %x, -1\n  %r = call i16 @llvm.ctpop.i16(i16 %n)",
		"%p = call i16 @llvm.ctpop.i16(i16 %x)\n  %r = sub i16 16, %p"},
	{"umin-zext-i8", []string{"i8 %x"}, "i8",
		"%z = zext i8 %x to i64\n  %m = call i64 @llvm.umin.i64(i64 %z, i64 255)\n  %r = trunc i64 %m to i8",
		"%r = or i8 %x, 0"},
	{"umax-i8", []string{"i8 %x", "i8 %y"}, "i8",
		"%r = call i8 @llvm.umax.i8(i8 %x, i8 %y)",
		"%c = icmp ugt i8 %x, %y\n  %r = select i1 %c, i8 %x, i8 %y"},
	{"mul-i16", []string{"i16 %x"}, "i16", "%r = mul i16 %x, 4", "%r = shl i16 %x, 2"},
}

func (s censusShape) fn(name, body string, params []string) string {
	return fmt.Sprintf("define %s @%s(%s) {\n  %s\n  ret %s %%r\n}", s.ret, name, strings.Join(params, ", "), body, s.ret)
}

// pair returns the shape's correct pair.
func (s censusShape) pair() (src, tgt string) {
	return s.fn("src", s.src, s.params), s.fn("tgt", s.tgt, s.params)
}

// wrongAt returns a target that goes wrong on exactly the input vector the
// exhaustive counter reaches at value k: how is "flip" (bit 0 of the
// result flips), "poison" (the result is poison) or "ub" (a division by
// zero).
func (s censusShape) wrongAt(k uint64, how string) string {
	body := []string{strings.ReplaceAll(s.tgt, "%r ", "%r0 ")}
	conds := "true"
	for i, p := range s.params {
		ty, name, _ := strings.Cut(p, " ")
		var w int
		fmt.Sscanf(ty, "i%d", &w)
		body = append(body, fmt.Sprintf("%%k%d = icmp eq %s %s, %d", i, ty, name, ir.SignExt(k&ir.MaskW(w), w)),
			fmt.Sprintf("%%q%d = and i1 %s, %%k%d", i, conds, i))
		conds = fmt.Sprintf("%%q%d", i)
		k >>= uint(w)
	}
	switch how {
	case "flip":
		body = append(body, fmt.Sprintf("%%f = select i1 %s, %s 1, %s 0", conds, s.ret, s.ret),
			"%r = xor "+s.ret+" %r0, %f")
	case "poison":
		body = append(body, fmt.Sprintf("%%r = select i1 %s, %s poison, %s %%r0", conds, s.ret, s.ret))
	case "ub":
		body = append(body, fmt.Sprintf("%%dv = select i1 %s, %s 0, %s 1", conds, s.ret, s.ret),
			"%r = udiv "+s.ret+" %r0, %dv")
	}
	return s.fn("tgt", strings.Join(body, "\n  "), s.params)
}

// frozenSrc returns the source with its parameters frozen first: it agrees
// with the source on every defined input, so a target that propagates
// poison is refuted only by the poison trials.
func (s censusShape) frozenSrc() string {
	var params, body []string
	for _, p := range s.params {
		ty, name, _ := strings.Cut(p, " ")
		params = append(params, ty+" "+name+".in")
		body = append(body, fmt.Sprintf("%s = freeze %s %s.in", name, ty, name))
	}
	return s.fn("src", strings.Join(append(body, s.src), "\n  "), params)
}

// definedAt reports whether f returns a defined value on the input vector
// the exhaustive counter reaches at value k.
func definedAt(f *ir.Func, k uint64) bool {
	var args []interp.RVal
	for _, p := range f.Params {
		w := ir.ScalarBits(p.Ty)
		args = append(args, interp.Scalar(p.Ty, k&ir.MaskW(w)))
		k >>= uint(w)
	}
	r := interp.Exec(f, interp.Env{Args: args})
	return r.Completed && !r.UB && !r.Ret.AnyPoison()
}

func checkOracle(t *testing.T, name, srcText, tgtText string, opts alive.Options) alive.Result {
	t.Helper()
	src, tgt := parser.MustParseFunc(srcText), parser.MustParseFunc(tgtText)
	got := alive.Verify(src, tgt, opts)
	want := alive.ReferenceVerify(src, tgt, opts)
	if diff := alive.ResultsEqual(got, want); diff != "" {
		t.Fatalf("%s: checker and reference disagree: %s\n%s\n%s", name, diff, srcText, tgtText)
	}
	return got
}

// TestPackedTierMatchesReference holds the exhaustive counter phase on the
// packed tier to ReferenceVerify: verdicts, counts and counterexample text
// must be identical for every census shape, and for targets that return a
// wrong value, poison or UB at the first vector, at the last lane of the
// first group or of a group in the second dispatch, a wrong value at the
// last lane of a group half way through the counter space, or that a
// source with frozen parameters refutes only in the poison trials after it.
func TestPackedTierMatchesReference(t *testing.T) {
	opts := alive.Options{Seed: 7, Programs: interp.NewCache()}
	for _, s := range censusShapes {
		src, tgt := s.pair()
		sp, tp := parser.MustParseFunc(src), parser.MustParseFunc(tgt)
		if !interp.Compile(sp).Packable() || !interp.Compile(tp).Packable() {
			t.Fatalf("%s: census shape is not packable", s.name)
		}
		space := 0
		for _, p := range sp.Params {
			space += ir.ScalarBits(p.Ty)
		}
		cmax := uint64(1) << uint(space)
		if r := checkOracle(t, s.name, src, tgt, opts); r.Verdict != alive.Correct || !r.Exhaustive {
			t.Fatalf("%s: verdict %v, exhaustive %v", s.name, r.Verdict, r.Exhaustive)
		}
		// Lane 0 and 63 of the first group, lane 63 of a group in the
		// second dispatch, and lane 63 half way through the space.
		second := uint64(interp.PackedGroups+1)*64 + 63
		for _, k := range []uint64{0, 63, second, cmax/2 + 63} {
			if k >= cmax {
				continue
			}
			hows := []string{"flip", "poison", "ub"}
			if k > second {
				hows = hows[:1] // the reference pays for every vector before k
			}
			// Keep the lane, moving group by group to an input the source
			// is defined on.
			for !definedAt(sp, k) {
				k += 64
			}
			for _, how := range hows {
				name := fmt.Sprintf("%s %s at %d", s.name, how, k)
				r := checkOracle(t, name, src, s.wrongAt(k, how), opts)
				if r.Verdict != alive.Incorrect || uint64(r.Checked) != k+1 {
					t.Fatalf("%s: verdict %v after %d vectors", name, r.Verdict, r.Checked)
				}
			}
		}
		r := checkOracle(t, s.name+" poison only", s.frozenSrc(), tgt, opts)
		if r.Verdict != alive.Incorrect || uint64(r.Checked) <= cmax {
			t.Fatalf("%s poison only: verdict %v after %d vectors", s.name, r.Verdict, r.Checked)
		}
	}
}

// TestPackedTierMatchesReferenceOnBenchdata runs every benchdata pair with
// the default exhaustive bound, so each packable pair of at most 16 input
// bits enumerates through the packed tier.
func TestPackedTierMatchesReferenceOnBenchdata(t *testing.T) {
	opts := alive.Options{Seed: 11, Samples: 192, MemFills: 2, Programs: interp.NewCache()}
	var pairs []benchdata.Pair
	for _, c := range benchdata.RQ1Cases() {
		pairs = append(pairs, c.Pair)
	}
	for _, f := range benchdata.RQ2Findings() {
		pairs = append(pairs, f.Pair)
	}
	packed := 0
	for i, p := range pairs {
		r := checkOracle(t, fmt.Sprintf("benchdata pair %d", i), p.Src, p.Tgt, opts)
		if r.Exhaustive && interp.Compile(parser.MustParseFunc(p.Src)).Packable() &&
			interp.Compile(parser.MustParseFunc(p.Tgt)).Packable() {
			packed++
		}
	}
	if packed == 0 {
		t.Fatal("no benchdata pair ran on the packed tier")
	}
	t.Logf("%d of %d pairs enumerated on the packed tier", packed, len(pairs))
}

// TestPackedTierMatchesReferenceOnLearnedRules re-verifies the rules the
// learning campaigns of seeds 501 and 502 produce, instantiated at i8 and
// i16: the width-sweep obligations that dominate a campaign's verify time.
func TestPackedTierMatchesReferenceOnLearnedRules(t *testing.T) {
	opts := alive.Options{Seed: 5, Programs: interp.NewCache()}
	n := 0
	for _, seed := range []uint64{501, 502} {
		e := engine.New(llm.NewSim("Gemini2.0T", seed), engine.Config{
			Rounds: 4, Learn: true, Verify: alive.Options{Samples: 1024, Seed: seed},
		})
		results, _ := e.Run(context.Background(), engine.Corpus(corpus.Options{Seed: seed}, extract.New(extract.Options{})))
		for range results {
		}
		for _, r := range e.Learned() {
			for _, w := range []int{8, 16} {
				src, tgt, err := r.Instantiate(w)
				if err != nil {
					continue // a constant with no value at this width
				}
				got, want := alive.Verify(src, tgt, opts), alive.ReferenceVerify(src, tgt, opts)
				if diff := alive.ResultsEqual(got, want); diff != "" {
					t.Fatalf("seed %d rule %s at i%d: checker and reference disagree: %s", seed, r.ID, w, diff)
				}
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("the campaigns learned no rules")
	}
	t.Logf("%d rule instances", n)
}
