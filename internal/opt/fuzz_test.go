package opt

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alive"
	"repro/internal/ir"
)

// randFunc builds a random straight-line integer function with poison flags
// and min/max intrinsics — the space the optimizer operates on.
func randFunc(rng *rand.Rand) *ir.Func {
	widths := []ir.IntType{ir.I8, ir.I16, ir.I32}
	ty := widths[rng.Intn(len(widths))]
	nParams := 1 + rng.Intn(2)
	var params []*ir.Param
	var values []ir.Value
	for i := 0; i < nParams; i++ {
		p := &ir.Param{Nm: fmt.Sprintf("a%d", i), Ty: ty}
		params = append(params, p)
		values = append(values, p)
	}
	ops := []ir.Opcode{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr,
		ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpUDiv, ir.OpURem}
	var instrs []*ir.Instr
	n := 2 + rng.Intn(5)
	for i := 0; i < n; i++ {
		var in *ir.Instr
		switch rng.Intn(8) {
		case 0: // intrinsic min/max
			bases := []string{"umin", "umax", "smin", "smax"}
			base := bases[rng.Intn(len(bases))]
			a := values[rng.Intn(len(values))]
			b := ir.Value(ir.CInt(ty, int64(rng.Intn(256))))
			if rng.Intn(2) == 0 {
				b = values[rng.Intn(len(values))]
			}
			in = ir.CallI(fmt.Sprintf("v%d", i), ir.IntrinsicName(base, ty), ty, a, b)
		case 1: // icmp + select
			a := values[rng.Intn(len(values))]
			preds := []ir.IPred{ir.EQ, ir.NE, ir.ULT, ir.SLT, ir.SGT, ir.UGT}
			cmp := ir.ICmpI(fmt.Sprintf("c%d", i), preds[rng.Intn(len(preds))],
				a, ir.CInt(ty, int64(rng.Intn(64))))
			instrs = append(instrs, cmp)
			in = ir.Sel(fmt.Sprintf("v%d", i), cmp,
				values[rng.Intn(len(values))], values[rng.Intn(len(values))])
		default:
			op := ops[rng.Intn(len(ops))]
			a := values[rng.Intn(len(values))]
			var b ir.Value
			switch op {
			case ir.OpShl, ir.OpLShr, ir.OpAShr:
				b = ir.CInt(ty, int64(rng.Intn(ty.W+2))) // may exceed width: poison
			case ir.OpUDiv, ir.OpURem:
				b = ir.CInt(ty, int64(rng.Intn(16))) // may be zero: must not fold
			default:
				if rng.Intn(2) == 0 {
					b = values[rng.Intn(len(values))]
				} else {
					b = ir.CInt(ty, int64(rng.Intn(512)-128))
				}
			}
			var flags ir.Flags
			if op == ir.OpAdd || op == ir.OpSub || op == ir.OpMul || op == ir.OpShl {
				if rng.Intn(3) == 0 {
					flags |= ir.NUW
				}
				if rng.Intn(3) == 0 {
					flags |= ir.NSW
				}
			}
			in = ir.Bin(op, fmt.Sprintf("v%d", i), flags, a, b)
		}
		instrs = append(instrs, in)
		values = append(values, in)
	}
	last := instrs[len(instrs)-1]
	instrs = append(instrs, ir.RetI(last))
	return &ir.Func{Name: "fuzz", Ret: ty, Params: params,
		Blocks: []*ir.Block{{Name: "entry", Instrs: instrs}}}
}

// TestFuzzOptimizerRefinement is the repository's strongest correctness
// coupling: on hundreds of random functions, the optimizer's output (with
// the baseline rules, with each patch, and with the full knowledge base)
// must verify as a refinement of its input, and must be idempotent.
func TestFuzzOptimizerRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(20260611))
	configs := []struct {
		name  string
		rules []string
	}{
		{"baseline", nil},
		{"all-patches", PatchIDs()},
		{"knowledge-base", AllRuleNames()},
	}
	iters := 120
	if testing.Short() {
		iters = 25
	}
	for i := 0; i < iters; i++ {
		f := randFunc(rng)
		if err := ir.VerifyFunc(f); err != nil {
			t.Fatalf("generator produced invalid IR: %v\n%s", err, f)
		}
		for _, cfg := range configs {
			g := Run(f, Options{Rules: NewRuleSet(cfg.rules...)})
			if err := ir.VerifyFunc(g); err != nil {
				t.Fatalf("[%s] optimizer produced invalid IR: %v\ninput:\n%s\noutput:\n%s",
					cfg.name, err, f, g)
			}
			r := alive.Verify(f, g, alive.Options{Samples: 384, Seed: uint64(i)})
			if r.Verdict != alive.Correct {
				t.Fatalf("[%s] optimizer broke refinement on fuzz case %d:\ninput:\n%s\noutput:\n%s\n%s",
					cfg.name, i, f, g, r.CE.Format())
			}
			g2 := Run(g, Options{Rules: NewRuleSet(cfg.rules...)})
			if ir.Hash(g) != ir.Hash(g2) {
				t.Fatalf("[%s] optimizer not idempotent on fuzz case %d:\nfirst:\n%s\nsecond:\n%s",
					cfg.name, i, g, g2)
			}
		}
	}
}

// TestFuzzExtremeConstants drives the optimizer over boundary constants
// (INT_MIN, -1, width-1 shifts) where wrap/poison bugs hide.
func TestFuzzExtremeConstants(t *testing.T) {
	consts := []int64{0, 1, -1, 127, -128, 128, 255, -127}
	ops := []ir.Opcode{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem}
	for _, op := range ops {
		for _, c1 := range consts {
			for _, c2 := range consts {
				x := &ir.Param{Nm: "x", Ty: ir.I8}
				a := ir.Bin(op, "a", ir.NoFlags, x, ir.CInt(ir.I8, c1))
				b := ir.Bin(op, "b", ir.NoFlags, a, ir.CInt(ir.I8, c2))
				f := ir.NewFunc("f", ir.I8, []*ir.Param{x}, []*ir.Instr{a, b, ir.RetI(b)})
				g := RunO3(f)
				r := alive.Verify(f, g, alive.Options{Seed: 1}) // 8 bits: exhaustive
				if r.Verdict != alive.Correct {
					t.Fatalf("%s with %d then %d broke refinement:\n%s\n->\n%s\n%s",
						op.Name(), c1, c2, f, g, r.CE.Format())
				}
			}
		}
	}
}
