// Package minotaur reimplements the behaviourally relevant surface of the
// Minotaur superoptimizer (Liu et al.): a synthesizing superoptimizer
// focused on integer SIMD code. Its window support is wider than Souper's in
// the vector/min-max direction but much narrower elsewhere, and — as the
// paper observes on the Figure 4c case — it crashes outright on scalar
// floating point inputs.
//
// Synthesis is shallow: leaf candidates (arguments and zero) for any
// window, plus depth-1 combinations of vector components for vector-typed
// windows. This reproduces the paper's findings that Minotaur detects only
// identity/zero rewrites and single vector-op rewrites, and misses
// everything needing casts, selects, or multi-instruction replacements.
package minotaur

import (
	"math/rand"

	"repro/internal/alive"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Options configures a run.
type Options struct {
	Seed uint64
}

// numTestVectors is how many random inputs filter candidates before
// verification.
const numTestVectors = 32

// Result reports a run.
type Result struct {
	Found          bool
	Candidate      *ir.Func
	Crashed        bool // scalar FP input: the paper's observed crash
	Unsupported    bool
	Reason         string
	VirtualSeconds float64
}

// components usable for depth-1 vector synthesis.
var components = []struct {
	op        ir.Opcode
	intrinsic string
}{
	{op: ir.OpAnd}, {op: ir.OpOr}, {op: ir.OpXor},
	{intrinsic: "umin"}, {intrinsic: "umax"}, {intrinsic: "smin"}, {intrinsic: "smax"},
}

// Optimize attempts to find a cheaper replacement for src.
func Optimize(src *ir.Func, opts Options) Result {
	res := Result{VirtualSeconds: 0.9}
	for _, in := range src.Instrs() {
		switch in.Op {
		case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFNeg, ir.OpFCmp:
			res.Crashed = true
			res.Reason = "crash while lifting floating point instruction " + in.Op.Name()
			return res
		}
	}
	for _, p := range src.Params {
		if ir.IsFloat(p.Ty) {
			res.Crashed = true
			res.Reason = "crash while lifting floating point argument"
			return res
		}
	}
	if reason, ok := supported(src); !ok {
		res.Unsupported = true
		res.Reason = reason
		return res
	}

	rng := rand.New(rand.NewSource(int64(opts.Seed) ^ 0x3107a))
	vectors := make([][]interp.RVal, 0, numTestVectors)
	for len(vectors) < numTestVectors {
		args := make([]interp.RVal, len(src.Params))
		for i, p := range src.Params {
			args[i] = randomVal(p.Ty, rng)
		}
		vectors = append(vectors, args)
	}
	// Each candidate that passes the size check gets a checker seeded with
	// the filter — the test vectors on which src returns a poison-free
	// value — and every function compiles once through progs. CEGIS: a
	// counterexample joins the filter for every later candidate.
	progs := interp.NewCache()
	var filter []alive.PoolVector
	for _, v := range vectors {
		if r := interp.Exec(src, interp.Env{Args: v}); r.Completed && !r.UB && !r.Ret.AnyPoison() {
			filter = append(filter, alive.PoolVector{Inputs: v})
		}
	}
	srcInstrs := src.NumInstrs(true)

	try := func(cand *ir.Func) bool {
		res.VirtualSeconds += 0.05
		if cand.NumInstrs(true) >= srcInstrs {
			return false
		}
		c := alive.NewChecker(src, cand, alive.Options{Samples: 1024, Seed: opts.Seed, Programs: progs})
		c.Seed(filter)
		v := c.Verify()
		c.Release()
		if v.Verdict == alive.Correct {
			res.Found = true
			res.Candidate = cand
			return true
		}
		if v.Verdict == alive.Incorrect && v.Tiers.KillTier != alive.TierPool && v.CE.Filterable() {
			filter = append(filter, alive.PoolVector{Inputs: v.CE.Inputs})
		}
		return false
	}

	// Leaf candidates: each argument of the return type, and zero.
	var leaves []ir.Value
	for _, p := range src.Params {
		if ir.Equal(p.Ty, src.Ret) {
			leaves = append(leaves, p)
		}
	}
	if ir.IsInt(src.Ret) {
		leaves = append(leaves, ir.ZeroValue(src.Ret))
	}
	for _, l := range leaves {
		if try(leafFunc(src, l)) {
			return res
		}
	}
	// Depth-1 synthesis for vector windows only.
	if ir.IsVector(src.Ret) && ir.IsInt(src.Ret) {
		for _, comp := range components {
			for ai, a := range leaves {
				for bi, b := range leaves {
					if ai == bi {
						continue
					}
					if try(depth1Func(src, comp.op, comp.intrinsic, a, b)) {
						return res
					}
				}
			}
		}
	}
	return res
}

// supported reports whether Minotaur's lifter accepts every instruction.
func supported(f *ir.Func) (string, bool) {
	if len(f.Blocks) != 1 {
		return "control flow is not supported", false
	}
	if ir.IsVoid(f.Ret) {
		return "void results are not supported", false
	}
	for _, p := range f.Params {
		if ir.IsPtr(p.Ty) {
			return "memory is not supported", false
		}
	}
	for _, in := range f.Instrs() {
		switch in.Op {
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
			ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpRet:
		case ir.OpCall:
			switch ir.IntrinsicBase(in.Callee) {
			case "umin", "umax", "smin", "smax":
			default:
				return "intrinsic @" + in.Callee + " is not supported", false
			}
		default:
			return in.Op.Name() + " is not supported", false
		}
	}
	return "", true
}

func randomVal(ty ir.Type, rng *rand.Rand) interp.RVal {
	lanes := ir.Lanes(ty)
	w := ir.ScalarBits(ir.Elem(ty))
	rv := interp.RVal{Ty: ty, Lanes: make([]interp.Word, lanes)}
	for l := 0; l < lanes; l++ {
		rv.Lanes[l] = interp.Word{V: rng.Uint64() & ir.MaskW(w)}
	}
	return rv
}

func leafFunc(src *ir.Func, v ir.Value) *ir.Func {
	g := &ir.Func{Name: "minotaur", Ret: src.Ret}
	vmap := map[ir.Value]ir.Value{}
	for _, p := range src.Params {
		np := &ir.Param{Nm: p.Nm, Ty: p.Ty}
		g.Params = append(g.Params, np)
		vmap[p] = np
	}
	rv := v
	if m, ok := vmap[v]; ok {
		rv = m
	}
	g.Blocks = []*ir.Block{{Name: "entry", Instrs: []*ir.Instr{ir.RetI(rv)}}}
	return g
}

func depth1Func(src *ir.Func, op ir.Opcode, intrinsic string, a, b ir.Value) *ir.Func {
	g := &ir.Func{Name: "minotaur", Ret: src.Ret}
	vmap := map[ir.Value]ir.Value{}
	for _, p := range src.Params {
		np := &ir.Param{Nm: p.Nm, Ty: p.Ty}
		g.Params = append(g.Params, np)
		vmap[p] = np
	}
	m := func(v ir.Value) ir.Value {
		if nv, ok := vmap[v]; ok {
			return nv
		}
		return v
	}
	var in *ir.Instr
	if intrinsic != "" {
		in = ir.CallI("m0", ir.IntrinsicName(intrinsic, src.Ret), src.Ret, m(a), m(b))
	} else {
		in = ir.Bin(op, "m0", ir.NoFlags, m(a), m(b))
	}
	g.Blocks = []*ir.Block{{Name: "entry", Instrs: []*ir.Instr{in, ir.RetI(in)}}}
	return g
}
