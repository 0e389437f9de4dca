package main

import (
	"fmt"
	"math/rand"

	"repro/internal/benchdata"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/parser"
)

// window is one generated lpod submission: the raw .ll text a client POSTs
// and the structural hash the daemon will key it by.
type window struct {
	text    string
	hash    uint64
	planted bool
}

// plantEvery makes one generated window in five carry a planted pattern.
const plantEvery = 5

// fillerOps are the straight-line integer operations generated code uses.
var fillerOps = []ir.Opcode{
	ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
	ir.OpShl, ir.OpLShr, ir.OpAShr,
}

// plantable returns the RQ2 finding sources that return a scalar integer of
// at least 8 bits, parsed once: those accept an arithmetic filler suffix on
// their result without changing the pattern the knowledge base closes.
func plantable() []*ir.Func {
	var out []*ir.Func
	for _, f := range benchdata.RQ2Findings() {
		fn, err := parser.ParseFunc(f.Pair.Src)
		if err != nil {
			continue
		}
		if t, ok := fn.Ret.(ir.IntType); ok && t.W >= 8 && len(fn.Blocks) == 1 {
			out = append(out, fn)
		}
	}
	return out
}

// generateWindows returns n windows with pairwise distinct structural
// hashes, identical for the same seed. Every plantEvery-th window is an RQ2
// pattern the knowledge base closes, composed with a seeded filler suffix on
// its result; the rest are seeded straight-line filler that no knowledge-base
// rule rewrites, so the simulated provider has nothing to propose for them.
func generateWindows(seed uint64, n int) []window {
	rng := rand.New(rand.NewSource(int64(seed)*0x9e3779b9 + 7))
	kb := opt.Options{Rules: opt.FullRuleSet()}
	plants := plantable()
	seen := make(map[uint64]bool, n)
	out := make([]window, 0, n)
	for len(out) < n {
		planted := len(out)%plantEvery == 0
		var fn *ir.Func
		if planted {
			fn = ir.CloneFunc(plants[rng.Intn(len(plants))])
			appendSuffix(rng, fn, 1+rng.Intn(3))
		} else {
			fn = fillerFunc(rng)
		}
		h := ir.Hash(fn)
		if seen[h] {
			continue
		}
		// A planted window must stay closable and a filler window must stay
		// out of the knowledge base's reach; redraw whatever does not.
		if closes := ir.Hash(opt.Run(fn, kb)) != h; closes != planted {
			continue
		}
		fn.Name = fmt.Sprintf("w%d", len(out))
		text := fn.String()
		seen[h] = true
		out = append(out, window{text: text, hash: h, planted: planted})
	}
	return out
}

// randConst draws a non-zero constant for an operation on type t: shift
// amounts stay below the width, other operands span the whole type.
func randConst(rng *rand.Rand, op ir.Opcode, t ir.IntType) *ir.ConstInt {
	switch op {
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		return ir.CInt(t, int64(1+rng.Intn(t.W-1)))
	}
	return ir.CInt(t, int64(1+rng.Uint64()%(ir.MaskW(t.W)-1)))
}

// appendSuffix threads k filler operations onto fn's returned value.
func appendSuffix(rng *rand.Rand, fn *ir.Func, k int) {
	bb := fn.Blocks[len(fn.Blocks)-1]
	ret := bb.Terminator()
	v := ret.Args[0]
	t := v.Type().(ir.IntType)
	body := bb.Instrs[:len(bb.Instrs)-1]
	for i := 0; i < k; i++ {
		op := fillerOps[rng.Intn(len(fillerOps))]
		in := ir.Bin(op, fmt.Sprintf("sfx%d", i), ir.NoFlags, v, randConst(rng, op, t))
		body = append(body, in)
		v = in
	}
	ret.Args[0] = v
	bb.Instrs = append(body, ret)
}

// fillerFunc builds a seeded straight-line function: one integer width,
// one to three parameters and two to seven operations over parameters,
// earlier results and constants.
func fillerFunc(rng *rand.Rand) *ir.Func {
	widths := []ir.IntType{ir.I8, ir.I16, ir.I32, ir.I64}
	t := widths[rng.Intn(len(widths))]
	var params []*ir.Param
	var vals []ir.Value
	nParams, nOps := 1+rng.Intn(3), 2+rng.Intn(6)
	for i := 0; i < nParams; i++ {
		p := &ir.Param{Nm: fmt.Sprintf("a%d", i), Ty: t}
		params = append(params, p)
		vals = append(vals, p)
	}
	var body []*ir.Instr
	for i := 0; i < nOps; i++ {
		op := fillerOps[rng.Intn(len(fillerOps))]
		a := vals[rng.Intn(len(vals))]
		var b ir.Value = randConst(rng, op, t)
		if op != ir.OpShl && op != ir.OpLShr && op != ir.OpAShr && rng.Intn(2) == 0 {
			b = vals[rng.Intn(len(vals))]
		}
		in := ir.Bin(op, fmt.Sprintf("v%d", i), ir.NoFlags, a, b)
		body = append(body, in)
		vals = append(vals, in)
	}
	body = append(body, ir.RetI(body[len(body)-1]))
	return &ir.Func{Ret: t, Params: params, Blocks: []*ir.Block{{Name: "entry", Instrs: body}}}
}
