package opt

import (
	"repro/internal/ir"
)

// This file holds the baseline InstCombine-style rewrites: rules that replace
// an instruction with one or more new instructions (or an existing value).
// They register themselves in the rule registry (rules.go) with baseline
// provenance, so they are always enabled; dispatch happens through the
// RuleSet's opcode-indexed table, never by scanning unrelated rules.

func baselineRewriteRules() []*Rule {
	return []*Rule{
		{
			ID: "baseline:select-minmax", Name: "baseline:select-minmax", Provenance: ProvBaseline,
			Roots: []ir.Opcode{ir.OpSelect},
			Doc:   "select (icmp pred A, B), A, B -> smin/smax/umin/umax(A, B)",
			Example: `define i32 @f(i32 %a, i32 %b) {
  %c = icmp slt i32 %a, %b
  %r = select i1 %c, i32 %a, i32 %b
  ret i32 %r
}`,
			apply: rewriteSelectToMinMax,
		},
		{
			ID: "baseline:select-not", Name: "baseline:select-not", Provenance: ProvBaseline,
			Roots: []ir.Opcode{ir.OpSelect},
			Doc:   "select C, false, true -> xor C, true",
			Example: `define i1 @f(i1 %c) {
  %r = select i1 %c, i1 false, i1 true
  ret i1 %r
}`,
			apply: rewriteSelectBoolInvert,
		},
		{
			ID: "baseline:zext-trunc", Name: "baseline:zext-trunc", Provenance: ProvBaseline,
			Roots: []ir.Opcode{ir.OpZExt},
			Doc:   "zext (trunc X) -> and X, lowmask (or X itself for trunc nuw)",
			Example: `define i32 @f(i32 %x) {
  %t = trunc i32 %x to i8
  %r = zext i8 %t to i32
  ret i32 %r
}`,
			apply: rewriteZextOfTrunc,
		},
		{
			ID: "baseline:and-zext-cover", Name: "baseline:and-zext-cover", Provenance: ProvBaseline,
			Roots: []ir.Opcode{ir.OpAnd},
			Doc:   "and (zext X), C -> zext X when C covers every bit X can set",
			Example: `define i32 @f(i8 %x) {
  %z = zext i8 %x to i32
  %r = and i32 %z, 255
  ret i32 %r
}`,
			apply: rewriteAndOfZextCover,
		},
		{
			ID: "baseline:divrem-pow2", Name: "baseline:divrem-pow2", Provenance: ProvBaseline,
			Roots: []ir.Opcode{ir.OpUDiv, ir.OpURem},
			Doc:   "udiv/urem X, 2^k -> lshr X, k / and X, 2^k-1",
			Example: `define i32 @f(i32 %x) {
  %r = udiv i32 %x, 8
  ret i32 %r
}`,
			apply: rewriteUdivUremPow2,
		},
	}
}

// rewriteSelectToMinMax canonicalizes select(icmp pred A, B), A, B (and the
// swapped-arm form) into the matching min/max intrinsic, as InstCombine does
// for directly-matching operand shapes.
func rewriteSelectToMinMax(t *transform, in *ir.Instr, _ []*ir.Instr) ([]*ir.Instr, ir.Value, bool) {
	if in.Op != ir.OpSelect || !ir.IsInt(in.Ty) {
		return nil, nil, false
	}
	cmp, ok := in.Args[0].(*ir.Instr)
	if !ok || cmp.Op != ir.OpICmp {
		return nil, nil, false
	}
	a, b := cmp.Args[0], cmp.Args[1]
	tv, fv := in.Args[1], in.Args[2]
	if !ir.Equal(a.Type(), in.Ty) {
		return nil, nil, false
	}
	var pred ir.IPred
	switch {
	case sameValue(tv, a) && sameValue(fv, b):
		pred = cmp.IPredV
	case sameValue(tv, b) && sameValue(fv, a):
		pred = cmp.IPredV.Inverse()
	default:
		return nil, nil, false
	}
	var base string
	switch pred {
	case ir.SLT, ir.SLE:
		base = "smin"
	case ir.SGT, ir.SGE:
		base = "smax"
	case ir.ULT, ir.ULE:
		base = "umin"
	case ir.UGT, ir.UGE:
		base = "umax"
	default:
		return nil, nil, false
	}
	call := ir.CallI(t.freshName(), ir.IntrinsicName(base, in.Ty), in.Ty, tv, fv)
	return []*ir.Instr{call}, call, true
}

// rewriteSelectBoolInvert rewrites select C, false, true -> xor C, true.
func rewriteSelectBoolInvert(t *transform, in *ir.Instr, _ []*ir.Instr) ([]*ir.Instr, ir.Value, bool) {
	if in.Op != ir.OpSelect || !ir.Equal(in.Ty, ir.I1) || ir.IsVector(in.Args[0].Type()) {
		return nil, nil, false
	}
	tc, okT := constIntOf(in.Args[1])
	fc, okF := constIntOf(in.Args[2])
	if !okT || !okF || tc&1 != 0 || fc&1 != 1 {
		return nil, nil, false
	}
	x := ir.Bin(ir.OpXor, t.freshName(), ir.NoFlags, in.Args[0], ir.CBool(true))
	return []*ir.Instr{x}, x, true
}

// rewriteZextOfTrunc rewrites zext (trunc X) back to X's type as a mask:
// plain trunc -> and X, lowmask; trunc nuw -> X itself.
func rewriteZextOfTrunc(t *transform, in *ir.Instr, _ []*ir.Instr) ([]*ir.Instr, ir.Value, bool) {
	if in.Op != ir.OpZExt {
		return nil, nil, false
	}
	inner, ok := asInstr(in.Args[0], ir.OpTrunc)
	if !ok || !ir.Equal(inner.Args[0].Type(), in.Ty) {
		return nil, nil, false
	}
	if inner.Flags.Has(ir.NUW) {
		return nil, inner.Args[0], true
	}
	lowBits := scalarWidth(inner)
	mask := ir.SplatInt(in.Ty, int64(ir.MaskW(lowBits)))
	and := ir.Bin(ir.OpAnd, t.freshName(), ir.NoFlags, inner.Args[0], mask)
	return []*ir.Instr{and}, and, true
}

// rewriteAndOfZextCover simplifies and (zext X), C -> zext X when C covers
// every bit X can set.
func rewriteAndOfZextCover(_ *transform, in *ir.Instr, _ []*ir.Instr) ([]*ir.Instr, ir.Value, bool) {
	if in.Op != ir.OpAnd {
		return nil, nil, false
	}
	inner, ok := asInstr(in.Args[0], ir.OpZExt)
	if !ok {
		return nil, nil, false
	}
	c, ok2 := constIntOf(in.Args[1])
	if !ok2 {
		return nil, nil, false
	}
	innerBits := scalarWidth(inner.Args[0])
	if c&ir.MaskW(innerBits) == ir.MaskW(innerBits) {
		return nil, inner, true
	}
	return nil, nil, false
}

// rewriteUdivUremPow2 rewrites unsigned division and remainder by powers of
// two into shifts and masks.
func rewriteUdivUremPow2(t *transform, in *ir.Instr, _ []*ir.Instr) ([]*ir.Instr, ir.Value, bool) {
	if in.Op != ir.OpUDiv && in.Op != ir.OpURem {
		return nil, nil, false
	}
	c, ok := constIntOf(in.Args[1])
	if !ok || c == 0 || c&(c-1) != 0 {
		return nil, nil, false
	}
	k := int64(0)
	for v := c; v > 1; v >>= 1 {
		k++
	}
	if in.Op == ir.OpUDiv {
		flags := ir.NoFlags
		if in.Flags.Has(ir.Exact) {
			flags = ir.Exact
		}
		sh := ir.Bin(ir.OpLShr, t.freshName(), flags, in.Args[0], ir.SplatInt(in.Ty, k))
		return []*ir.Instr{sh}, sh, true
	}
	and := ir.Bin(ir.OpAnd, t.freshName(), ir.NoFlags, in.Args[0], ir.SplatInt(in.Ty, int64(c-1)))
	return []*ir.Instr{and}, and, true
}
