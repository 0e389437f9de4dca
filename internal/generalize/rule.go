package generalize

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/opt"
)

// occKey addresses one constant operand position in a witness function.
type occKey struct {
	in  *ir.Instr
	arg int
}

// Rule is one learned, width-generalized rewrite: the verified witness pair,
// the constant abstractions lifted from it, and the widths the abstraction
// re-verified at. The exported fields are the serialization surface
// (Rulebook); the private fields are the compiled matcher state.
type Rule struct {
	// ID is content-derived: a hash of the pair instantiated at the smallest
	// verified width, so the same abstract rule learned from witnesses at
	// different widths deduplicates to one ID.
	ID string
	// Doc is the rendered pattern, e.g. "xor(and(%x, %y), or(%x, %y)) -> xor(%x, %y)".
	Doc string
	// Width is the witness pair's bit width.
	Width int
	// Widths lists every width the generalization was alive-verified at,
	// ascending. The compiled matcher only fires at these widths.
	Widths []int
	// SrcIR and TgtIR are the witness pair's .ll texts at Width.
	SrcIR, TgtIR string
	// Slots assigns one abstraction expression to each primary-width
	// constant occurrence, source occurrences first, then target.
	Slots []CExpr
	// Origin optionally records where the witness was found.
	Origin string

	src, tgt *shape
	slotAt   map[occKey]int // occurrence -> index into Slots, over src and tgt
}

// newRule assembles a Rule from analyzed shapes, the surviving slot
// assignment, and the verified widths (ascending, non-empty).
func newRule(src, tgt *shape, slots []CExpr, widths []int) (*Rule, error) {
	r := &Rule{
		Width: src.width, Widths: widths,
		SrcIR: src.fn.String(), TgtIR: tgt.fn.String(),
		Slots: slots, src: src, tgt: tgt,
	}
	r.slotAt = make(map[occKey]int, len(slots))
	for i, o := range src.occs {
		r.slotAt[occKey{o.in, o.arg}] = i
	}
	for i, o := range tgt.occs {
		r.slotAt[occKey{o.in, o.arg}] = len(src.occs) + i
	}
	w0 := widths[0]
	s0, err := instantiate(src, slots[:len(src.occs)], w0)
	if err != nil {
		return nil, err
	}
	t0, err := instantiate(tgt, slots[len(src.occs):], w0)
	if err != nil {
		return nil, err
	}
	// The content hash covers the pair at the smallest verified width AND
	// the raw slot expressions and width set: a hand-edited rulebook that
	// swaps a width-parametric slot for a literal agreeing only at w0, or
	// inserts an unverified width, must fail the load-time integrity check.
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|%016x", ir.Hash(s0), bits.RotateLeft64(ir.Hash(t0), 17))
	for _, s := range slots {
		fmt.Fprintf(h, "|%s:%d", s.Kind, s.K)
	}
	for _, w := range widths {
		fmt.Fprintf(h, "|i%d", w)
	}
	r.ID = fmt.Sprintf("learned:%016x", h.Sum64())
	r.Doc = r.renderDoc()
	return r, nil
}

// Conds renders the rule's side conditions: the verified width set plus
// every width-dependent constant derivation.
func (r *Rule) Conds() []string {
	ws := make([]string, len(r.Widths))
	for i, w := range r.Widths {
		ws[i] = fmt.Sprintf("%d", w)
	}
	out := []string{"w in {" + strings.Join(ws, ",") + "}"}
	for i, s := range r.Slots {
		if s.Parametric() {
			out = append(out, fmt.Sprintf("c%d = %s", i, s.Render()))
		}
	}
	return out
}

// RootOp is the opcode the compiled rule dispatches on.
func (r *Rule) RootOp() ir.Opcode { return r.src.root.Op }

// widthOK reports whether the rule was verified at width w.
func (r *Rule) widthOK(w int) bool {
	i := sort.SearchInts(r.Widths, w)
	return i < len(r.Widths) && r.Widths[i] == w
}

// OptRule compiles the learned rule into a registry rule (provenance
// ProvLearned) whose matcher walks the witness source pattern at any
// verified width and whose rewriter emits the re-instantiated target.
func (r *Rule) OptRule() (*opt.Rule, error) {
	return opt.NewDynamicRule(opt.DynamicSpec{
		ID:      r.ID,
		Doc:     r.Doc,
		Example: r.SrcIR,
		Roots:   []ir.Opcode{r.RootOp()},
		Apply: func(fresh func() string, in *ir.Instr, _ []*ir.Instr) ([]*ir.Instr, ir.Value, bool) {
			return r.apply(fresh, in)
		},
	})
}

// matchState is one in-flight structural match: the width the pattern is
// being matched at (0 until the first primary-width value fixes it) and the
// pattern-parameter bindings.
type matchState struct {
	r    *Rule
	w    int
	bind map[*ir.Param]ir.Value
}

// ty matches a pattern type against an actual type. Fixed widths (i1 in a
// wider pattern) must agree exactly; the primary width binds the match width
// on first contact and must be one of the rule's verified widths.
func (m *matchState) ty(pat, act ir.Type) bool {
	p, ok := pat.(ir.IntType)
	a, ok2 := act.(ir.IntType)
	if !ok || !ok2 {
		return false
	}
	if p.W != m.r.src.width {
		return a.W == p.W
	}
	if m.w == 0 {
		if !m.r.widthOK(a.W) {
			return false
		}
		m.w = a.W
	}
	return a.W == m.w
}

func sameVal(a, b ir.Value) bool {
	if a == b {
		return true
	}
	ca, ok1 := a.(*ir.ConstInt)
	cb, ok2 := b.(*ir.ConstInt)
	return ok1 && ok2 && ca.Ty == cb.Ty && ca.V == cb.V
}

func (m *matchState) value(pat, act ir.Value, patIn *ir.Instr, argIdx int) bool {
	switch p := pat.(type) {
	case *ir.Param:
		if !m.ty(p.Ty, act.Type()) {
			return false
		}
		if b, bound := m.bind[p]; bound {
			return sameVal(b, act)
		}
		m.bind[p] = act
		return true
	case *ir.ConstInt:
		c, ok := act.(*ir.ConstInt)
		if !ok || !m.ty(p.Ty, c.Ty) {
			return false
		}
		if si, isSlot := m.r.slotAt[occKey{patIn, argIdx}]; isSlot {
			want, valid := slotValue(m.r.Slots[si], occForSlot(m.r, si), m.w)
			return valid && c.V == want&ir.MaskW(m.w)
		}
		return p.Ty == c.Ty && p.V == c.V
	case *ir.Instr:
		a, ok := act.(*ir.Instr)
		return ok && m.instr(p, a)
	}
	return false
}

func occForSlot(r *Rule, si int) constOcc {
	if si < len(r.src.occs) {
		return r.src.occs[si]
	}
	return r.tgt.occs[si-len(r.src.occs)]
}

func (m *matchState) instr(pat, act *ir.Instr) bool {
	if pat.Op != act.Op || pat.IPredV != act.IPredV || pat.FPredV != act.FPredV {
		return false
	}
	// The actual instruction must carry at least the witness's poison
	// guarantees; extra flags only make the source more defined.
	if !act.Flags.Has(pat.Flags) {
		return false
	}
	if !m.ty(pat.Ty, act.Ty) {
		return false
	}
	if pat.Op == ir.OpCall {
		base := ir.IntrinsicBase(pat.Callee)
		if act.Callee != ir.IntrinsicName(base, ir.IntT(m.w)) {
			return false
		}
	}
	if len(pat.Args) != len(act.Args) {
		return false
	}
	for i := range pat.Args {
		if !m.value(pat.Args[i], act.Args[i], pat, i) {
			return false
		}
	}
	return true
}

// apply matches the source pattern rooted at in and, on success, emits the
// target instantiated at the matched width with the matched bindings.
func (r *Rule) apply(fresh func() string, in *ir.Instr) ([]*ir.Instr, ir.Value, bool) {
	if r.src.root == nil || in.Op != r.src.root.Op {
		return nil, nil, false
	}
	m := &matchState{r: r, bind: make(map[*ir.Param]ir.Value)}
	if !m.instr(r.src.root, in) || m.w == 0 {
		return nil, nil, false
	}
	// Target parameters mirror source parameters positionally (alive
	// enforces signature equality), so bindings carry over by index.
	vmap := make(map[ir.Value]ir.Value, len(r.tgt.fn.Params)+r.tgt.ninstr)
	for i, p := range r.tgt.fn.Params {
		if b := m.bind[r.src.fn.Params[i]]; b != nil {
			vmap[p] = b
		}
	}
	mapTy := func(t ir.Type) ir.Type {
		if it, ok := t.(ir.IntType); ok && it.W == r.tgt.width {
			return ir.IntT(m.w)
		}
		return t
	}
	emitArg := func(a ir.Value, in *ir.Instr, ai int) (ir.Value, bool) {
		if c, ok := a.(*ir.ConstInt); ok {
			if si, isSlot := r.slotAt[occKey{in, ai}]; isSlot {
				v, valid := slotValue(r.Slots[si], occForSlot(r, si), m.w)
				if !valid {
					return nil, false
				}
				return &ir.ConstInt{Ty: ir.IntT(m.w), V: v & ir.MaskW(m.w)}, true
			}
			return c, true
		}
		v, ok := vmap[a]
		return v, ok && v != nil
	}
	var news []*ir.Instr
	tb := r.tgt.fn.Blocks[0]
	for _, ti := range tb.Instrs[:r.tgt.ninstr] {
		ni := &ir.Instr{
			Op: ti.Op, Nm: fresh(), Ty: mapTy(ti.Ty), IPredV: ti.IPredV,
			FPredV: ti.FPredV, Flags: ti.Flags, Align: ti.Align,
		}
		if ti.Op == ir.OpCall {
			ni.Callee = ir.IntrinsicName(ir.IntrinsicBase(ti.Callee), ni.Ty)
		}
		for ai, a := range ti.Args {
			v, ok := emitArg(a, ti, ai)
			if !ok {
				return nil, nil, false
			}
			ni.Args = append(ni.Args, v)
		}
		vmap[ti] = ni
		news = append(news, ni)
	}
	repl, ok := emitArg(r.tgt.ret, tb.Instrs[r.tgt.ninstr], 0)
	if !ok {
		return nil, nil, false
	}
	return news, repl, true
}

// renderDoc prints the rule as "src-expr -> tgt-expr" with slot expressions
// inlined, the registry's one-line pattern convention.
func (r *Rule) renderDoc() string {
	return r.renderShape(r.src, 0) + " -> " + r.renderShape(r.tgt, len(r.src.occs))
}

func (r *Rule) renderShape(sh *shape, base int) string {
	slotAt := make(map[occKey]int, len(sh.occs))
	for i, o := range sh.occs {
		slotAt[occKey{o.in, o.arg}] = base + i
	}
	var render func(v ir.Value, in *ir.Instr, ai int) string
	render = func(v ir.Value, in *ir.Instr, ai int) string {
		switch x := v.(type) {
		case *ir.Param:
			return "%" + x.Nm
		case *ir.ConstInt:
			if si, ok := slotAt[occKey{in, ai}]; ok {
				return r.Slots[si].Render()
			}
			return x.Ident()
		case *ir.Instr:
			name := x.Op.Name()
			switch x.Op {
			case ir.OpICmp:
				name += " " + x.IPredV.Name()
			case ir.OpFCmp:
				name += " " + x.FPredV.Name()
			case ir.OpCall:
				name = ir.IntrinsicBase(x.Callee)
			}
			parts := make([]string, len(x.Args))
			for i, a := range x.Args {
				parts[i] = render(a, x, i)
			}
			return name + "(" + strings.Join(parts, ", ") + ")"
		}
		return v.Ident()
	}
	ret := sh.fn.Blocks[0].Instrs[sh.ninstr]
	return render(sh.ret, ret, 0)
}

// Instantiate rebuilds the rule's source and target at width w, each
// constant slot taking its abstraction's value there.
func (r *Rule) Instantiate(w int) (src, tgt *ir.Func, err error) {
	if src, err = instantiate(r.src, r.Slots[:len(r.src.occs)], w); err != nil {
		return nil, nil, err
	}
	if tgt, err = instantiate(r.tgt, r.Slots[len(r.src.occs):], w); err != nil {
		return nil, nil, err
	}
	return src, tgt, nil
}

// OptRules compiles a batch of learned rules into registry rules, preserving
// order and skipping nothing: any rule that fails to compile aborts the
// batch (a rulebook with one bad entry should not half-load).
func OptRules(rules []*Rule) ([]*opt.Rule, error) {
	out := make([]*opt.Rule, 0, len(rules))
	for _, r := range rules {
		or, err := r.OptRule()
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", r.ID, err)
		}
		out = append(out, or)
	}
	return out, nil
}
