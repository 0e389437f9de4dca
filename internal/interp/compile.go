package interp

// Compile-once execution: Compile lowers a function into a Program — every
// SSA value numbered into a dense register slot, constants materialized into
// an immutable pool, vector constants with run-time elements lowered to
// per-lane gathers, block successors and phi edges resolved to indices — and
// an Evaluator (evaluator.go) executes the Program over batches of input
// vectors with reusable scratch storage. Results are bit-identical to Exec:
// both engines call the same per-opcode kernels, and runtime-dependent errors
// (unbound values, unknown branch targets, unsupported opcodes) are still
// raised at the execution step that reaches them, never at compile time.

import (
	"repro/internal/ir"
)

// Program is a function compiled for repeated execution. It is immutable
// after Compile and may be shared by any number of Evaluators concurrently.
type Program struct {
	regLanes []int32 // lanes per register
	regOff   []int32 // arena word offset per register
	arenaLen int     // total words across all registers
	paramReg []int32 // register index per function parameter

	consts []RVal   // constant pool
	code   []cinstr // all instructions, blocks back to back
	blocks []cblock

	// straight marks the fast path: a single block with no phi and no br
	// whose every operand (and every element of a dynamic vector operand)
	// is a parameter, a constant, or an earlier instruction of the block.
	// Straight programs skip per-lane defined-register bookkeeping and
	// block dispatch entirely.
	straight bool

	// hasMem marks programs touching memory (load/store/gep). Batched
	// executions of such programs carry one Memory per lane.
	hasMem bool

	// Batch plan (planBatch), fixed at Compile: each instruction's batch
	// kernel, and per constant pool slot the word offset of its broadcast
	// column in an evaluator's constant arena (-1: none), constWords long.
	kinds      []batchKind
	constOff   []int32
	constWords int

	// pk is the packed tier's plan (packed.go); nil when p is not
	// packable.
	pk *packedPlan
}

type cblock struct {
	name       string
	start, end int32 // span in Program.code
}

// guard is one runtime check an instruction performs before it runs,
// reproducing the operand materialization errors of state.operand.
type guard struct {
	k   int32    // operand position the guard belongs to
	reg int32    // register that must hold a bound value; -1: always faults
	v   ir.Value // the value read: reg's value, or the one that cannot be materialized
}

// why is the UB reason raised when the guard fails.
func (g *guard) why() string { return "use of unbound value " + g.v.Ident() }

// gather assembles a dynamic vector operand — a splat or vector constant
// whose elements are computed at run time — into its own register before
// the consuming instruction runs: lane l takes lane 0 of register
// elems[l].reg, or the constant elems[l].w when that is -1.
type gather struct {
	k     int32 // operand position
	reg   int32
	elems []gatherElem
}

type gatherElem struct {
	reg int32
	w   Word
}

type cinstr struct {
	in  *ir.Instr
	dst int32 // result register, -1 for void results

	// args maps operand positions to storage: values >= 0 are register
	// indices, values < 0 are const-pool indices encoded as ^idx.
	args []int32

	// checks lists the runtime guards in operand evaluation order
	// (possibly-unbound registers, including elements of dynamic vector
	// operands, and operands that always fault). The first failing guard
	// names the UB. Empty on the fast path.
	checks []guard

	// gathers fills the registers of the instruction's dynamic vector
	// operands; gathering counts no step, as in Exec.
	gathers []gather

	// succ holds the pre-resolved successor block indices for OpBr
	// (-1 when the label names no block).
	succ [2]int32

	// intr is the resolved intrinsic of an OpCall (intrNone otherwise).
	intr intrinsic

	// phiPred holds, per incoming phi edge, the index of the predecessor
	// block the label names (-2 when the label names no block, so it can
	// never match a real predecessor).
	phiPred []int32
}

// Compile lowers fn. It never fails: constructs the reference interpreter
// would fault on at runtime are compiled into instructions that raise the
// same UB when (and only when) an execution reaches them.
func Compile(fn *ir.Func) *Program {
	p := &Program{}

	// Pass 1: number parameters and instruction results into registers.
	reg := make(map[ir.Value]int32)
	addReg := func(lanes int) int32 {
		id := int32(len(p.regLanes))
		if lanes < 1 {
			lanes = 1
		}
		p.regOff = append(p.regOff, int32(p.arenaLen))
		p.regLanes = append(p.regLanes, int32(lanes))
		p.arenaLen += lanes
		return id
	}
	for _, prm := range fn.Params {
		reg[prm] = addReg(ir.Lanes(prm.Ty))
		p.paramReg = append(p.paramReg, reg[prm])
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.HasResult() {
				reg[in] = addReg(ir.Lanes(in.Ty))
			}
		}
	}

	blockIdx := make(map[string]int32, len(fn.Blocks))
	for i, b := range fn.Blocks {
		// First occurrence wins, matching ir.Func.BlockByName.
		if _, ok := blockIdx[b.Name]; !ok {
			blockIdx[b.Name] = int32(i)
		}
	}

	type constEntry struct {
		idx   int32
		fault ir.Value // non-nil when the constant cannot be materialized
	}
	constIdx := make(map[ir.Value]constEntry)
	internConst := func(v ir.Value) constEntry {
		if e, ok := constIdx[v]; ok {
			return e
		}
		rv, fault := materializeConst(v)
		e := constEntry{idx: int32(len(p.consts)), fault: fault}
		p.consts = append(p.consts, rv)
		constIdx[v] = e
		return e
	}

	// Pass 2: compile instructions. A register read needs a runtime guard
	// when it may be unbound: in a multi-block function any instruction
	// result may be, depending on the path taken; within a single block,
	// only one not yet defined in code order.
	multi := len(fn.Blocks) > 1
	defined := make(map[int32]bool, len(reg))
	for _, r := range p.paramReg {
		defined[r] = true
	}
	mayBeUnbound := func(r int32) bool {
		if multi {
			return !isParamReg(p, r)
		}
		return !defined[r]
	}
	p.straight = len(fn.Blocks) == 1
	for _, b := range fn.Blocks {
		cb := cblock{name: b.Name, start: int32(len(p.code))}
		for _, in := range b.Instrs {
			ci := cinstr{in: in, dst: -1, succ: [2]int32{-1, -1}}
			if in.HasResult() {
				ci.dst = reg[in]
			}
			ci.args = make([]int32, len(in.Args))
			for k, a := range in.Args {
				if r, ok := reg[a]; ok {
					ci.args[k] = r
					if mayBeUnbound(r) {
						ci.checks = append(ci.checks, guard{k: int32(k), reg: r, v: a})
					}
				} else if g, gs, ok := lowerDynamicVector(a, reg); ok {
					g.k, g.reg = int32(k), addReg(len(g.elems))
					ci.args[k] = g.reg
					ci.gathers = append(ci.gathers, g)
					for _, x := range gs {
						if x.reg < 0 || mayBeUnbound(x.reg) {
							x.k = int32(k)
							ci.checks = append(ci.checks, x)
						}
					}
				} else {
					e := internConst(a)
					ci.args[k] = ^e.idx
					if e.fault != nil {
						ci.checks = append(ci.checks, guard{k: int32(k), reg: -1, v: e.fault})
					}
				}
			}
			for _, g := range ci.checks {
				if g.reg >= 0 {
					p.straight = false
				}
			}
			switch in.Op {
			case ir.OpLoad, ir.OpStore, ir.OpGEP:
				p.hasMem = true
			case ir.OpCall:
				ci.intr = lookupIntrinsic(in.Callee)
			case ir.OpBr:
				p.straight = false
				for k := range in.Labels {
					if k > 1 {
						break
					}
					if t, ok := blockIdx[in.Labels[k]]; ok {
						ci.succ[k] = t
					}
				}
			case ir.OpPhi:
				p.straight = false
				ci.phiPred = make([]int32, len(in.Labels))
				for k, l := range in.Labels {
					ci.phiPred[k] = -2
					if t, ok := blockIdx[l]; ok {
						ci.phiPred[k] = t
					}
				}
			}
			if in.HasResult() {
				// Marks defs in execution order; only single-block
				// functions consult it.
				defined[reg[in]] = true
			}
			p.code = append(p.code, ci)
		}
		cb.end = int32(len(p.code))
		p.blocks = append(p.blocks, cb)
	}
	p.planBatch()
	p.planPacked(fn)
	return p
}

func isParamReg(p *Program, r int32) bool {
	return int(r) < len(p.paramReg)
}

// lowerDynamicVector lowers a splat or vector constant operand with an
// element computed at run time into a gather plus the guards its
// evaluation raises, in state.operand's order. ok is false for every other
// operand, including vector constants that fault before reaching a
// run-time element: those are constant-pool entries.
func lowerDynamicVector(v ir.Value, reg map[ir.Value]int32) (g gather, gs []guard, ok bool) {
	switch c := v.(type) {
	case *ir.Splat:
		var e gatherElem
		e, gs, _ = lowerElem(c.Elem, reg, nil)
		g.elems = make([]gatherElem, c.Ty.N)
		for i := range g.elems {
			g.elems[i] = e
		}
	case *ir.ConstVec:
		g.elems = make([]gatherElem, len(c.Elems))
		for i, el := range c.Elems {
			var more bool
			if g.elems[i], gs, more = lowerElem(el, reg, gs); !more {
				break
			}
		}
	default:
		return gather{}, nil, false
	}
	for _, x := range gs {
		if x.reg >= 0 {
			return g, gs, true
		}
	}
	return gather{}, nil, false
}

// lowerElem resolves the scalar an element operand contributes to a vector
// (lane 0 of its value), appending the guards its evaluation raises to gs.
// ok is false once a guard always faults: later elements are never
// evaluated.
func lowerElem(v ir.Value, reg map[ir.Value]int32, gs []guard) (e gatherElem, _ []guard, ok bool) {
	if r, isReg := reg[v]; isReg {
		return gatherElem{reg: r}, append(gs, guard{reg: r, v: v}), true
	}
	switch c := v.(type) {
	case *ir.Splat:
		return lowerElem(c.Elem, reg, gs)
	case *ir.ConstVec:
		first := gatherElem{reg: -1}
		for i, el := range c.Elems {
			if e, gs, ok = lowerElem(el, reg, gs); !ok {
				return e, gs, false
			}
			if i == 0 {
				first = e
			}
		}
		return first, gs, true
	}
	rv, fault := materializeConst(v)
	if fault != nil {
		return gatherElem{reg: -1}, append(gs, guard{reg: -1, v: fault}), false
	}
	return gatherElem{reg: -1, w: rv.Lanes[0]}, gs, true
}

// materializeConst builds the pool entry for a non-register operand. It
// mirrors state.operand's constant cases; when v cannot be materialized it
// returns the value that faults (v or one of its elements), which an
// execution reaching it reports as unbound.
func materializeConst(v ir.Value) (RVal, ir.Value) {
	switch c := v.(type) {
	case *ir.ConstInt:
		return Scalar(c.Ty, c.V), nil
	case *ir.ConstFloat:
		return Scalar(c.Ty, storeFloat(c.Ty.W, c.F)), nil
	case *ir.Null:
		return Scalar(ir.Ptr, 0), nil
	case *ir.Zero:
		return RVal{Ty: c.Ty, Lanes: make([]Word, ir.Lanes(c.Ty))}, nil
	case *ir.Undef:
		// Undef is approximated as zero, matching state.operand.
		return RVal{Ty: c.Ty, Lanes: make([]Word, ir.Lanes(c.Ty))}, nil
	case *ir.PoisonVal:
		return PoisonRV(c.Ty), nil
	case *ir.Splat:
		e, fault := materializeConst(c.Elem)
		if fault != nil {
			return RVal{}, fault
		}
		lanes := make([]Word, c.Ty.N)
		for i := range lanes {
			lanes[i] = e.Lanes[0]
		}
		return RVal{Ty: c.Ty, Lanes: lanes}, nil
	case *ir.ConstVec:
		lanes := make([]Word, len(c.Elems))
		for i, el := range c.Elems {
			e, fault := materializeConst(el)
			if fault != nil {
				return RVal{}, fault
			}
			lanes[i] = e.Lanes[0]
		}
		return RVal{Ty: c.Ty, Lanes: lanes}, nil
	}
	return RVal{}, v
}
