package interp

// Compile-once execution: Compile lowers a function into a Program — every
// SSA value numbered into a dense register slot, constants materialized into
// an immutable pool, block successors and phi edges resolved to indices —
// and an Evaluator (evaluator.go) executes the Program over many input
// vectors with reusable scratch storage, so a steady-state run performs no
// per-input allocations. Semantics are bit-identical to Exec: both engines
// call the same per-opcode kernels, and runtime-dependent errors (unbound
// values, unknown branch targets, unsupported opcodes) are still raised at
// the execution step that reaches them, never at compile time.

import (
	"repro/internal/ir"
)

// Program is a function compiled for repeated execution. It is immutable
// after Compile and may be shared by any number of Evaluators concurrently.
type Program struct {
	fn *ir.Func

	regLanes []int32 // lanes per register
	regOff   []int32 // arena word offset per register
	arenaLen int     // total words across all registers
	paramReg []int32 // register index per function parameter

	consts []constEntry
	code   []cinstr // all instructions, blocks back to back
	blocks []cblock

	// straight marks the fast path: a single block with no phi and no br
	// whose every operand is a parameter, a constant, or an earlier
	// instruction of the block. Straight programs skip per-run defined-
	// register bookkeeping and block dispatch entirely.
	straight bool

	// fallback marks the rare constructs the register machine does not
	// model (vector constants whose elements are runtime values, which the
	// reference interpreter resolves dynamically); Evaluator.Run delegates
	// such programs to Exec wholesale so semantics stay bit-identical.
	// fallbackWhy names the offending construct for diagnostics.
	fallback    bool
	fallbackWhy string

	// hasMem marks programs touching memory (load/store/gep). Batched
	// executions of such programs carry one Memory per lane.
	hasMem bool
}

// Batchable reports whether RunBatch executes p on its lane-batched path.
// Multi-block control flow runs under the masked block scheduler and
// memory-touching programs run against per-lane memories, so the only
// remaining fallback is a program the register machine cannot model at all
// (dynamic vector constants, delegated wholesale to Exec). Non-batchable
// programs still work through RunBatch — they fall back to per-vector
// execution with identical semantics.
func (p *Program) Batchable() bool { return !p.fallback }

// BatchFallbackReason describes why the program is executed per-vector by
// RunBatch, or "" for batchable programs. Historic fallback classes —
// multi-block control flow and memory access — batch natively now; only
// dynamic-vector-constant programs still bail.
func (p *Program) BatchFallbackReason() string {
	if !p.fallback {
		return ""
	}
	return p.fallbackWhy
}

// Fn returns the compiled function.
func (p *Program) Fn() *ir.Func { return p.fn }

type cblock struct {
	name       string
	start, end int32 // span in Program.code
}

// constEntry is one pre-materialized constant. Entries with ub set could not
// be materialized (e.g. a vector constant referencing an unbound value); the
// error is raised when an execution actually uses the operand, matching the
// reference interpreter.
type constEntry struct {
	rv  RVal
	ub  bool
	why string
}

type cinstr struct {
	in  *ir.Instr
	dst int32 // result register, -1 for void results

	// args maps operand positions to storage: values >= 0 are register
	// indices, values < 0 are const-pool indices encoded as ^idx.
	args []int32

	// checks lists the operand positions that need a runtime guard before
	// the kernel runs (possibly-unbound registers, unmaterializable
	// constants), in operand order. Empty on the fast path.
	checks []int32

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
	p := &Program{fn: fn}

	// Pass 1: number parameters and instruction results into registers.
	reg := make(map[ir.Value]int32)
	addReg := func(v ir.Value, ty ir.Type) int32 {
		id := int32(len(p.regLanes))
		lanes := int32(ir.Lanes(ty))
		if lanes < 1 {
			lanes = 1
		}
		p.regOff = append(p.regOff, int32(p.arenaLen))
		p.regLanes = append(p.regLanes, lanes)
		p.arenaLen += int(lanes)
		reg[v] = id
		return id
	}
	for _, prm := range fn.Params {
		p.paramReg = append(p.paramReg, addReg(prm, prm.Ty))
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.HasResult() {
				addReg(in, in.Ty)
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

	constIdx := make(map[ir.Value]int32)
	internConst := func(v ir.Value) int32 {
		if idx, ok := constIdx[v]; ok {
			return idx
		}
		if constHasDynamicElems(v, reg) {
			p.fallback = true
			if p.fallbackWhy == "" {
				p.fallbackWhy = "dynamic vector constant (elements of " + v.Ident() +
					" are computed at run time)"
			}
		}
		e := materializeConst(v, reg)
		idx := int32(len(p.consts))
		p.consts = append(p.consts, e)
		constIdx[v] = idx
		return idx
	}

	// Pass 2: compile instructions.
	defined := make(map[int32]bool, len(reg))
	for _, r := range p.paramReg {
		defined[r] = true
	}
	p.straight = len(fn.Blocks) == 1
	for bi, b := range fn.Blocks {
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
					if !defined[r] {
						// Possibly unbound at runtime: guard the read.
						ci.checks = append(ci.checks, int32(k))
						p.straight = false
					}
				} else {
					idx := internConst(a)
					ci.args[k] = ^idx
					if p.consts[idx].ub {
						ci.checks = append(ci.checks, int32(k))
					}
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
				// Within a single block this marks defs in execution order;
				// across blocks it is only used to decide which operands
				// need runtime guards, which is conservative either way
				// because bi > 0 clears straight below.
				defined[reg[in]] = true
			}
			p.code = append(p.code, ci)
		}
		cb.end = int32(len(p.code))
		p.blocks = append(p.blocks, cb)
		if bi > 0 {
			p.straight = false
		}
	}
	if len(fn.Blocks) > 1 {
		// Multi-block functions: any instruction-result operand may be
		// unbound depending on the path taken, so guard all of them.
		for i := range p.code {
			ci := &p.code[i]
			ci.checks = ci.checks[:0]
			for k, slot := range ci.args {
				if slot >= 0 && !isParamReg(p, slot) {
					ci.checks = append(ci.checks, int32(k))
				} else if slot < 0 && p.consts[^slot].ub {
					ci.checks = append(ci.checks, int32(k))
				}
			}
		}
	}
	return p
}

func isParamReg(p *Program, r int32) bool {
	return int(r) < len(p.paramReg)
}

// constHasDynamicElems reports whether v is a vector constant with an
// element that is a runtime value (parameter or instruction result). Such
// composites force the whole program onto the Exec fallback.
func constHasDynamicElems(v ir.Value, reg map[ir.Value]int32) bool {
	switch c := v.(type) {
	case *ir.Splat:
		if _, dyn := reg[c.Elem]; dyn {
			return true
		}
		return constHasDynamicElems(c.Elem, reg)
	case *ir.ConstVec:
		for _, el := range c.Elems {
			if _, dyn := reg[el]; dyn {
				return true
			}
			if constHasDynamicElems(el, reg) {
				return true
			}
		}
	}
	return false
}

// materializeConst builds the pool entry for a non-register operand. It
// mirrors state.operand's constant cases; values it cannot materialize
// become lazy-UB entries (vector constants with runtime elements are instead
// routed to the Exec fallback by constHasDynamicElems).
func materializeConst(v ir.Value, reg map[ir.Value]int32) constEntry {
	switch c := v.(type) {
	case *ir.ConstInt:
		return constEntry{rv: Scalar(c.Ty, c.V)}
	case *ir.ConstFloat:
		return constEntry{rv: Scalar(c.Ty, storeFloat(c.Ty.W, c.F))}
	case *ir.Null:
		return constEntry{rv: Scalar(ir.Ptr, 0)}
	case *ir.Zero:
		return constEntry{rv: RVal{Ty: c.Ty, Lanes: make([]Word, ir.Lanes(c.Ty))}}
	case *ir.Undef:
		// Undef is approximated as zero, matching state.operand.
		return constEntry{rv: RVal{Ty: c.Ty, Lanes: make([]Word, ir.Lanes(c.Ty))}}
	case *ir.PoisonVal:
		return constEntry{rv: PoisonRV(c.Ty)}
	case *ir.Splat:
		if _, dyn := reg[c.Elem]; dyn {
			return constEntry{ub: true, why: "use of unbound value " + c.Elem.Ident()}
		}
		e := materializeConst(c.Elem, reg)
		if e.ub {
			return e
		}
		lanes := make([]Word, c.Ty.N)
		for i := range lanes {
			lanes[i] = e.rv.Lanes[0]
		}
		return constEntry{rv: RVal{Ty: c.Ty, Lanes: lanes}}
	case *ir.ConstVec:
		lanes := make([]Word, len(c.Elems))
		for i, el := range c.Elems {
			if _, dyn := reg[el]; dyn {
				return constEntry{ub: true, why: "use of unbound value " + el.Ident()}
			}
			e := materializeConst(el, reg)
			if e.ub {
				return e
			}
			lanes[i] = e.rv.Lanes[0]
		}
		return constEntry{rv: RVal{Ty: c.Ty, Lanes: lanes}}
	}
	return constEntry{ub: true, why: "use of unbound value " + v.Ident()}
}
