package interp

import (
	"fmt"

	"repro/internal/ir"
)

// Evaluator executes one compiled Program over many input vectors. It owns
// all scratch storage — the register arena, defined-register flags, the
// per-instruction operand views, and the store/bitcast buffers — so a
// steady-state Run performs no allocations on the common paths (rare error
// paths that format addresses still allocate, exactly like Exec).
//
// An Evaluator is not safe for concurrent use; build one per goroutine
// (Programs may be shared freely). The returned Result.Ret aliases the
// evaluator's scratch storage and is valid only until the next Run; use
// RVal.Clone to retain it.
type Evaluator struct {
	p       *Program
	words   []Word   // register arena
	defined []bool   // per-register bound flag (unused on the fast path)
	iargs   [][]RVal // per code index: prebuilt operand views
	idst    [][]Word // per code index: result lane view (nil for void)
	sc      scratch

	// emptyMem substitutes for a nil Env.Mem. Loads and stores against an
	// empty memory are always out of bounds and never mutate it, so one
	// shared instance is safe across runs.
	emptyMem *Memory

	// bs is the lane-batched execution state (batch.go), built lazily on
	// the first RunBatch so scalar-only evaluators never pay for it.
	bs *batchState
}

// NewEvaluator builds an evaluator for p.
func NewEvaluator(p *Program) *Evaluator {
	ev := &Evaluator{
		p:        p,
		words:    make([]Word, p.arenaLen),
		defined:  make([]bool, len(p.regLanes)),
		emptyMem: NewMemory(),
	}
	ev.iargs = make([][]RVal, len(p.code))
	ev.idst = make([][]Word, len(p.code))
	for gi := range p.code {
		ci := &p.code[gi]
		if len(ci.args) > 0 {
			views := make([]RVal, len(ci.args))
			for k, slot := range ci.args {
				if slot >= 0 {
					views[k] = RVal{Ty: ci.in.Args[k].Type(), Lanes: ev.reg(slot)}
				} else {
					views[k] = p.consts[^slot].rv
				}
			}
			ev.iargs[gi] = views
		}
		if ci.dst >= 0 {
			ev.idst[gi] = ev.reg(ci.dst)
		}
	}
	return ev
}

// Program returns the compiled program the evaluator runs.
func (ev *Evaluator) Program() *Program { return ev.p }

// reg returns the arena slice backing register r.
func (ev *Evaluator) reg(r int32) []Word {
	off := ev.p.regOff[r]
	return ev.words[off : off+ev.p.regLanes[r] : off+ev.p.regLanes[r]]
}

// checkArgs guards the operand positions compile marked as needing runtime
// checks, in operand order, reproducing the reference interpreter's operand
// materialization errors.
func (ev *Evaluator) checkArgs(ci *cinstr) (bool, string) {
	for _, k := range ci.checks {
		slot := ci.args[k]
		if slot >= 0 {
			if !ev.defined[slot] {
				return true, "use of unbound value " + ci.in.Args[k].Ident()
			}
		} else if e := &ev.p.consts[^slot]; e.ub {
			return true, e.why
		}
	}
	return false, ""
}

// Run executes the program on one environment. Semantics, including UB
// reasons, step accounting and budget behaviour, are bit-identical to
// Exec(p.Fn(), env).
func (ev *Evaluator) Run(env Env) Result {
	p := ev.p
	if p.fallback {
		return Exec(p.fn, env)
	}
	maxSteps := env.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	mem := env.Mem
	if mem == nil {
		mem = ev.emptyMem
	}
	if len(env.Args) != len(p.fn.Params) {
		return Result{UB: true, Completed: true,
			UBReason: fmt.Sprintf("argument count mismatch: have %d, want %d", len(env.Args), len(p.fn.Params))}
	}
	if !p.straight {
		for i := range ev.defined {
			ev.defined[i] = false
		}
		for _, r := range p.paramReg {
			ev.defined[r] = true
		}
	}
	for i, r := range p.paramReg {
		dst := ev.reg(r)
		n := copy(dst, env.Args[i].Lanes)
		for ; n < len(dst); n++ {
			dst[n] = Word{}
		}
	}

	steps := 0
	bi := int32(0)
	prevIdx := int32(-1)
	for {
		blk := &p.blocks[bi]
		brTaken := false
		var nextIdx int32 = -1
		var nextName string
		for gi := blk.start; gi < blk.end; gi++ {
			ci := &p.code[gi]
			steps++
			if steps > maxSteps {
				return Result{Completed: false, DynInstrs: steps}
			}
			switch ci.in.Op {
			case ir.OpRet:
				res := Result{Completed: true, DynInstrs: steps}
				if len(ci.in.Args) == 1 {
					if ub, why := ev.checkArgs(ci); ub {
						return Result{UB: true, UBReason: why, Completed: true, DynInstrs: steps}
					}
					res.Ret = ev.iargs[gi][0]
				}
				return res
			case ir.OpBr:
				if len(ci.in.Args) == 0 {
					nextIdx, nextName = ci.succ[0], ci.in.Labels[0]
				} else {
					if ub, why := ev.checkArgs(ci); ub {
						return Result{UB: true, UBReason: why, Completed: true, DynInstrs: steps}
					}
					c := ev.iargs[gi][0].Lanes[0]
					if c.Poison {
						return Result{UB: true, UBReason: "branch on poison", Completed: true, DynInstrs: steps}
					}
					if c.V&1 == 1 {
						nextIdx, nextName = ci.succ[0], ci.in.Labels[0]
					} else {
						nextIdx, nextName = ci.succ[1], ci.in.Labels[1]
					}
				}
				brTaken = true
			case ir.OpUnreachable:
				return Result{UB: true, UBReason: "reached unreachable", Completed: true, DynInstrs: steps}
			case ir.OpPhi:
				idx := -1
				for k, pi := range ci.phiPred {
					if pi == prevIdx {
						idx = k
						break
					}
				}
				if idx < 0 {
					prev := ""
					if prevIdx >= 0 {
						prev = p.blocks[prevIdx].name
					}
					return Result{UB: true, UBReason: "phi has no incoming edge from " + prev,
						Completed: true, DynInstrs: steps}
				}
				slot := ci.args[idx]
				if slot >= 0 && !ev.defined[slot] {
					return Result{UB: true, UBReason: "use of unbound value " + ci.in.Args[idx].Ident(),
						Completed: true, DynInstrs: steps}
				}
				if slot < 0 {
					if e := &p.consts[^slot]; e.ub {
						return Result{UB: true, UBReason: e.why, Completed: true, DynInstrs: steps}
					}
				}
				if ci.dst >= 0 {
					dst := ev.idst[gi]
					n := copy(dst, ev.iargs[gi][idx].Lanes)
					for ; n < len(dst); n++ {
						dst[n] = Word{}
					}
					ev.defined[ci.dst] = true
				}
			default:
				if len(ci.checks) > 0 {
					if ub, why := ev.checkArgs(ci); ub {
						return Result{UB: true, UBReason: why, Completed: true, DynInstrs: steps}
					}
				}
				if ub, why := evalOp(ci.in, ci.intr, ev.idst[gi], ev.iargs[gi], mem, &ev.sc); ub {
					return Result{UB: true, UBReason: why, Completed: true, DynInstrs: steps}
				}
				if ci.dst >= 0 && !p.straight {
					ev.defined[ci.dst] = true
				}
			}
			if brTaken {
				break
			}
		}
		if !brTaken {
			return Result{UB: true, UBReason: "block fell through without terminator",
				Completed: true, DynInstrs: steps}
		}
		prevIdx = bi
		if nextIdx < 0 {
			return Result{UB: true, UBReason: "branch to unknown block " + nextName,
				Completed: true, DynInstrs: steps}
		}
		bi = nextIdx
	}
}
