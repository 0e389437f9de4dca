package interp

import (
	"fmt"

	"repro/internal/ir"
)

// Result is the outcome of executing a function on concrete inputs.
type Result struct {
	UB        bool   // the execution triggered undefined behaviour
	UBReason  string // human-readable reason, used in counterexamples
	Completed bool   // false if the step budget was exhausted
	Ret       RVal   // return value (zero RVal for void / UB)
	DynInstrs int    // dynamically executed instruction count (perf proxy)
}

// Env carries the inputs of an execution.
type Env struct {
	Args     []RVal
	Mem      *Memory // may be nil for memory-free functions
	MaxSteps int     // 0 means the default budget
}

const defaultMaxSteps = 1 << 20

// Exec runs fn on the given environment with the reference tree-walking
// interpreter. It is the semantic baseline: Compile/Evaluator run the same
// per-opcode kernels over a lane-batched register file and are checked
// against Exec by differential tests. Use Exec for one-shot executions;
// batch executors (the alive checker, the superoptimizer baselines) compile
// once and stream inputs through an Evaluator instead.
func Exec(fn *ir.Func, env Env) Result {
	maxSteps := env.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	mem := env.Mem
	if mem == nil {
		mem = NewMemory()
	}
	st := &state{vals: make(map[ir.Value]RVal), mem: mem}
	if len(env.Args) != len(fn.Params) {
		return Result{UB: true, Completed: true,
			UBReason: fmt.Sprintf("argument count mismatch: have %d, want %d", len(env.Args), len(fn.Params))}
	}
	for i, p := range fn.Params {
		st.vals[p] = env.Args[i]
	}
	block := fn.Entry()
	prev := ""
	steps := 0
	for {
		var next string
		brTaken := false
		for _, in := range block.Instrs {
			steps++
			if steps > maxSteps {
				return Result{Completed: false, DynInstrs: steps}
			}
			switch in.Op {
			case ir.OpRet:
				res := Result{Completed: true, DynInstrs: steps}
				if len(in.Args) == 1 {
					v, ub, why := st.operand(in.Args[0])
					if ub {
						return Result{UB: true, UBReason: why, Completed: true, DynInstrs: steps}
					}
					res.Ret = v
				}
				return res
			case ir.OpBr:
				if len(in.Args) == 0 {
					next = in.Labels[0]
				} else {
					c, ub, why := st.operand(in.Args[0])
					if ub {
						return Result{UB: true, UBReason: why, Completed: true, DynInstrs: steps}
					}
					if c.Lanes[0].Poison {
						return Result{UB: true, UBReason: "branch on poison", Completed: true, DynInstrs: steps}
					}
					if c.Lanes[0].V&1 == 1 {
						next = in.Labels[0]
					} else {
						next = in.Labels[1]
					}
				}
				brTaken = true
			case ir.OpUnreachable:
				return Result{UB: true, UBReason: "reached unreachable", Completed: true, DynInstrs: steps}
			case ir.OpPhi:
				idx := -1
				for k, l := range in.Labels {
					if l == prev {
						idx = k
						break
					}
				}
				if idx < 0 {
					return Result{UB: true, UBReason: "phi has no incoming edge from " + prev,
						Completed: true, DynInstrs: steps}
				}
				v, ub, why := st.operand(in.Args[idx])
				if ub {
					return Result{UB: true, UBReason: why, Completed: true, DynInstrs: steps}
				}
				// Phi values bind after the block's phis evaluate; with our
				// sequential model this is safe because phis come first.
				st.vals[in] = v
			default:
				v, ub, why := st.eval(in)
				if ub {
					return Result{UB: true, UBReason: why, Completed: true, DynInstrs: steps}
				}
				if in.HasResult() {
					st.vals[in] = v
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
		prev = block.Name
		nb := fn.BlockByName(next)
		if nb == nil {
			return Result{UB: true, UBReason: "branch to unknown block " + next,
				Completed: true, DynInstrs: steps}
		}
		block = nb
	}
}

type state struct {
	vals map[ir.Value]RVal
	mem  *Memory
	sc   scratch
}

// operand materializes the runtime value of an operand.
func (st *state) operand(v ir.Value) (RVal, bool, string) {
	if rv, ok := st.vals[v]; ok {
		return rv, false, ""
	}
	switch c := v.(type) {
	case *ir.ConstInt:
		return Scalar(c.Ty, c.V), false, ""
	case *ir.ConstFloat:
		return Scalar(c.Ty, storeFloat(c.Ty.W, c.F)), false, ""
	case *ir.Null:
		return Scalar(ir.Ptr, 0), false, ""
	case *ir.Zero:
		n := ir.Lanes(c.Ty)
		return RVal{Ty: c.Ty, Lanes: make([]Word, n)}, false, ""
	case *ir.Undef:
		// Undef is approximated as zero: a legal instance of undef. This
		// under-approximates the set of src behaviours and is documented in
		// DESIGN.md (bounded validation).
		n := ir.Lanes(c.Ty)
		return RVal{Ty: c.Ty, Lanes: make([]Word, n)}, false, ""
	case *ir.PoisonVal:
		return PoisonRV(c.Ty), false, ""
	case *ir.Splat:
		ev, ub, why := st.operand(c.Elem)
		if ub {
			return RVal{}, true, why
		}
		lanes := make([]Word, c.Ty.N)
		for i := range lanes {
			lanes[i] = ev.Lanes[0]
		}
		return RVal{Ty: c.Ty, Lanes: lanes}, false, ""
	case *ir.ConstVec:
		lanes := make([]Word, len(c.Elems))
		for i, e := range c.Elems {
			ev, ub, why := st.operand(e)
			if ub {
				return RVal{}, true, why
			}
			lanes[i] = ev.Lanes[0]
		}
		return RVal{Ty: c.Ty, Lanes: lanes}, false, ""
	}
	return RVal{}, true, "use of unbound value " + v.Ident()
}

// eval executes one non-control-flow instruction: operands are materialized
// in order, then the shared per-opcode kernel runs on freshly allocated
// result lanes.
func (st *state) eval(in *ir.Instr) (RVal, bool, string) {
	args := make([]RVal, len(in.Args))
	for i, a := range in.Args {
		v, ub, why := st.operand(a)
		if ub {
			return RVal{}, true, why
		}
		args[i] = v
	}
	out := RVal{Ty: in.Ty, Lanes: make([]Word, resultLanes(in, args))}
	if ub, why := evalOp(in, lookupIntrinsic(in.Callee), out.Lanes, args, st.mem, &st.sc); ub {
		return RVal{}, true, why
	}
	return out, false, ""
}
