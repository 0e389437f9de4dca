package interp

// Lane-batched execution, the one compiled engine: RunBatch streams many
// input vectors through one compiled Program, executing each instruction
// across the whole batch before moving to the next. The batch dimension is
// laid out structure-of-arrays in the evaluator's register arena (for the
// dominant scalar registers every instruction's operands and results are
// contiguous runs of BatchWidth words), so per-instruction dispatch is paid
// once per batch instead of once per vector. Undefined behaviour, poison,
// return values and step accounting are tracked per lane (= per input
// vector) and are bit-identical to running Exec on each vector in isolation
// — guarded by the randomized differential tests in batch_test.go.
//
// Two execution modes cover every program:
//
//   - Straight-line programs — the shape of essentially every extracted
//     peephole window — run runBatchCore: one pass over the code with no
//     block dispatch at all.
//   - Multi-block programs run runBatchBlocks, a masked scheduler: all
//     active lanes step the current block together, lanes whose branches
//     diverge are parked on a per-successor-block lane mask, and the
//     scheduler resumes the lowest-numbered block with parked lanes —
//     which reconverges both arms of a diamond before their join and
//     re-runs loop bodies until every lane has exited. UB, poison, Ret and
//     step accounting are tracked per lane throughout.
//
// Memory-touching programs carry one Memory per lane (callers with many
// lanes back them with lane-strided BatchMems slabs), and vector constants
// with run-time elements are gathered lane by lane into their own
// registers before the consuming instruction runs.

import (
	"fmt"
	"math/bits"

	"repro/internal/ir"
)

// BatchWidth is the number of input vectors executed per batch chunk.
// Callers may pass any number of environments to RunBatch; they are
// processed in chunks of this size.
const BatchWidth = 64

// batchKind classifies one compiled instruction for the batch executor.
// Specialized kinds have a dedicated batch kernel over scalar registers;
// everything else runs through the shared evalOp kernels one vector at a
// time (still amortizing the interpreter loop, not the kernel dispatch).
type batchKind uint8

const (
	bkGeneric batchKind = iota
	bkRet
	bkUnreachable
	bkIntBin
	bkICmp
	bkSelect
	bkConvInt
	bkIntrinsic
	bkFreeze
)

// Specialized batch kernels take each operand as a contiguous run of
// BatchWidth words: register operands view the batch arena, constant
// operands view a column prefilled with the broadcast constant — so the
// kernels' inner loops index plain slices with no per-element dispatch.

// batchState is the Evaluator's batch scratch: the structure-of-arrays
// register arena plus per-lane liveness and budget tracking.
type batchState struct {
	words  []Word // register arena, BatchWidth vectors per register lane
	kinds  []batchKind
	bargs  [][][]Word // per code index: operand runs (specialized kinds)
	bdst   [][]Word   // per code index: result run (specialized kinds)
	alive  []bool     // per batch lane: still executing
	mems   []*Memory  // per batch lane: memory (emptyMem when absent)
	argBuf []RVal     // reusable per-vector operand views (generic kind)
	sc     scratch

	// Masked multi-block scheduler state (runBatchBlocks). Lane masks are
	// uint64 bitsets, which BatchWidth = 64 fills exactly.
	steps   []int    // per lane: dynamic instruction count so far
	budget  []int    // per lane: step budget
	prev    []int32  // per lane: predecessor block index (-1 at entry)
	defs    []uint64 // per register: lanes holding a bound value
	waiting []uint64 // per block: lanes parked on its entry
}

// newBatchState builds the batch scratch for p.
func newBatchState(p *Program, emptyMem *Memory) *batchState {
	bs := &batchState{
		words: make([]Word, p.arenaLen*BatchWidth),
		kinds: make([]batchKind, len(p.code)),
		bargs: make([][][]Word, len(p.code)),
		bdst:  make([][]Word, len(p.code)),
		alive: make([]bool, BatchWidth),
		mems:  make([]*Memory, BatchWidth),
	}
	for b := range bs.mems {
		bs.mems[b] = emptyMem
	}
	if !p.straight {
		bs.steps = make([]int, BatchWidth)
		bs.budget = make([]int, BatchWidth)
		bs.prev = make([]int32, BatchWidth)
		bs.defs = make([]uint64, len(p.regLanes))
		bs.waiting = make([]uint64, len(p.blocks))
	}
	maxArgs := 1
	specialized := func(k batchKind) bool {
		return k != bkGeneric && k != bkRet && k != bkUnreachable
	}
	totalOps := 0
	for gi := range p.code {
		ci := &p.code[gi]
		if len(ci.args) > maxArgs {
			maxArgs = len(ci.args)
		}
		bs.kinds[gi] = classifyBatch(p, ci)
		if specialized(bs.kinds[gi]) {
			totalOps += len(ci.args)
		}
	}
	flat := make([][]Word, totalOps)
	next := 0
	constCols := make(map[int32][]Word)
	for gi := range p.code {
		if !specialized(bs.kinds[gi]) {
			continue
		}
		ci := &p.code[gi]
		views := flat[next : next+len(ci.args) : next+len(ci.args)]
		next += len(ci.args)
		for k, slot := range ci.args {
			if slot >= 0 {
				base := int(p.regOff[slot]) * BatchWidth
				views[k] = bs.words[base : base+BatchWidth : base+BatchWidth]
			} else {
				col, ok := constCols[^slot]
				if !ok {
					col = make([]Word, BatchWidth)
					w := p.consts[^slot].Lanes[0]
					for j := range col {
						col[j] = w
					}
					constCols[^slot] = col
				}
				views[k] = col
			}
		}
		bs.bargs[gi] = views
		base := int(p.regOff[ci.dst]) * BatchWidth
		bs.bdst[gi] = bs.words[base : base+BatchWidth : base+BatchWidth]
	}
	bs.argBuf = make([]RVal, maxArgs)
	return bs
}

// classifyBatch picks the batch kernel for one compiled instruction.
// Specialization requires a scalar result and scalar operands (one lane
// each); vector instructions and rare opcodes keep the shared evalOp
// kernels via the per-vector generic path.
func classifyBatch(p *Program, ci *cinstr) batchKind {
	switch ci.in.Op {
	case ir.OpRet:
		return bkRet
	case ir.OpUnreachable:
		return bkUnreachable
	}
	if ci.dst < 0 || p.regLanes[ci.dst] != 1 {
		return bkGeneric
	}
	for _, slot := range ci.args {
		if slot >= 0 {
			if p.regLanes[slot] != 1 {
				return bkGeneric
			}
		} else if len(p.consts[^slot].Lanes) != 1 {
			return bkGeneric
		}
	}
	switch {
	case ci.in.Op.IsIntBinary():
		return bkIntBin
	case ci.in.Op == ir.OpICmp:
		return bkICmp
	case ci.in.Op == ir.OpSelect:
		return bkSelect
	case ci.in.Op == ir.OpFreeze:
		return bkFreeze
	case ci.in.Op == ir.OpZExt, ci.in.Op == ir.OpSExt, ci.in.Op == ir.OpTrunc:
		return bkConvInt
	case ci.intr.isInt() && len(ci.args) >= ci.intr.minArgs():
		return bkIntrinsic
	}
	return bkGeneric
}

// RunBatch executes the program on every environment and writes one Result
// per input into out (which must be at least as long as envs). Semantics per
// vector — values, poison lanes, UB reasons, step accounting — are
// bit-identical to Exec on each environment. Returned Ret values may alias
// the evaluator's batch scratch and are valid only until the next run;
// clone to retain them.
func (ev *Evaluator) RunBatch(envs []Env, out []Result) {
	if len(out) < len(envs) {
		panic("interp: RunBatch needs len(out) >= len(envs)")
	}
	for base := 0; base < len(envs); base += BatchWidth {
		hi := base + BatchWidth
		if hi > len(envs) {
			hi = len(envs)
		}
		ev.runBatchChunk(envs[base:hi], out[base:hi], hi < len(envs))
	}
}

// ArgColumn returns the batch arena's input column for parameter i: vector
// b's lanes occupy [b*L, (b+1)*L) of the returned run, the exact layout the
// batch kernels read. Callers streaming many batches (the alive checker)
// write inputs directly into the columns and execute with RunBatchFilled,
// eliding the per-vector Env staging and scatter entirely.
func (ev *Evaluator) ArgColumn(i int) []Word {
	r := ev.p.paramReg[i]
	L := int(ev.p.regLanes[r])
	base := int(ev.p.regOff[r]) * BatchWidth
	return ev.bs.words[base : base+L*BatchWidth : base+L*BatchWidth]
}

// RunBatchFilled executes the first n batch lanes against inputs the caller
// already wrote into the ArgColumn runs, with default step budgets. mems
// optionally carries one memory per lane (nil entries and a nil slice mean
// no memory, as for an Env without Mem). Results are written like RunBatch.
// n must be <= BatchWidth.
func (ev *Evaluator) RunBatchFilled(n int, out []Result, mems []*Memory) {
	if n > BatchWidth || len(out) < n {
		panic("interp: RunBatchFilled bounds")
	}
	bs := ev.bs
	for b := 0; b < n; b++ {
		bs.alive[b] = true
	}
	if ev.p.hasMem {
		for b := 0; b < n; b++ {
			if mems != nil && mems[b] != nil {
				bs.mems[b] = mems[b]
			} else {
				bs.mems[b] = ev.emptyMem
			}
		}
	}
	if ev.p.straight {
		ev.runBatchCore(n, out, nil, defaultMaxSteps, n)
	} else {
		ev.runBatchBlocks(n, out, nil)
	}
}

// runBatchChunk executes one chunk of at most BatchWidth environments on the
// lane-batched fast path. cloneRets detaches the chunk's return values from
// the shared batch arena (needed for every chunk but the last, whose Rets
// stay valid until the next RunBatch).
func (ev *Evaluator) runBatchChunk(envs []Env, out []Result, cloneRets bool) {
	p := ev.p
	bs := ev.bs
	B := len(envs)
	live := 0
	minMax := defaultMaxSteps
	for b := 0; b < B; b++ {
		if len(envs[b].Args) != len(p.fn.Params) {
			out[b] = Result{UB: true, Completed: true,
				UBReason: fmt.Sprintf("argument count mismatch: have %d, want %d",
					len(envs[b].Args), len(p.fn.Params))}
			bs.alive[b] = false
			continue
		}
		if ms := envs[b].MaxSteps; ms != 0 && ms < minMax {
			minMax = ms
		}
		bs.alive[b] = true
		live++
	}

	// Scatter the arguments into the batch arena, zero-padding short lanes.
	// Scalar parameters (the dominant case) take the direct-store path.
	allAlive := live == B
	for i, r := range p.paramReg {
		L := int(p.regLanes[r])
		base := int(p.regOff[r]) * BatchWidth
		if L == 1 {
			run := bs.words[base : base+B : base+B]
			for b := 0; b < B; b++ {
				if !allAlive && !bs.alive[b] {
					continue
				}
				if lanes := envs[b].Args[i].Lanes; len(lanes) > 0 {
					run[b] = lanes[0]
				} else {
					run[b] = Word{}
				}
			}
			continue
		}
		for b := 0; b < B; b++ {
			if !allAlive && !bs.alive[b] {
				continue
			}
			dst := bs.words[base+b*L : base+(b+1)*L : base+(b+1)*L]
			n := copy(dst, envs[b].Args[i].Lanes)
			for ; n < len(dst); n++ {
				dst[n] = Word{}
			}
		}
	}

	if p.hasMem {
		for b := 0; b < B; b++ {
			if m := envs[b].Mem; m != nil {
				bs.mems[b] = m
			} else {
				bs.mems[b] = ev.emptyMem
			}
		}
	}
	if p.straight {
		ev.runBatchCore(B, out, envs, minMax, live)
	} else {
		ev.runBatchBlocks(B, out, envs)
	}
	if cloneRets {
		for b := 0; b < B; b++ {
			out[b].Ret = out[b].Ret.Clone()
		}
	}
}

// runBatchCore is the shared execution loop: arguments are already in the
// batch arena and bs.alive/live describe the runnable lanes. envs is only
// consulted for per-lane step budgets and may be nil (default budgets).
func (ev *Evaluator) runBatchCore(B int, out []Result, envs []Env, minMax, live int) {
	p := ev.p
	bs := ev.bs

	// kill retires lane b with UB. Lanes retire at most once, and every
	// retirement writes the full Result, so out needs no up-front zeroing.
	// step tracks the current instruction (uniform across lanes on the
	// straight-line path).
	step := 0
	kill := func(b int, why string) {
		out[b] = Result{UB: true, UBReason: why, Completed: true, DynInstrs: step}
		bs.alive[b] = false
		live--
	}

	for gi := 0; gi < len(p.code) && live > 0; gi++ {
		ci := &p.code[gi]
		step = gi + 1
		if step > minMax {
			for b := 0; b < B; b++ {
				if !bs.alive[b] {
					continue
				}
				ms := defaultMaxSteps
				if envs != nil && envs[b].MaxSteps != 0 {
					ms = envs[b].MaxSteps
				}
				if step > ms {
					out[b] = Result{Completed: false, DynInstrs: step}
					bs.alive[b] = false
					live--
				}
			}
			if live == 0 {
				break
			}
		}
		// In straight-line programs every register read is bound, so the
		// only runtime checks guard operands that always fault: the first
		// one fires, uniformly across the batch.
		if len(ci.checks) > 0 {
			why := ci.checks[0].why()
			for b := 0; b < B; b++ {
				if bs.alive[b] {
					kill(b, why)
				}
			}
			break
		}
		if len(ci.gathers) > 0 {
			for b := 0; b < B; b++ {
				if bs.alive[b] {
					ev.gatherLane(ci, b)
				}
			}
		}
		switch bs.kinds[gi] {
		case bkRet:
			hasRet := len(ci.in.Args) == 1
			var retTy ir.Type
			var slot, retL, retBase int32
			var constRet RVal
			if hasRet {
				retTy = ci.in.Args[0].Type()
				slot = ci.args[0]
				if slot >= 0 {
					retL = p.regLanes[slot]
					retBase = p.regOff[slot] * BatchWidth
				} else {
					constRet = p.consts[^slot]
				}
			}
			for b := 0; b < B; b++ {
				if !bs.alive[b] {
					continue
				}
				// Lane b's ret view is the same arena slice on every call,
				// so when the caller reuses its out buffer (the checker's
				// steady state) the pointer fields are already correct —
				// skipping the rewrite avoids a GC write barrier per lane
				// on the hottest line of the batch path.
				r := &out[b]
				if r.UB || r.UBReason != "" {
					r.UB = false
					r.UBReason = ""
				}
				r.Completed = true
				r.DynInstrs = step
				if hasRet {
					if slot >= 0 {
						lo := retBase + int32(b)*retL
						lanes := bs.words[lo : lo+retL : lo+retL]
						// A matching lane pointer can only come from this
						// same ret view (registers never share arena
						// offsets), so the Ty is already right too — no
						// interface compare needed.
						if len(r.Ret.Lanes) != int(retL) || &r.Ret.Lanes[0] != &lanes[0] {
							r.Ret = RVal{Ty: retTy, Lanes: lanes}
						}
					} else if len(r.Ret.Lanes) != len(constRet.Lanes) ||
						len(constRet.Lanes) == 0 || &r.Ret.Lanes[0] != &constRet.Lanes[0] {
						r.Ret = constRet
					}
				} else if r.Ret.Lanes != nil || r.Ret.Ty != nil {
					r.Ret = RVal{}
				}
				bs.alive[b] = false
			}
			live = 0
		case bkUnreachable:
			for b := 0; b < B; b++ {
				if bs.alive[b] {
					kill(b, "reached unreachable")
				}
			}
		default:
			if bs.kernel(gi, ci, B, kill) {
				break
			}
			// bkGeneric: shared evalOp kernels, one vector at a time.
			na := len(ci.args)
			for b := 0; b < B; b++ {
				if !bs.alive[b] {
					continue
				}
				args := bs.argBuf[:na]
				for k, slot := range ci.args {
					if slot >= 0 {
						L := int(p.regLanes[slot])
						base := int(p.regOff[slot]) * BatchWidth
						args[k] = RVal{Ty: ci.in.Args[k].Type(),
							Lanes: bs.words[base+b*L : base+(b+1)*L : base+(b+1)*L]}
					} else {
						args[k] = p.consts[^slot]
					}
				}
				var dst []Word
				if ci.dst >= 0 {
					L := int(p.regLanes[ci.dst])
					base := int(p.regOff[ci.dst]) * BatchWidth
					dst = bs.words[base+b*L : base+(b+1)*L : base+(b+1)*L]
				}
				mem := ev.emptyMem
				if p.hasMem {
					mem = bs.mems[b]
				}
				if ub, why := evalOp(ci.in, ci.intr, dst, args, mem, &bs.sc); ub {
					kill(b, why)
				}
			}
		}
	}
	if live > 0 {
		step = len(p.code)
		for b := 0; b < B; b++ {
			if bs.alive[b] {
				kill(b, "block fell through without terminator")
			}
		}
	}
}

// runBatchBlocks is the masked multi-block scheduler: arguments are already
// in the batch arena and bs.alive marks the runnable lanes. All lanes of a
// wave step the current block's instructions together; a lane leaves the
// wave by returning, dying (UB, budget), or branching — branches park the
// lane on its successor's waiting mask. The scheduler then resumes the
// lowest-numbered block with parked lanes: forward branches reconverge
// naturally (both arms of a diamond run before their join block) and back
// edges re-run loop bodies until every lane has exited. Per-lane step
// counts, budgets, defined-register masks and predecessor blocks keep the
// semantics — including UB reasons and DynInstrs — bit-identical to running
// Exec per vector. envs is only consulted for per-lane step budgets and may
// be nil (default budgets).
func (ev *Evaluator) runBatchBlocks(B int, out []Result, envs []Env) {
	p := ev.p
	bs := ev.bs

	var entry uint64
	for b := 0; b < B; b++ {
		bs.steps[b] = 0
		bs.prev[b] = -1
		bs.budget[b] = defaultMaxSteps
		if envs != nil && envs[b].MaxSteps != 0 {
			bs.budget[b] = envs[b].MaxSteps
		}
		if bs.alive[b] {
			entry |= 1 << uint(b)
		}
	}
	defs := bs.defs
	for i := range defs {
		defs[i] = 0
	}
	for _, r := range p.paramReg {
		defs[r] = entry
	}
	waiting := bs.waiting
	for i := range waiting {
		waiting[i] = 0
	}
	waiting[0] = entry
	steps, budget, prev := bs.steps, bs.budget, bs.prev

	// wave is the lane mask currently executing; kill retires one lane of
	// it with UB at its own step count.
	var wave uint64
	kill := func(b int, why string) {
		out[b] = Result{UB: true, UBReason: why, Completed: true, DynInstrs: steps[b]}
		bs.alive[b] = false
		wave &^= 1 << uint(b)
	}
	// checkLanes applies one instruction's runtime guards lane by lane, in
	// operand order, then gathers its dynamic vector operands for the
	// surviving lanes.
	checkLanes := func(ci *cinstr) {
		for gi := range ci.checks {
			g := &ci.checks[gi]
			m := wave
			if g.reg >= 0 {
				m &^= defs[g.reg]
			}
			if m == 0 {
				continue
			}
			why := g.why()
			for ; m != 0; m &= m - 1 {
				kill(bits.TrailingZeros64(m), why)
			}
		}
		if len(ci.gathers) > 0 {
			for m := wave; m != 0; m &= m - 1 {
				ev.gatherLane(ci, bits.TrailingZeros64(m))
			}
		}
	}
	// laneView returns lane b's run of register r.
	laneView := func(r int32, b int) []Word {
		L := int(p.regLanes[r])
		base := int(p.regOff[r])*BatchWidth + b*L
		return bs.words[base : base+L : base+L]
	}

	for {
		bi := -1
		for i := range waiting {
			if waiting[i] != 0 {
				bi = i
				break
			}
		}
		if bi < 0 {
			return
		}
		wave = waiting[bi]
		waiting[bi] = 0
		for m := wave; m != 0; m &= m - 1 {
			bs.alive[bits.TrailingZeros64(m)] = true
		}
		blk := &p.blocks[bi]
		for gi := blk.start; gi < blk.end && wave != 0; gi++ {
			ci := &p.code[gi]
			for m := wave; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				steps[b]++
				if steps[b] > budget[b] {
					out[b] = Result{Completed: false, DynInstrs: steps[b]}
					bs.alive[b] = false
					wave &^= 1 << uint(b)
				}
			}
			if wave == 0 {
				break
			}
			switch ci.in.Op {
			case ir.OpRet:
				if len(ci.in.Args) == 1 {
					checkLanes(ci)
					if wave == 0 {
						break
					}
					retTy := ci.in.Args[0].Type()
					if slot := ci.args[0]; slot >= 0 {
						for m := wave; m != 0; m &= m - 1 {
							b := bits.TrailingZeros64(m)
							out[b] = Result{Completed: true, DynInstrs: steps[b],
								Ret: RVal{Ty: retTy, Lanes: laneView(slot, b)}}
							bs.alive[b] = false
						}
					} else {
						rv := p.consts[^slot]
						for m := wave; m != 0; m &= m - 1 {
							b := bits.TrailingZeros64(m)
							out[b] = Result{Completed: true, DynInstrs: steps[b], Ret: rv}
							bs.alive[b] = false
						}
					}
				} else {
					for m := wave; m != 0; m &= m - 1 {
						b := bits.TrailingZeros64(m)
						out[b] = Result{Completed: true, DynInstrs: steps[b]}
						bs.alive[b] = false
					}
				}
				wave = 0
			case ir.OpBr:
				if len(ci.in.Args) == 0 {
					if succ := ci.succ[0]; succ < 0 {
						why := "branch to unknown block " + ci.in.Labels[0]
						for m := wave; m != 0; m &= m - 1 {
							kill(bits.TrailingZeros64(m), why)
						}
					} else {
						waiting[succ] |= wave
						for m := wave; m != 0; m &= m - 1 {
							b := bits.TrailingZeros64(m)
							prev[b] = int32(bi)
							bs.alive[b] = false
						}
						wave = 0
					}
					break
				}
				checkLanes(ci)
				slot := ci.args[0]
				for m := wave; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					var c Word
					if slot >= 0 {
						c = laneView(slot, b)[0]
					} else {
						c = p.consts[^slot].Lanes[0]
					}
					if c.Poison {
						kill(b, "branch on poison")
						continue
					}
					k := 1
					if c.V&1 == 1 {
						k = 0
					}
					if succ := ci.succ[k]; succ < 0 {
						kill(b, "branch to unknown block "+ci.in.Labels[k])
					} else {
						waiting[succ] |= 1 << uint(b)
						prev[b] = int32(bi)
						bs.alive[b] = false
						wave &^= 1 << uint(b)
					}
				}
			case ir.OpUnreachable:
				for m := wave; m != 0; m &= m - 1 {
					kill(bits.TrailingZeros64(m), "reached unreachable")
				}
			case ir.OpPhi:
				for m := wave; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					idx := -1
					for k, pi := range ci.phiPred {
						if pi == prev[b] {
							idx = k
							break
						}
					}
					if idx < 0 {
						pn := ""
						if prev[b] >= 0 {
							pn = p.blocks[prev[b]].name
						}
						kill(b, "phi has no incoming edge from "+pn)
						continue
					}
					// Only the taken edge's operand is evaluated, so only
					// its guards apply.
					bound := true
					for gi := range ci.checks {
						if g := &ci.checks[gi]; g.k == int32(idx) && (g.reg < 0 || defs[g.reg]&(1<<uint(b)) == 0) {
							kill(b, g.why())
							bound = false
							break
						}
					}
					if !bound {
						continue
					}
					slot := ci.args[idx]
					var src []Word
					if slot >= 0 {
						// Gathering every dynamic operand is harmless: each
						// has its own register, and gathers never fault.
						ev.gatherLane(ci, b)
						src = laneView(slot, b)
					} else {
						src = p.consts[^slot].Lanes
					}
					if ci.dst >= 0 {
						dst := laneView(ci.dst, b)
						n := copy(dst, src)
						for ; n < len(dst); n++ {
							dst[n] = Word{}
						}
						defs[ci.dst] |= 1 << uint(b)
					}
				}
			default:
				checkLanes(ci)
				if wave == 0 {
					break
				}
				if !bs.kernel(int(gi), ci, B, kill) {
					// bkGeneric: shared evalOp kernels, one lane at a time.
					na := len(ci.args)
					for m := wave; m != 0; m &= m - 1 {
						b := bits.TrailingZeros64(m)
						args := bs.argBuf[:na]
						for k, slot := range ci.args {
							if slot >= 0 {
								args[k] = RVal{Ty: ci.in.Args[k].Type(), Lanes: laneView(slot, b)}
							} else {
								args[k] = p.consts[^slot]
							}
						}
						var dst []Word
						if ci.dst >= 0 {
							dst = laneView(ci.dst, b)
						}
						mem := ev.emptyMem
						if p.hasMem {
							mem = bs.mems[b]
						}
						if ub, why := evalOp(ci.in, ci.intr, dst, args, mem, &bs.sc); ub {
							kill(b, why)
						}
					}
				}
				if ci.dst >= 0 {
					defs[ci.dst] |= wave
				}
			}
		}
		// Lanes that ran off the block without reaching a terminator.
		for m := wave; m != 0; m &= m - 1 {
			kill(bits.TrailingZeros64(m), "block fell through without terminator")
		}
	}
}

// kernel runs instruction gi's specialized batch kernel over the alive
// lanes, reporting false when its kind has none (bkGeneric).
func (bs *batchState) kernel(gi int, ci *cinstr, B int, kill func(int, string)) bool {
	dst, args := bs.bdst[gi], bs.bargs[gi]
	switch bs.kinds[gi] {
	case bkIntBin:
		batchIntBin(ci.in, dst, args, bs.alive, B, kill)
	case bkICmp:
		batchICmp(ci.in, dst, args, bs.alive, B)
	case bkSelect:
		batchSelect(dst, args, bs.alive, B)
	case bkConvInt:
		batchConvInt(ci.in, dst, args, bs.alive, B)
	case bkIntrinsic:
		batchIntrinsic(ci.intr, ci.in, dst, args, bs.alive, B)
	case bkFreeze:
		batchFreeze(dst, args, bs.alive, B)
	default:
		return false
	}
	return true
}

// gatherLane assembles lane b of every dynamic vector operand of ci: each
// element is lane 0 of its source register or a constant.
func (ev *Evaluator) gatherLane(ci *cinstr, b int) {
	p, words := ev.p, ev.bs.words
	for gi := range ci.gathers {
		g := &ci.gathers[gi]
		dst := words[int(p.regOff[g.reg])*BatchWidth+b*int(p.regLanes[g.reg]):]
		for l, e := range g.elems {
			if e.reg < 0 {
				dst[l] = e.w
			} else {
				dst[l] = words[int(p.regOff[e.reg])*BatchWidth+b*int(p.regLanes[e.reg])]
			}
		}
	}
}

// The batch kernels below mirror the shared per-opcode kernels element for
// element (see kernels.go / intrinsics.go); they differ only in iterating
// the batch dimension and killing individual lanes on UB instead of
// aborting the whole execution. The randomized differential test pins them
// to the scalar kernels.

func batchIntBin(in *ir.Instr, dst []Word, args [][]Word, alive []bool, B int,
	kill func(int, string)) {
	w := ir.ScalarBits(ir.Elem(in.Ty))
	mask := ir.MaskW(w)
	op, flags := in.Op, in.Flags
	xs, ys := args[0][:B], args[1][:B]
	alive = alive[:B]
	dst = dst[:B]
	// Flagless bitwise/additive ops — the bulk of real windows — get tight
	// per-op loops with the dispatch hoisted out of the batch. The low w
	// bits of these ops depend only on the low w bits of their operands, so
	// masking once at the store matches the masked-operand general path.
	if flags == ir.NoFlags {
		switch op {
		case ir.OpAnd:
			for b := 0; b < B; b++ {
				if !alive[b] {
					continue
				}
				x, y := xs[b], ys[b]
				if x.Poison || y.Poison {
					dst[b] = Word{Poison: true}
					continue
				}
				dst[b] = Word{V: (x.V & y.V) & mask}
			}
			return
		case ir.OpOr:
			for b := 0; b < B; b++ {
				if !alive[b] {
					continue
				}
				x, y := xs[b], ys[b]
				if x.Poison || y.Poison {
					dst[b] = Word{Poison: true}
					continue
				}
				dst[b] = Word{V: (x.V | y.V) & mask}
			}
			return
		case ir.OpXor:
			for b := 0; b < B; b++ {
				if !alive[b] {
					continue
				}
				x, y := xs[b], ys[b]
				if x.Poison || y.Poison {
					dst[b] = Word{Poison: true}
					continue
				}
				dst[b] = Word{V: (x.V ^ y.V) & mask}
			}
			return
		case ir.OpAdd:
			for b := 0; b < B; b++ {
				if !alive[b] {
					continue
				}
				x, y := xs[b], ys[b]
				if x.Poison || y.Poison {
					dst[b] = Word{Poison: true}
					continue
				}
				dst[b] = Word{V: (x.V + y.V) & mask}
			}
			return
		case ir.OpSub:
			for b := 0; b < B; b++ {
				if !alive[b] {
					continue
				}
				x, y := xs[b], ys[b]
				if x.Poison || y.Poison {
					dst[b] = Word{Poison: true}
					continue
				}
				dst[b] = Word{V: (x.V - y.V) & mask}
			}
			return
		}
	}
	isDiv := op == ir.OpUDiv || op == ir.OpSDiv || op == ir.OpURem || op == ir.OpSRem
	for b := 0; b < B; b++ {
		if !alive[b] {
			continue
		}
		x, y := xs[b], ys[b]
		if isDiv {
			if y.Poison {
				kill(b, "division by poison")
				continue
			}
			if y.V&mask == 0 {
				kill(b, "division by zero")
				continue
			}
			if (op == ir.OpSDiv || op == ir.OpSRem) && !x.Poison {
				if ir.SignExt(x.V, w) == minSigned(w) && ir.SignExt(y.V, w) == -1 {
					kill(b, "signed division overflow")
					continue
				}
			}
		}
		if x.Poison || y.Poison {
			dst[b] = Word{Poison: true}
			continue
		}
		xv, yv := x.V&mask, y.V&mask
		var r uint64
		poison := false
		switch op {
		case ir.OpAdd:
			r = (xv + yv) & mask
			if flags.Has(ir.NUW) && r < xv {
				poison = true
			}
			if flags.Has(ir.NSW) && addNSWOverflow(xv, yv, r, w) {
				poison = true
			}
		case ir.OpSub:
			r = (xv - yv) & mask
			if flags.Has(ir.NUW) && yv > xv {
				poison = true
			}
			if flags.Has(ir.NSW) && subNSWOverflow(xv, yv, r, w) {
				poison = true
			}
		case ir.OpMul:
			hi, lo := bits.Mul64(xv, yv)
			r = lo & mask
			if flags.Has(ir.NUW) {
				if hi != 0 || lo&^mask != 0 {
					poison = true
				}
			}
			if flags.Has(ir.NSW) && mulNSWOverflow(xv, yv, w) {
				poison = true
			}
		case ir.OpUDiv:
			r = xv / yv
			if flags.Has(ir.Exact) && xv%yv != 0 {
				poison = true
			}
		case ir.OpSDiv:
			sr := ir.SignExt(xv, w) / ir.SignExt(yv, w)
			r = uint64(sr) & mask
			if flags.Has(ir.Exact) && ir.SignExt(xv, w)%ir.SignExt(yv, w) != 0 {
				poison = true
			}
		case ir.OpURem:
			r = xv % yv
		case ir.OpSRem:
			r = uint64(ir.SignExt(xv, w)%ir.SignExt(yv, w)) & mask
		case ir.OpShl:
			if yv >= uint64(w) {
				poison = true
				break
			}
			r = (xv << yv) & mask
			if flags.Has(ir.NUW) && (r>>yv) != xv {
				poison = true
			}
			if flags.Has(ir.NSW) {
				back := uint64(ir.SignExt(r, w)>>yv) & mask
				if back != xv {
					poison = true
				}
			}
		case ir.OpLShr:
			if yv >= uint64(w) {
				poison = true
				break
			}
			r = xv >> yv
			if flags.Has(ir.Exact) && (r<<yv)&mask != xv {
				poison = true
			}
		case ir.OpAShr:
			if yv >= uint64(w) {
				poison = true
				break
			}
			r = uint64(ir.SignExt(xv, w)>>yv) & mask
			if flags.Has(ir.Exact) && xv&((uint64(1)<<yv)-1) != 0 {
				poison = true
			}
		case ir.OpAnd:
			r = xv & yv
		case ir.OpOr:
			r = xv | yv
			if flags.Has(ir.Disjoint) && xv&yv != 0 {
				poison = true
			}
		case ir.OpXor:
			r = xv ^ yv
		}
		dst[b] = Word{V: r & mask, Poison: poison}
	}
}

func batchICmp(in *ir.Instr, dst []Word, args [][]Word, alive []bool, B int) {
	w := ir.ScalarBits(ir.Elem(in.Args[0].Type()))
	mask := ir.MaskW(w)
	pred := in.IPredV
	xs, ys := args[0][:B], args[1][:B]
	alive = alive[:B]
	dst = dst[:B]
	for b := 0; b < B; b++ {
		if !alive[b] {
			continue
		}
		x, y := xs[b], ys[b]
		if x.Poison || y.Poison {
			dst[b] = Word{Poison: true}
			continue
		}
		xv, yv := x.V&mask, y.V&mask
		sx, sy := ir.SignExt(xv, w), ir.SignExt(yv, w)
		var r bool
		switch pred {
		case ir.EQ:
			r = xv == yv
		case ir.NE:
			r = xv != yv
		case ir.UGT:
			r = xv > yv
		case ir.UGE:
			r = xv >= yv
		case ir.ULT:
			r = xv < yv
		case ir.ULE:
			r = xv <= yv
		case ir.SGT:
			r = sx > sy
		case ir.SGE:
			r = sx >= sy
		case ir.SLT:
			r = sx < sy
		case ir.SLE:
			r = sx <= sy
		}
		if r {
			dst[b] = Word{V: 1}
		} else {
			dst[b] = Word{V: 0}
		}
	}
}

func batchSelect(dst []Word, args [][]Word, alive []bool, B int) {
	cs, ts, fs := args[0][:B], args[1][:B], args[2][:B]
	alive = alive[:B]
	dst = dst[:B]
	for b := 0; b < B; b++ {
		if !alive[b] {
			continue
		}
		c := cs[b]
		switch {
		case c.Poison:
			dst[b] = Word{Poison: true}
		case c.V&1 == 1:
			dst[b] = ts[b]
		default:
			dst[b] = fs[b]
		}
	}
}

func batchConvInt(in *ir.Instr, dst []Word, args [][]Word, alive []bool, B int) {
	fw := ir.ScalarBits(ir.Elem(in.Args[0].Type()))
	tw := ir.ScalarBits(ir.Elem(in.Ty))
	op, flags := in.Op, in.Flags
	xs := args[0][:B]
	alive = alive[:B]
	dst = dst[:B]
	for b := 0; b < B; b++ {
		if !alive[b] {
			continue
		}
		x := xs[b]
		if x.Poison {
			dst[b] = Word{Poison: true}
			continue
		}
		var r uint64
		poison := false
		switch op {
		case ir.OpZExt:
			r = x.V & ir.MaskW(fw)
			if flags.Has(ir.NNeg) && ir.SignExt(x.V, fw) < 0 {
				poison = true
			}
		case ir.OpSExt:
			r = uint64(ir.SignExt(x.V, fw)) & ir.MaskW(tw)
		case ir.OpTrunc:
			r = x.V & ir.MaskW(tw)
			if flags.Has(ir.NUW) && x.V&ir.MaskW(fw) != r {
				poison = true
			}
			if flags.Has(ir.NSW) && ir.SignExt(x.V, fw) != ir.SignExt(r, tw) {
				poison = true
			}
		}
		dst[b] = Word{V: r, Poison: poison}
	}
}

// zeroRun stands in for the operands an intrinsic call omits (abs/ctlz/cttz
// without their flag immediate), so batchIntrinsic reads them as the zero
// Word exactly like evalCall. Read-only.
var zeroRun [BatchWidth]Word

// batchIntrinsic runs a scalar integer intrinsic through intLane, the same
// per-lane code evalCall uses.
func batchIntrinsic(id intrinsic, in *ir.Instr, dst []Word, args [][]Word, alive []bool, B int) {
	w := ir.ScalarBits(ir.Elem(in.Ty))
	mask := ir.MaskW(w)
	xs, ys, zs := args[0][:B], zeroRun[:B], zeroRun[:B]
	if len(args) > 1 {
		ys = args[1][:B]
	}
	if len(args) > 2 {
		zs = args[2][:B]
	}
	alive = alive[:B]
	dst = dst[:B]
	for b := 0; b < B; b++ {
		if alive[b] {
			dst[b] = intLane(id, w, mask, xs[b], ys[b], zs[b])
		}
	}
}

func batchFreeze(dst []Word, args [][]Word, alive []bool, B int) {
	xs := args[0][:B]
	alive = alive[:B]
	dst = dst[:B]
	for b := 0; b < B; b++ {
		if !alive[b] {
			continue
		}
		if x := xs[b]; x.Poison {
			dst[b] = Word{V: 0}
		} else {
			dst[b] = x
		}
	}
}
