package interp

// Lane-batched execution, the one compiled engine: RunBatchFilled streams
// up to BatchWidth input vectors through one compiled Program, executing
// each instruction across the whole batch before moving to the next. The
// batch dimension is laid out structure-of-arrays in the evaluator's
// register arena (for the dominant scalar registers every instruction's
// operands and results are contiguous runs of BatchWidth words), so
// per-instruction dispatch is paid once per batch instead of once per
// vector. Undefined behaviour, poison, return values and step accounting
// are tracked per lane (= per input vector) and are bit-identical to
// running Exec on each vector in isolation — guarded by the randomized
// differential tests in batch_test.go.
//
// There is one way in and one way out. Inputs are written straight into
// the parameters' ArgColumn runs. Outcomes are columns, not per-lane
// Results: a retiring lane sets its bit in one of the three LaneMasks and
// records its step count (and, for UB, its reason) in per-lane arrays; a
// returning lane's value is the lane's run of the return column. A Result
// struct is built only on request (LaneResult).
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
	"math/bits"

	"repro/internal/ir"
)

// BatchWidth is the number of input vectors one RunBatchFilled call
// executes at most: the lanes of the ArgColumn runs and of the outcome
// columns. Callers with more vectors run them in batches of this size.
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
// register arena plus per-lane liveness and step tracking.
type batchState struct {
	words  []Word      // register arena, BatchWidth vectors per register lane
	kinds  []batchKind // the Program's (planBatch)
	bargs  [][][]Word  // per code index: operand runs (specialized kinds)
	bdst   [][]Word    // per code index: result run (specialized kinds)
	views  [][]Word    // backing store of bargs
	consts []Word      // broadcast constant columns (Program.constOff)
	alive  []bool      // per batch lane: still executing
	mems   []*Memory   // per batch lane: memory (emptyMem when absent; hasMem programs only)
	argBuf []RVal      // reusable per-vector operand views (generic kind)
	sc     scratch

	// Outcome columns of the latest run (see Evaluator.Masks, RetColumn and
	// LaneResult). Straight programs view the returned register or
	// constant as retCol; multi-block programs own it and copy into it.
	// Every lane that returns from a straight program does so at its one
	// ret, straightRet, so such lanes record neither a step count nor a
	// retAt entry.
	out         LaneMasks
	steps       []int    // per lane: dynamic instruction count (at retirement, after a run)
	why         []string // per lane: UB reason (out.UB lanes); allocated at the first UB
	retCol      []Word
	retStride   int
	straightRet int32
	straightTy  ir.Type // straight programs: type of the returned value (nil: none)
	ownRet      []Word  // multi-block programs' retCol storage

	// Masked multi-block scheduler state (runBatchBlocks). Lane masks are
	// uint64 bitsets, which BatchWidth = 64 fills exactly.
	retAt   []int32  // per lane: code index of the ret taken
	prev    []int32  // per lane: predecessor block index (-1 at entry)
	defs    []uint64 // per register: lanes holding a bound value
	waiting []uint64 // per block: lanes parked on its entry
}

// planBatch fixes the part of the batch set-up that depends on the Program
// alone: each instruction's batch kernel, and where in an evaluator's
// constant arena the broadcast column (BatchWidth copies, lane-strided) of
// each constant that a specialized kernel or a straight program's ret
// reads lives. The columns themselves belong to the evaluators (bind), so
// cached Programs stay small.
func (p *Program) planBatch() {
	p.kinds = make([]batchKind, len(p.code))
	p.constOff = make([]int32, len(p.consts))
	for i := range p.constOff {
		p.constOff[i] = -1
	}
	broadcast := func(slot int32) {
		if slot >= 0 || p.constOff[^slot] >= 0 {
			return
		}
		p.constOff[^slot] = int32(p.constWords)
		p.constWords += len(p.consts[^slot].Lanes) * BatchWidth
	}
	for gi := range p.code {
		ci := &p.code[gi]
		p.kinds[gi] = classifyBatch(p, ci)
		switch {
		case p.kinds[gi].specialized():
			for _, slot := range ci.args {
				broadcast(slot)
			}
		case p.kinds[gi] == bkRet && p.straight && len(ci.args) == 1:
			broadcast(ci.args[0])
		}
	}
}

// specialized reports whether k has a dedicated batch kernel.
func (k batchKind) specialized() bool {
	return k != bkGeneric && k != bkRet && k != bkUnreachable
}

// bind lays the batch scratch out for p, reusing the storage a recycled
// evaluator already holds: every slice is resized in place when its
// capacity suffices. Stale arena contents are harmless — callers write the
// input columns before a run, and every register is written before it is
// read (straight programs by construction, multi-block ones under their
// defined-register masks).
func (bs *batchState) bind(p *Program, emptyMem *Memory) {
	bs.words = resize(bs.words, p.arenaLen*BatchWidth)
	bs.kinds = p.kinds
	bs.bargs = resize(bs.bargs, len(p.code))
	bs.bdst = resize(bs.bdst, len(p.code))
	clear(bs.bargs) // drop views of a previous layout
	clear(bs.bdst)
	bs.alive = resize(bs.alive, BatchWidth)
	bs.steps = resize(bs.steps, BatchWidth)
	bs.mems = bs.mems[:0]
	if p.hasMem {
		bs.mems = resize(bs.mems, BatchWidth)
		for b := range bs.mems {
			bs.mems[b] = emptyMem
		}
	}
	if !p.straight {
		bs.retAt = resize(bs.retAt, BatchWidth)
		bs.prev = resize(bs.prev, BatchWidth)
		bs.defs = resize(bs.defs, len(p.regLanes))
		bs.waiting = resize(bs.waiting, len(p.blocks))
	}
	maxArgs := 1
	totalOps := 0
	for gi := range p.code {
		ci := &p.code[gi]
		maxArgs = max(maxArgs, len(ci.args))
		if p.kinds[gi].specialized() {
			totalOps += len(ci.args)
		}
	}
	bs.consts = resize(bs.consts, p.constWords)
	for c, off := range p.constOff {
		if lanes := p.consts[c].Lanes; off >= 0 {
			for b := 0; b < BatchWidth; b++ {
				copy(bs.consts[int(off)+b*len(lanes):], lanes)
			}
		}
	}
	bs.views = resize(bs.views, totalOps)
	next := 0
	for gi := range p.code {
		if !p.kinds[gi].specialized() {
			continue
		}
		ci := &p.code[gi]
		views := bs.views[next : next+len(ci.args) : next+len(ci.args)]
		next += len(ci.args)
		for k, slot := range ci.args {
			if slot >= 0 {
				base := int(p.regOff[slot]) * BatchWidth
				views[k] = bs.words[base : base+BatchWidth : base+BatchWidth]
			} else {
				views[k] = bs.constCol(p, slot)
			}
		}
		bs.bargs[gi] = views
		base := int(p.regOff[ci.dst]) * BatchWidth
		bs.bdst[gi] = bs.words[base : base+BatchWidth : base+BatchWidth]
	}
	bs.argBuf = resize(bs.argBuf, maxArgs)
	bs.initRetColumn(p)
}

// constCol returns the broadcast column of constant operand slot.
func (bs *batchState) constCol(p *Program, slot int32) []Word {
	off, n := int(p.constOff[^slot]), len(p.consts[^slot].Lanes)*BatchWidth
	return bs.consts[off : off+n : off+n]
}

// resize returns s with length n, reallocating only when its capacity is
// short. Reused elements keep their old contents.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// initRetColumn sets up the return column. A straight program has one ret
// at most, so the column is a view of what it returns: the returned
// register's arena run, or the returned constant's broadcast column. A
// multi-block program gets a column of its own, sized for its widest ret,
// that every ret writes its lanes into.
func (bs *batchState) initRetColumn(p *Program) {
	bs.retStride, bs.retCol, bs.straightTy = 0, nil, nil
	for gi := range p.code {
		ci := &p.code[gi]
		if ci.in.Op != ir.OpRet {
			continue
		}
		if len(ci.args) == 1 {
			bs.retStride = max(bs.retStride, p.operandLanes(ci.args[0]))
		}
		if !p.straight {
			continue
		}
		// The first ret ends every straight run.
		bs.straightRet = int32(gi)
		if len(ci.args) == 1 {
			bs.straightTy = ci.in.Args[0].Type()
			if slot := ci.args[0]; slot >= 0 {
				base := int(p.regOff[slot]) * BatchWidth
				bs.retCol = bs.words[base : base+bs.retStride*BatchWidth]
			} else {
				bs.retCol = bs.constCol(p, slot)
			}
		}
		return
	}
	bs.ownRet = resize(bs.ownRet, bs.retStride*BatchWidth)
	bs.retCol = bs.ownRet
}

// operandLanes is the lane count of an operand slot: a register's or a
// constant's.
func (p *Program) operandLanes(slot int32) int {
	if slot >= 0 {
		return int(p.regLanes[slot])
	}
	return len(p.consts[^slot].Lanes)
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

// ArgColumn returns the batch arena's input column for parameter i: vector
// b's lanes occupy [b*L, (b+1)*L) of the returned run, the exact layout the
// batch kernels read. Callers write each run's inputs directly into the
// columns and execute with RunBatchFilled.
func (ev *Evaluator) ArgColumn(i int) []Word {
	r := ev.p.paramReg[i]
	L := int(ev.p.regLanes[r])
	base := int(ev.p.regOff[r]) * BatchWidth
	return ev.bs.words[base : base+L*BatchWidth : base+L*BatchWidth]
}

// RunBatchFilled executes the first n batch lanes against inputs the caller
// already wrote into the ArgColumn runs. mems optionally carries one memory
// per lane (nil entries and a nil slice mean no memory, as for an Env
// without Mem). maxSteps is every lane's step budget; 0 means the default,
// as for Env.MaxSteps. Outcomes — values, poison lanes, UB reasons, step
// accounting — are bit-identical to Exec on each lane's inputs and are read
// back through Masks, RetColumn and LaneResult. n must be <= BatchWidth.
func (ev *Evaluator) RunBatchFilled(n int, mems []*Memory, maxSteps int) {
	if n > BatchWidth {
		panic("interp: RunBatchFilled bounds")
	}
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	bs := ev.bs
	bs.out = LaneMasks{}
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
		ev.runBatchCore(n, maxSteps)
	} else {
		ev.runBatchBlocks(n, maxSteps)
	}
}

// runBatchCore is the straight-line execution loop: arguments are already
// in the batch arena and bs.alive marks the B runnable lanes, each with a
// budget of maxSteps steps.
func (ev *Evaluator) runBatchCore(B, maxSteps int) {
	p := ev.p
	bs := ev.bs
	live := B

	// kill retires lane b with UB. Lanes retire at most once, and every
	// retirement sets the lane's mask bit and step count, so the per-lane
	// arrays need no up-front zeroing. step tracks the current instruction
	// (uniform across lanes on the straight-line path).
	step := 0
	kill := func(b int, why string) {
		bs.retireUB(b, why, step)
		live--
	}

	for gi := 0; gi < len(p.code) && live > 0; gi++ {
		ci := &p.code[gi]
		step = gi + 1
		if step > maxSteps {
			// Lanes advance in lockstep, so every live lane runs out here.
			for b := 0; b < B; b++ {
				if bs.alive[b] {
					bs.steps[b] = step
					bs.out.OutOfBudget |= 1 << uint(b)
					bs.alive[b] = false
				}
			}
			live = 0
			break
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
			// Every lane still running returns here. Their values are
			// already in the return column, which views the returned
			// register or constant, and their step count is this ret's
			// (LaneResult), so retiring them is one mask.
			bs.out.Returned = lanesBelow(B) &^ (bs.out.UB | bs.out.OutOfBudget)
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

// retireUB retires lane b with undefined behaviour after steps dynamic
// instructions.
func (bs *batchState) retireUB(b int, why string, steps int) {
	if bs.why == nil {
		bs.why = make([]string, BatchWidth) // programs that never hit UB skip it
	}
	bs.why[b] = why
	bs.steps[b] = steps
	bs.out.UB |= 1 << uint(b)
	bs.alive[b] = false
}

// lanesBelow returns the mask of lanes [0, n).
func lanesBelow(n int) uint64 {
	if n >= BatchWidth {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// runBatchBlocks is the masked multi-block scheduler: arguments are already
// in the batch arena and bs.alive marks the runnable lanes. All lanes of a
// wave step the current block's instructions together; a lane leaves the
// wave by returning, dying (UB, budget), or branching — branches park the
// lane on its successor's waiting mask. The scheduler then resumes the
// lowest-numbered block with parked lanes: forward branches reconverge
// naturally (both arms of a diamond run before their join block) and back
// edges re-run loop bodies until every lane has exited. Per-lane step
// counts, defined-register masks and predecessor blocks keep the
// semantics — including UB reasons and DynInstrs — bit-identical to running
// Exec per vector. Every lane's step budget is maxSteps.
func (ev *Evaluator) runBatchBlocks(B, maxSteps int) {
	p := ev.p
	bs := ev.bs

	var entry uint64
	for b := 0; b < B; b++ {
		bs.steps[b] = 0
		bs.prev[b] = -1
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
	steps, prev := bs.steps, bs.prev

	// wave is the lane mask currently executing; kill retires one lane of
	// it with UB at its own step count.
	var wave uint64
	kill := func(b int, why string) {
		bs.retireUB(b, why, steps[b])
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
				if steps[b] > maxSteps {
					bs.out.OutOfBudget |= 1 << uint(b)
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
					slot := ci.args[0]
					for m := wave; m != 0; m &= m - 1 {
						b := bits.TrailingZeros64(m)
						if slot >= 0 {
							copy(bs.retCol[b*bs.retStride:], laneView(slot, b))
						} else {
							copy(bs.retCol[b*bs.retStride:], p.consts[^slot].Lanes)
						}
					}
				}
				for m := wave; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					bs.retAt[b] = int32(gi)
					bs.alive[b] = false
				}
				bs.out.Returned |= wave
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

// The batch kernels below run the shared per-lane kernels (intBinLane,
// icmpLane, convIntLane in kernels.go, intLane in intrinsics.go) over the
// batch dimension, killing individual lanes on UB instead of aborting the
// whole execution; only the flagless bitwise and additive binaries, select
// and freeze have loops of their own. The randomized differential test pins
// them to Exec.

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
	for b := 0; b < B; b++ {
		if !alive[b] {
			continue
		}
		r, why := intBinLane(op, flags, w, mask, xs[b], ys[b])
		if why != "" {
			kill(b, why)
			continue
		}
		dst[b] = r
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
		if alive[b] {
			dst[b] = icmpLane(pred, w, mask, xs[b], ys[b])
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
		if alive[b] {
			dst[b] = convIntLane(op, flags, fw, tw, xs[b])
		}
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
