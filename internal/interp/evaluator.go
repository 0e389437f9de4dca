package interp

import (
	"sync"

	"repro/internal/ir"
)

// Evaluator executes one compiled Program over batches of input vectors.
// Outcomes — values, poison lanes, UB reasons, step accounting — are
// bit-identical to Exec on each vector. It owns all scratch storage (the
// lane-batched register arena, per-lane liveness and budgets, operand
// views, the per-lane outcome columns), so a steady-state batch performs no
// allocations on the common paths (rare error paths that format addresses
// still allocate, exactly like Exec).
//
// A run reports its outcome as columns: Masks gives one bitmask per
// outcome (returned, UB, out of budget) over the batch lanes, RetColumn the
// lanes' return values side by side, and LaneResult materializes one
// lane's full Result on demand. Every view aliases the evaluator's scratch
// and is valid only until its next run; use RVal.Clone to retain values.
//
// An Evaluator is not safe for concurrent use; take one per goroutine
// (Programs may be shared freely). NewEvaluator recycles the storage of
// evaluators handed back with Release.
type Evaluator struct {
	p *Program

	// emptyMem substitutes for an absent lane memory. Loads and stores
	// against an empty memory are always out of bounds and never mutate it,
	// so one shared instance is safe across runs.
	emptyMem *Memory

	bs *batchState  // lane-batched execution state (batch.go)
	ps *packedState // packed-tier state (packed.go), laid out on first use
}

// LaneMasks classifies the lanes of the latest run, one bit per lane: every
// lane that ran is in exactly one mask.
type LaneMasks struct {
	Returned    uint64 // completed by a ret; its value is in RetColumn
	UB          uint64 // killed by undefined behaviour
	OutOfBudget uint64 // exhausted its step budget
}

// evalPool recycles released Evaluators across Programs: NewEvaluator lays
// a recycled one out for its Program, reusing its arena and views. Storage
// pooled this way tracks how many evaluators run at once, not how many
// distinct Programs ran lately, and like every sync.Pool it is dropped
// across garbage collections.
var evalPool sync.Pool

// NewEvaluator returns an evaluator for p, recycling the storage of a
// released one when the pool holds any. Scratch state never carries over
// between runs, so recycled and fresh evaluators are interchangeable.
func NewEvaluator(p *Program) *Evaluator {
	ev, ok := evalPool.Get().(*Evaluator)
	if !ok {
		ev = &Evaluator{emptyMem: NewMemory(), bs: &batchState{}}
	}
	ev.p = p
	ev.bs.bind(p, ev.emptyMem)
	return ev
}

// Release hands ev's storage back for reuse by a later NewEvaluator.
// Neither ev nor any view it returned may be used afterwards.
func (ev *Evaluator) Release() {
	clear(ev.bs.mems) // retain no caller memory
	ev.p = nil
	evalPool.Put(ev)
}

// Masks returns the per-lane outcome masks of the latest run.
func (ev *Evaluator) Masks() LaneMasks { return ev.bs.out }

// RetColumn returns the return column of the latest run: lane b's return
// value occupies col[b*stride : (b+1)*stride] when b is in Masks().Returned.
// stride is the return type's lane count (0 for void functions). Straight
// programs return a view of the returned register or constant itself;
// multi-block programs copy each returning lane's value into the column.
func (ev *Evaluator) RetColumn() (col []Word, stride int) {
	return ev.bs.retCol, ev.bs.retStride
}

// LaneResult builds lane b's full Result of the latest run, identical to
// what Exec returns for that lane's vector. Its Ret aliases the return
// column.
func (ev *Evaluator) LaneResult(b int) Result {
	bs, bit := ev.bs, uint64(1)<<uint(b)
	switch {
	case bs.out.UB&bit != 0:
		return Result{UB: true, UBReason: bs.why[b], Completed: true, DynInstrs: bs.steps[b]}
	case bs.out.Returned&bit == 0:
		return Result{DynInstrs: bs.steps[b]} // out of budget
	}
	var ty ir.Type
	var lanes []Word
	dyn := int(bs.straightRet) + 1
	if ev.p.straight {
		if ty = bs.straightTy; ty != nil {
			lo := b * bs.retStride
			lanes = bs.retCol[lo : lo+bs.retStride : lo+bs.retStride]
		}
	} else {
		dyn = bs.steps[b]
		if ci := &ev.p.code[bs.retAt[b]]; len(ci.in.Args) == 1 {
			ty = ci.in.Args[0].Type()
			lo := b * bs.retStride
			hi := lo + ev.p.operandLanes(ci.args[0])
			lanes = bs.retCol[lo:hi:hi]
		}
	}
	return Result{Completed: true, DynInstrs: dyn, Ret: RVal{Ty: ty, Lanes: lanes}}
}
