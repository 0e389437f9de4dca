package interp

// Evaluator executes one compiled Program over batches of input vectors.
// Results — values, poison lanes, UB reasons, step accounting — are
// bit-identical to Exec on each vector. It owns all scratch storage (the
// lane-batched register arena, per-lane liveness and budgets, operand
// views), so a steady-state batch performs no allocations on the common
// paths (rare error paths that format addresses still allocate, exactly
// like Exec).
//
// An Evaluator is not safe for concurrent use; build one per goroutine
// (Programs may be shared freely). Returned Result.Ret values alias the
// evaluator's scratch storage and are valid only until the next run; use
// RVal.Clone to retain them.
type Evaluator struct {
	p *Program

	// emptyMem substitutes for a nil Env.Mem. Loads and stores against an
	// empty memory are always out of bounds and never mutate it, so one
	// shared instance is safe across runs.
	emptyMem *Memory

	bs *batchState // lane-batched execution state (batch.go)
}

// NewEvaluator builds an evaluator for p.
func NewEvaluator(p *Program) *Evaluator {
	ev := &Evaluator{p: p, emptyMem: NewMemory()}
	ev.bs = newBatchState(p, ev.emptyMem)
	return ev
}
