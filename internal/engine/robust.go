package engine

// Fault tolerance for the discovery loop. Two mechanisms keep a campaign
// alive when individual windows or the provider misbehave:
//
//   - Panic isolation: a panic anywhere inside one sequence's trip through
//     the loop is recovered in the worker, converted to an OutcomePanicked
//     result, and the window is quarantined — the campaign continues and the
//     other windows are unaffected.
//   - Stage deadlines: Config.StageTimeout bounds each propose, verify and
//     generalize invocation so one pathological window cannot stall the
//     pool (the substrate stages are CPU-bound and not context-aware, so
//     the bound is enforced from outside).
//
// A provider error that outlives the client's own retries (llm.Retrying)
// fails only its sequence: the result is Errored, consumers that persist
// results skip it, and a later submission recomputes the window.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/alive"
	"repro/internal/ir"
)

// ErrStageTimeout marks a stage abandoned by Config.StageTimeout. The
// sequence that hit it reports Errored; the stage's goroutine is left to
// finish in the background (its result may still land in the verify cache).
var ErrStageTimeout = errors.New("engine: stage deadline exceeded")

// runSeqIsolated is the worker's panic boundary around one sequence: a panic
// inside any stage becomes an OutcomePanicked result and quarantines the
// window instead of killing the process.
func (e *Engine) runSeqIsolated(ctx context.Context, it item) (res Result) {
	defer func() {
		if pv := recover(); pv != nil {
			var src *ir.Func
			if it.seq != nil {
				src = it.seq.Fn
			}
			res = Result{
				Index:   it.idx,
				Seq:     it.seq,
				Src:     src,
				Outcome: Panicked,
				Err:     fmt.Errorf("engine: sequence panicked: %v", pv),
			}
			e.quarantine(src)
			e.stats.recordPanic()
		}
	}()
	return e.runSeq(ctx, it)
}

// quarantine records a window whose processing panicked, keyed by the 16-hex
// hash the store and service use for findings.
func (e *Engine) quarantine(src *ir.Func) {
	if src == nil {
		return
	}
	key := fmt.Sprintf("%016x", ir.Hash(src))
	e.qmu.Lock()
	defer e.qmu.Unlock()
	for _, q := range e.quarantined {
		if q == key {
			return
		}
	}
	e.quarantined = append(e.quarantined, key)
}

// Quarantined returns the window hashes (16-hex, occurrence order) whose
// processing panicked. Like Stats it may be read during a run and
// accumulates across runs of a reused engine.
func (e *Engine) Quarantined() []string {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return append([]string(nil), e.quarantined...)
}

// runBounded enforces Config.StageTimeout around one CPU-bound stage call.
// With no timeout configured it runs f inline. On timeout the goroutine is
// abandoned (it keeps running to completion); a panic inside f before the
// deadline propagates to the caller, and one after the deadline is swallowed
// by the buffered channel rather than escaping into the runtime.
func (e *Engine) runBounded(stage string, f func()) error {
	if e.cfg.StageTimeout <= 0 {
		f()
		return nil
	}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	t := time.NewTimer(e.cfg.StageTimeout)
	defer t.Stop()
	select {
	case pv := <-done:
		if pv != nil {
			panic(pv)
		}
		return nil
	case <-t.C:
		return fmt.Errorf("engine: stage %s: %w", stage, ErrStageTimeout)
	}
}

// verifyBounded is the verify stage behind the stage deadline.
func (e *Engine) verifyBounded(src, cand *ir.Func, key verifyKey) (alive.Result, error) {
	var res alive.Result
	if err := e.runBounded(StageVerify, func() { res = e.verify(src, cand, key) }); err != nil {
		return alive.Result{}, err
	}
	return res, nil
}
