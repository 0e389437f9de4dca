package alive

import "repro/internal/ir"

// WidthResult pairs a verification Result with the bit width it ran at.
type WidthResult struct {
	Width int
	Result
}

// VerifyWidths re-checks a width-parameterized transformation across a
// width sweep: inst instantiates the (source, target) pair at each width and
// each instantiation is verified independently through a tiered, batched
// Checker. An instantiation error (e.g. a constant that does not survive
// the move to that width) yields an Unsupported result carrying the error,
// mirroring the fixable-error channel of single-pair verification.
//
// Counterexamples are shared across the sweep, CEGIS-style: a width that
// refutes the pair reseeds every later width's tier 0 with the rescaled
// falsifying vector (wrong abstractions usually fail the same way at every
// width, so the sweep rejects them after a handful of executions instead of
// a full sampling pass per width). Widths at which the pair verifies see
// the exact same input sequence as an unseeded run, so surviving sweeps are
// unaffected. internal/generalize drives its over-generalization rejection
// through this helper, and cmd/lpo-verify -widths exposes it directly.
func VerifyWidths(widths []int, opts Options, inst func(w int) (src, tgt *ir.Func, err error)) []WidthResult {
	out := make([]WidthResult, 0, len(widths))
	var carry []PoolVector // falsifying vectors from earlier widths
	for _, w := range widths {
		src, tgt, err := inst(w)
		if err != nil {
			out = append(out, WidthResult{Width: w, Result: Result{Verdict: Unsupported, Err: err.Error()}})
			continue
		}
		c := NewChecker(src, tgt, opts)
		for _, cv := range carry {
			if rv, ok := RescaleVector(src.Params, cv); ok {
				c.Seed([]PoolVector{rv})
			}
		}
		r := c.Verify()
		c.Release()
		if r.Verdict == Incorrect && r.CE != nil {
			carry = append(carry, PoolVector{Inputs: r.CE.Inputs, Mem: r.CE.Memory})
		}
		out = append(out, WidthResult{Width: w, Result: r})
	}
	return out
}
