package generalize

import (
	"fmt"
	"sort"

	"repro/internal/alive"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Options bounds a generalization run.
type Options struct {
	// Widths is the verification sweep (default 8, 16, 32, 64). The witness
	// width is always included.
	Widths []int
	// Verify bounds each per-width alive check (default Samples 1024, Seed 1).
	Verify alive.Options
}

const (
	// minWidths is how many widths a candidate must verify at to become a
	// rule: the witness width alone is not a generalization.
	minWidths = 2
	// maxSlots caps the number of constant occurrences; beyond that the
	// candidate space stops being a peephole.
	maxSlots = 4
	// maxCombos caps how many slot assignments are verified.
	maxCombos = 48
)

func (o Options) withDefaults() Options {
	if len(o.Widths) == 0 {
		o.Widths = []int{8, 16, 32, 64}
	}
	if o.Verify.Samples == 0 {
		o.Verify.Samples = 1024
	}
	if o.Verify.Seed == 0 {
		o.Verify.Seed = 1
	}
	if o.Verify.Programs == nil {
		// Slot assignments re-instantiate the same functions across the
		// width sweep; a per-run program cache compiles each once. The
		// engine overrides this with its campaign-wide cache.
		o.Verify.Programs = interp.NewCache()
	}
	return o
}

// Rejection records one refuted candidate generalization: the slot
// assignment's side conditions, the width it failed at, and the refutation
// (a counterexample, or an instantiation error for Unsupported verdicts).
type Rejection struct {
	Width int
	Conds []string
	CE    *alive.CounterExample
	Err   string
}

// Result is the outcome of Generalize.
type Result struct {
	// Rule is the surviving generalization, nil when the pair does not
	// generalize (Reason says why).
	Rule   *Rule
	Reason string
	// Rejected lists refuted over-generalizations, capped; it may be
	// non-empty even on success when a broader candidate was tried first.
	Rejected []Rejection
}

const maxRejections = 8

// Generalize lifts a verified concrete rewrite (src, tgt at one width) into
// a width-parameterized rule: it abstracts the constants, enumerates
// candidate abstraction assignments, re-verifies each across the width
// sweep with internal/alive, and returns the first candidate (in a
// deterministic most-widths-first order) whose every valid width verifies.
// Candidates refuted at any width are rejected outright — a counterexample
// at one width means the abstraction, not the witness, is wrong.
func Generalize(src, tgt *ir.Func, opts Options) Result {
	opts = opts.withDefaults()
	ss, err := analyze(src)
	if err != nil {
		return Result{Reason: "source: " + err.Error()}
	}
	ts, err := analyze(tgt)
	if err != nil {
		return Result{Reason: "target: " + err.Error()}
	}
	if ss.width != ts.width {
		return Result{Reason: fmt.Sprintf("width mismatch: source i%d, target i%d", ss.width, ts.width)}
	}
	if len(ss.fn.Params) != len(ts.fn.Params) {
		return Result{Reason: "signature mismatch"}
	}
	for i := range ss.fn.Params {
		if !ir.Equal(ss.fn.Params[i].Ty, ts.fn.Params[i].Ty) {
			return Result{Reason: "signature mismatch"}
		}
	}
	if !ir.Equal(ss.fn.Ret, ts.fn.Ret) {
		return Result{Reason: "signature mismatch"}
	}
	if ss.root == nil {
		return Result{Reason: "source has no root instruction"}
	}
	if ts.ninstr >= ss.ninstr {
		return Result{Reason: "no instruction decrease (rewrites must shrink the window to guarantee fixpoint progress)"}
	}
	// Every parameter the target reads must be bound by matching the source
	// pattern, or the compiled rewriter has nothing to emit for it.
	srcUsed, tgtUsed := usedParams(ss), usedParams(ts)
	for i := range ts.fn.Params {
		if tgtUsed[i] && !srcUsed[i] {
			return Result{Reason: fmt.Sprintf("target reads parameter %%%s the source pattern never matches", ts.fn.Params[i].Nm)}
		}
	}
	occs := append(append([]constOcc(nil), ss.occs...), ts.occs...)
	if len(occs) > maxSlots {
		return Result{Reason: fmt.Sprintf("too many constant slots (%d > %d)", len(occs), maxSlots)}
	}

	W := ss.width
	widths := sweepWidths(opts.Widths, W)
	cands := make([][]CExpr, len(occs))
	for i, o := range occs {
		cands[i] = abstractions(o.val, W)
	}

	// Enumerate slot assignments lexicographically (bounded), keep those
	// valid at enough widths, and try them most-general (most valid widths)
	// first; the stable sort keeps the structural-candidate-first slot order
	// as the tiebreak, so the outcome is deterministic.
	type combo struct {
		assign []CExpr
		valid  []int
	}
	var combos []combo
	const maxEnumerated = 512
	assign := make([]CExpr, len(occs))
	var enumerate func(i int)
	enumerate = func(i int) {
		if len(combos) >= maxEnumerated {
			return
		}
		if i == len(occs) {
			valid := validWidths(widths, occs, assign)
			if len(valid) >= minWidths {
				combos = append(combos, combo{assign: append([]CExpr(nil), assign...), valid: valid})
			}
			return
		}
		for _, c := range cands[i] {
			assign[i] = c
			enumerate(i + 1)
		}
	}
	enumerate(0)
	sort.SliceStable(combos, func(i, j int) bool { return len(combos[i].valid) > len(combos[j].valid) })

	res := Result{}
	reject := func(w int, a []CExpr, ce *alive.CounterExample, msg string) {
		if len(res.Rejected) < maxRejections {
			res.Rejected = append(res.Rejected, Rejection{Width: w, Conds: renderConds(a), CE: ce, Err: msg})
		}
	}
	tried := 0
	for _, c := range combos {
		if tried >= maxCombos {
			break
		}
		tried++
		wrs := alive.VerifyWidths(c.valid, opts.Verify, func(w int) (*ir.Func, *ir.Func, error) {
			s, err := instantiate(ss, c.assign[:len(ss.occs)], w)
			if err != nil {
				return nil, nil, err
			}
			t, err := instantiate(ts, c.assign[len(ss.occs):], w)
			if err != nil {
				return nil, nil, err
			}
			return s, t, nil
		})
		survived := true
		for _, wr := range wrs {
			if wr.Verdict != alive.Correct {
				reject(wr.Width, c.assign, wr.CE, wr.Err)
				survived = false
				break
			}
		}
		if !survived {
			continue
		}
		rule, err := newRule(ss, ts, c.assign, c.valid)
		if err != nil {
			res.Reason = err.Error()
			return res
		}
		res.Rule = rule
		return res
	}
	res.Reason = "no candidate generalization survived the width sweep"
	if len(combos) == 0 {
		res.Reason = fmt.Sprintf("no slot assignment is valid at %d or more widths", minWidths)
	}
	return res
}

// sweepWidths returns the sweep plus the witness width, deduplicated and
// ascending.
func sweepWidths(sweep []int, witness int) []int {
	seen := map[int]bool{}
	var out []int
	for _, w := range append(append([]int(nil), sweep...), witness) {
		if w >= 2 && w <= 64 && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// validWidths filters the sweep to widths where every slot's expression is
// meaningful (fits, shift amounts stay in range, divisors stay non-zero).
func validWidths(widths []int, occs []constOcc, assign []CExpr) []int {
	var out []int
	for _, w := range widths {
		ok := true
		for i, e := range assign {
			if _, valid := slotValue(e, occs[i], w); !valid {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, w)
		}
	}
	return out
}

func renderConds(assign []CExpr) []string {
	out := make([]string, len(assign))
	for i, e := range assign {
		out[i] = fmt.Sprintf("c%d = %s", i, e.Render())
	}
	return out
}

// usedParams reports, by index, which parameters the shape's body reads.
func usedParams(sh *shape) map[int]bool {
	idx := make(map[*ir.Param]int, len(sh.fn.Params))
	for i, p := range sh.fn.Params {
		idx[p] = i
	}
	out := make(map[int]bool)
	for _, in := range sh.fn.Blocks[0].Instrs {
		for _, a := range in.Args {
			if p, ok := a.(*ir.Param); ok {
				out[idx[p]] = true
			}
		}
	}
	return out
}
