// Package opt models LLVM's `opt -O3` on peephole-sized IR: constant
// folding, operand canonicalization and dead code elimination around a
// registry of first-class rewrite rules, run to a fixpoint.
//
// Every rewrite the optimizer can perform is a *Rule (rules.go) with an ID,
// a provenance, the root opcodes it fires on, a pattern doc string and a
// synthetic example. Three rule packs register themselves:
//
//   - baseline: the InstSimplify identities (simplify.go) and the
//     InstCombine-style rewrites (rewrite.go) that reproduce the paper's
//     *baseline* optimizer — always enabled;
//   - patch: the fixes that later landed in LLVM (patches.go, paper
//     Table 5 / Figure 5), switched on individually by naming them to
//     NewRuleSet to model the compiler after the corresponding fix;
//   - kb: the simulated LLM's knowledge base (kb.go) — rewrites no compiler
//     version performs, which is what makes them discoverable "missed
//     optimizations".
//
// A RuleSet is an opcode-indexed dispatch table in deterministic rule order,
// so the per-instruction hot path walks only the few rules rooted at that
// instruction's opcode. Build one with NewRuleSet, once per selection, and
// pass it to Run via Options.Rules; a nil selection runs the shared
// baseline set. RunWithStats additionally reports per-rule hit
// counts, which back rule-level attribution end to end: engine.Stats
// aggregates them and the experiment harness prints which rule closed each
// benchmark.
package opt

import (
	"sync"

	"repro/internal/ir"
)

// Options configures a pipeline run.
type Options struct {
	// Rules is the rule selection to run, built with NewRuleSet or taken
	// from FullRuleSet; nil runs the baseline rules only.
	Rules *RuleSet
}

// maxIters bounds the number of fixpoint iterations of one run.
const maxIters = 25

// RunStats reports per-run observability: how many fixpoint iterations ran
// and how often each rule fired, keyed by rule ID.
type RunStats struct {
	Iters int
	// RuleHits counts hits per rule ID; nil when no rule fired.
	RuleHits map[string]int
}

// RunO3 runs the default baseline pipeline on f; see Run.
func RunO3(f *ir.Func) *ir.Func { return Run(f, Options{}) }

// Run optimizes f according to opts and returns the result. The input is
// never mutated; the result may be the input itself, when no rewrite
// applies, so a caller that edits the result must clone it first.
func Run(f *ir.Func, opts Options) *ir.Func {
	g, _ := RunWithStats(f, opts)
	return g
}

// RunWithStats is Run plus per-rule attribution for the run. It first
// probes, without writing, whether the first sweep would change anything;
// most functions it sees are already optimal, and for those it returns f
// itself with the stats a full run reports (one iteration, no hits).
// Otherwise it optimizes a clone.
func RunWithStats(f *ir.Func, opts Options) (*ir.Func, RunStats) {
	tr := newTransform(f, opts)
	if tr.quiescent() {
		return f, RunStats{Iters: 1}
	}
	return tr.run()
}

// newTransform resolves opts into the state of one run over f.
func newTransform(f *ir.Func, opts Options) *transform {
	t := &transform{src: f, fn: f, rs: opts.Rules}
	if t.rs == nil {
		t.rs = baselineSet
	}
	return t
}

// run optimizes a clone of t.src to a fixpoint, starting afresh whatever a
// probe left behind.
func (t *transform) run() (*ir.Func, RunStats) {
	t.hits, t.fn, t.used, t.fresh = nil, ir.CloneFunc(t.src), nil, 0
	var stats RunStats
	for iter := 0; iter < maxIters; iter++ {
		stats.Iters++
		changed := t.iterate()
		changed = t.dce() || changed
		if !changed {
			break
		}
	}
	stats.RuleHits = t.hits
	return t.fn, stats
}

// transform holds the per-run rewriting state.
type transform struct {
	src  *ir.Func // the caller's function, never written
	fn   *ir.Func // the function being rewritten
	rs   *RuleSet
	hits map[string]int // allocated at the first hit

	repl  map[ir.Value]ir.Value
	live  map[*ir.Instr]bool
	used  map[string]bool // names freshName must avoid; nil until first use
	fresh int
}

// scratchPool recycles quiescent's canonicalization targets, so a probe
// allocates neither the instruction nor its operand slice.
var scratchPool = sync.Pool{New: func() any { return new(ir.Instr) }}

// quiescent reports whether the first sweep over t.fn would change
// nothing: no instruction folds, canonicalizes or fires a rule, and DCE
// finds every instruction live. It writes nothing reachable from t.fn:
// canonicalize, the one step that edits in place, runs on a scratch copy.
// The sweep is exact because every step before the first change sees the
// function unchanged.
func (t *transform) quiescent() bool {
	scratch := scratchPool.Get().(*ir.Instr)
	defer func() {
		args := scratch.Args[:0]
		clear(args[:cap(args)]) // retain no caller values
		*scratch = ir.Instr{Args: args}
		scratchPool.Put(scratch)
	}()
	for _, b := range t.fn.Blocks {
		for i, in := range b.Instrs {
			if _, ok := t.constFold(in); ok {
				return false
			}
			args := scratch.Args
			*scratch = *in
			scratch.Args = append(args[:0], in.Args...)
			if t.canonicalize(scratch) {
				return false
			}
			if _, _, ok := t.applyRules(in, b.Instrs[:i:i]); ok {
				return false
			}
		}
	}
	t.markLive()
	for _, b := range t.fn.Blocks {
		for _, in := range b.Instrs {
			if !t.live[in] {
				return false
			}
		}
	}
	return true
}

// freshName returns a result name unused by the input function and by
// earlier fresh names.
func (t *transform) freshName() string {
	if t.used == nil {
		t.used = make(map[string]bool)
		for _, p := range t.src.Params {
			t.used[p.Nm] = true
		}
		for _, b := range t.src.Blocks {
			for _, in := range b.Instrs {
				if in.HasResult() {
					t.used[in.Nm] = true
				}
			}
		}
	}
	for {
		name := "t" + itoa(t.fresh)
		t.fresh++
		if !t.used[name] {
			t.used[name] = true
			return name
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// resolve follows the replacement map transitively.
func (t *transform) resolve(v ir.Value) ir.Value {
	for {
		n, ok := t.repl[v]
		if !ok {
			return v
		}
		v = n
	}
}

// iterate runs one rewriting sweep over the function; it reports whether
// anything changed.
func (t *transform) iterate() bool {
	changed := false
	if t.repl == nil {
		t.repl = make(map[ir.Value]ir.Value)
	}
	clear(t.repl)
	for _, b := range t.fn.Blocks {
		var out []*ir.Instr
		for _, in := range b.Instrs {
			// Rewrite operands through the replacement map first.
			for ai, a := range in.Args {
				if r := t.resolve(a); r != a {
					in.Args[ai] = r
					changed = true
				}
			}
			// 1. Constant folding.
			if c, ok := t.constFold(in); ok {
				t.repl[in] = c
				changed = true
				continue
			}
			// 2. In-place canonicalization (operand order, op strength).
			if t.canonicalize(in) {
				changed = true
			}
			// 3. Registry dispatch, indexed by the (possibly canonicalized)
			//    opcode: the simplify identities come first in each dispatch
			//    list, then the rewrites that emit replacement instructions.
			//    A rule may also delete a void instruction outright (nil
			//    value).
			if news, v, ok := t.applyRules(in, out); ok {
				out = append(out, news...)
				if v != nil {
					t.repl[in] = v
				}
				changed = true
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	// Phi operands and later-block uses may still reference replaced values.
	if len(t.repl) > 0 {
		for _, b := range t.fn.Blocks {
			for _, in := range b.Instrs {
				for ai, a := range in.Args {
					if r := t.resolve(a); r != a {
						in.Args[ai] = r
						changed = true
					}
				}
			}
		}
	}
	return changed
}

// markLive fills t.live with the instructions DCE keeps: those with side
// effects, terminators, phis and everything they use.
func (t *transform) markLive() {
	if t.live == nil {
		n := 0
		for _, b := range t.fn.Blocks {
			n += len(b.Instrs)
		}
		t.live = make(map[*ir.Instr]bool, n)
	}
	clear(t.live)
	for _, b := range t.fn.Blocks {
		for _, in := range b.Instrs {
			if in.HasSideEffects() || in.IsTerminator() || in.Op == ir.OpPhi {
				t.mark(in)
			}
		}
	}
}

func (t *transform) mark(v ir.Value) {
	in, ok := v.(*ir.Instr)
	if !ok || t.live[in] {
		return
	}
	t.live[in] = true
	for _, a := range in.Args {
		t.mark(a)
	}
}

// dce removes instructions whose results are unused and that have no side
// effects; it reports whether anything was removed.
func (t *transform) dce() bool {
	t.markLive()
	changed := false
	for _, b := range t.fn.Blocks {
		var out []*ir.Instr
		for _, in := range b.Instrs {
			if t.live[in] {
				out = append(out, in)
			} else {
				changed = true
			}
		}
		b.Instrs = out
	}
	return changed
}
