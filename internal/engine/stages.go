package engine

// This file holds the four pipeline stages of Algorithm 1, each instrumented
// with per-stage metrics: Propose (the provider call), Preprocess (syntax
// check + opt canonicalization), Filter (the §3.3 interestingness model) and
// Verify (the translation validator, behind a cross-worker cache).

import (
	"context"
	"time"

	"repro/internal/alive"
	"repro/internal/ir"
	"repro/internal/llm"
	"repro/internal/mca"
	"repro/internal/opt"
	"repro/internal/parser"
)

// Stage names, in pipeline order: the keys of Snapshot.Stages. The generalize
// stage only runs when Config.Learn is set (the post-verify hook that lifts
// Found rewrites into learned rules).
const (
	StagePropose    = "propose"
	StagePreprocess = "preprocess"
	StageFilter     = "filter"
	StageVerify     = "verify"
	StageGeneralize = "generalize"
)

// StageNames lists the pipeline stages in execution order.
func StageNames() []string {
	return []string{StagePropose, StagePreprocess, StageFilter, StageVerify, StageGeneralize}
}

// prompt renders the initial user message for a sequence.
func prompt(src *ir.Func) string {
	return "Optimize the following LLVM IR instruction sequence. " +
		"Reply with a complete function that is a correct refinement:\n\n" +
		src.String()
}

// window is the work on a source window that no round changes: its hash,
// printed prompt and cost report. runSeq builds it once per window.
type window struct {
	src    *ir.Func
	hash   uint64
	prompt string
	rep    mca.Report
}

func newWindow(src *ir.Func) window {
	return window{src: src, hash: ir.Hash(src), prompt: prompt(src), rep: mca.Analyze(src, btver2)}
}

// propose is stage 1: one provider round trip. Its stage latency is the
// response's *virtual* latency (the profile's throughput model), not wall
// time, matching the rest of the reproduction's accounting. Config.
// StageTimeout rides the request context — providers are context-aware, so
// no outside enforcement is needed.
func (e *Engine) propose(ctx context.Context, messages []llm.Message, round int) (llm.Response, error) {
	if e.cfg.StageTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.StageTimeout)
		defer cancel()
	}
	resp, err := e.client.Complete(ctx, llm.Request{
		Model:    e.client.Profile().Name,
		Messages: messages,
		Round:    round,
	})
	e.stats.recordStage(StagePropose, resp.Usage.VirtualSeconds)
	return resp, err
}

// preprocess is stage 2: parse the candidate and canonicalize it with opt.
// The returned error is the positioned parser diagnostic fed back verbatim.
// Outcomes are memoized per candidate text (Engine.pre), so a repeated
// candidate returns the same function or the same *parser.ParseError; every
// consumer of a candidate only reads it.
func (e *Engine) preprocess(candidate string) preprocessed {
	start := time.Now()
	defer func() { e.stats.recordStage(StagePreprocess, time.Since(start).Seconds()) }()
	p, _ := e.pre.Do(candidate, func() preprocessed {
		var p preprocessed
		p.fn, p.err = parser.ParseFunc(candidate)
		if p.err == nil {
			p.fn = opt.Run(p.fn, e.cfg.Opt)
			p.hash = ir.Hash(p.fn)
		}
		return p
	})
	return p
}

// preprocessed is one preprocess outcome: the canonical function and its
// hash, or the parse error.
type preprocessed struct {
	fn   *ir.Func
	hash uint64
	err  error
}

// filter is stage 3: the interestingness check against the window's
// precomputed cost report.
func (e *Engine) filter(w window, cand preprocessed) bool {
	start := time.Now()
	defer func() { e.stats.recordStage(StageFilter, time.Since(start).Seconds()) }()
	return interesting(w.rep, cand.fn, cand.hash != w.hash)
}

// verify is stage 4: refinement checking, memoized across workers by the
// structural hashes of the pair (key). alive.Verify is a pure function of
// (src, cand, options), so the memo never changes an outcome — it only
// skips re-verification when different workers (or rounds) produce the same
// candidate for the same window. Concurrent workers on one pair wait for one
// verification, and a panic in it reaches all of them.
func (e *Engine) verify(src, cand *ir.Func, key verifyKey) alive.Result {
	start := time.Now()
	defer func() { e.stats.recordStage(StageVerify, time.Since(start).Seconds()) }()
	res, hit := e.verified.Do(key, func() alive.Result {
		res := alive.Verify(src, cand, e.cfg.Verify)
		e.stats.recordVerify(res.Checked, res.Tiers)
		return res
	})
	if hit {
		e.stats.recordCacheHit()
	}
	return res
}

// OptimizeSeq runs Algorithm 1's inner loop (lines 6-24) on one wrapped
// sequence: up to AttemptLimit trips through Propose → Preprocess → Filter →
// Verify, feeding each failure back to the provider. round seeds the
// provider so repeated rounds resample. It is safe to call concurrently.
func (e *Engine) OptimizeSeq(ctx context.Context, src *ir.Func, round int) Result {
	return e.optimize(ctx, newWindow(src), round)
}

// optimize is OptimizeSeq on a window whose per-window work is done.
func (e *Engine) optimize(ctx context.Context, w window, round int) Result {
	src := w.src
	res := Result{Outcome: NoProposal, Src: src, Round: round}
	res.InstrsBefore = w.rep.Instructions
	res.CyclesBefore = w.rep.TotalCycles

	messages := []llm.Message{
		{Role: llm.RoleSystem, Content: llm.SystemPrompt},
		{Role: llm.RoleUser, Content: w.prompt},
	}
	sawRefutation := false
	sawSyntaxError := false
	for attempt := 0; attempt < e.cfg.AttemptLimit; attempt++ {
		resp, err := e.propose(ctx, messages, round)
		if err != nil {
			res.Outcome = Errored
			if ctx.Err() != nil {
				res.Outcome = Canceled
			}
			res.Err = err
			return res
		}
		res.Usage.Add(resp.Usage)
		messages = append(messages, llm.Message{Role: llm.RoleAssistant, Content: resp.Text})

		att := Attempt{Candidate: llm.ExtractFunc(resp.Text)}
		p := e.preprocess(att.Candidate)
		if p.err != nil {
			att.Feedback = p.err.Error()
			res.Attempts = append(res.Attempts, att)
			sawSyntaxError = true
			messages = append(messages, llm.Message{Role: llm.RoleUser, Content: att.Feedback})
			continue
		}
		att.Parsed = true
		cand := p.fn
		if !e.filter(w, p) {
			res.Attempts = append(res.Attempts, att)
			res.Outcome = NoProposal
			if p.hash != w.hash {
				res.Outcome = Uninteresting
			}
			return res // Alg. 1 line 16: abandon the sequence.
		}
		verdict, verr := e.verifyBounded(src, cand, verifyKey{w.hash, p.hash})
		if verr != nil {
			res.Attempts = append(res.Attempts, att)
			res.Outcome, res.Err = Errored, verr
			return res
		}
		switch verdict.Verdict {
		case alive.Correct:
			att.Verified = true
			res.Attempts = append(res.Attempts, att)
			res.Outcome = Found
			res.Cand = cand
			res.RuleHits = e.attribute(src)
			rep := mca.Analyze(cand, btver2)
			res.InstrsAfter = rep.Instructions
			res.CyclesAfter = rep.TotalCycles
			return res
		case alive.Incorrect:
			att.Feedback = verdict.CE.Format()
		case alive.Unsupported:
			att.Feedback = verdict.Err
		}
		res.Attempts = append(res.Attempts, att)
		sawRefutation = true
		messages = append(messages, llm.Message{Role: llm.RoleUser, Content: att.Feedback})
	}
	switch {
	case sawRefutation:
		res.Outcome = Refuted
	case sawSyntaxError:
		res.Outcome = SyntaxFailed
	}
	return res
}

// attribute names the registry rules (patch/KB provenance only) that close
// the src window, keyed by rule ID. It is the registry view of "which missed
// optimization is this": running the full rule set over the source and
// recording which non-baseline rules fire. Nil when no optional rule applies
// (e.g. a provider that found a rewrite outside the knowledge base).
func (e *Engine) attribute(src *ir.Func) map[string]int {
	hits := opt.Attribute(src, e.kb)
	if len(hits) == 0 {
		return nil
	}
	return hits
}

// Interesting implements the paper's §3.3 check: a candidate is worth
// verifying if it has fewer instructions, fewer estimated cycles, or the
// same of both while being syntactically different (enabling later folds).
// Cycles are estimated on the btver2 model.
func Interesting(src, cand *ir.Func) bool {
	return interesting(mca.Analyze(src, btver2), cand, ir.Hash(src) != ir.Hash(cand))
}

// interesting is Interesting given the source's cost report sr and
// whether the candidate's hash differs from the source's.
func interesting(sr mca.Report, cand *ir.Func, changed bool) bool {
	cr := mca.Analyze(cand, btver2)
	if cr.Instructions < sr.Instructions || cr.TotalCycles < sr.TotalCycles {
		return true
	}
	return cr.Instructions == sr.Instructions && cr.TotalCycles == sr.TotalCycles && changed
}
