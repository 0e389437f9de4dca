package engine

// This file holds the four pipeline stages of Algorithm 1, each instrumented
// with per-stage metrics: Propose (the provider call), Preprocess (syntax
// check + opt canonicalization), Filter (the §3.3 interestingness model) and
// Verify (the translation validator, behind a cross-worker cache).

import (
	"context"
	"errors"
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
func (e *Engine) preprocess(candidate string) (*ir.Func, error) {
	start := time.Now()
	defer func() { e.stats.recordStage(StagePreprocess, time.Since(start).Seconds()) }()
	cand, err := parser.ParseFunc(candidate)
	if err != nil {
		return nil, err
	}
	if !e.cfg.DisableOptPreprocess {
		// The rule selection for Config.Opt is prebuilt once in New; only
		// the iteration bound still comes from the per-run options.
		o := e.cfg.Opt
		o.Rules = e.optSet
		cand = opt.Run(cand, o)
	}
	return cand, nil
}

// filter is stage 3: the interestingness check.
func (e *Engine) filter(src, cand *ir.Func) bool {
	start := time.Now()
	defer func() { e.stats.recordStage(StageFilter, time.Since(start).Seconds()) }()
	return Interesting(src, cand, e.cfg.CPU)
}

// verify is stage 4: refinement checking, memoized across workers by the
// structural hashes of the pair. alive.Verify is a pure function of
// (src, cand, options), so the cache never changes an outcome — it only
// skips redundant re-verification when different workers (or rounds)
// produce the same candidate for the same window.
func (e *Engine) verify(src, cand *ir.Func) alive.Result {
	start := time.Now()
	defer func() { e.stats.recordStage(StageVerify, time.Since(start).Seconds()) }()
	if e.cfg.DisableVerifyCache {
		res := alive.Verify(src, cand, e.cfg.Verify)
		e.stats.recordVerify(res.Checked, res.Tiers)
		return res
	}
	key := verifyKey{src: ir.Hash(src), cand: ir.Hash(cand)}
	e.vmu.Lock()
	ent, hit := e.vcache[key]
	if !hit {
		ent = &verifyEntry{}
		e.vcache[key] = ent
	}
	e.vmu.Unlock()
	if hit {
		e.stats.recordCacheHit()
	}
	// Singleflight: concurrent workers hitting the same pair wait for one
	// verification instead of racing to compute it twice.
	ent.once.Do(func() {
		defer func() {
			if pv := recover(); pv != nil {
				// Park the panic on the entry and re-raise: once.Do marks the
				// slot done even on panic, so every waiter must re-raise too —
				// the zero ent.res would otherwise read as a Correct verdict.
				ent.panicked = pv
				panic(pv)
			}
		}()
		ent.res = alive.Verify(src, cand, e.cfg.Verify)
		e.stats.recordVerify(ent.res.Checked, ent.res.Tiers)
	})
	if ent.panicked != nil {
		panic(ent.panicked)
	}
	return ent.res
}

// OptimizeSeq runs Algorithm 1's inner loop (lines 6-24) on one wrapped
// sequence: up to AttemptLimit trips through Propose → Preprocess → Filter →
// Verify, feeding each failure back to the provider. round seeds the
// provider so repeated rounds resample. It is safe to call concurrently.
func (e *Engine) OptimizeSeq(ctx context.Context, src *ir.Func, round int) Result {
	res := Result{Outcome: NoProposal, Src: src, Round: round}
	srcRep := mca.Analyze(src, e.cfg.CPU)
	res.InstrsBefore = srcRep.Instructions
	res.CyclesBefore = srcRep.TotalCycles

	messages := []llm.Message{
		{Role: llm.RoleSystem, Content: llm.SystemPrompt},
		{Role: llm.RoleUser, Content: prompt(src)},
	}
	sawRefutation := false
	sawSyntaxError := false
	for attempt := 0; attempt < e.cfg.AttemptLimit; attempt++ {
		resp, err := e.propose(ctx, messages, round)
		if err != nil {
			if errors.Is(err, llm.ErrCircuitOpen) {
				// Provider down for good (breaker open): fall back to the
				// knowledge-base proposer instead of failing the sequence.
				return e.degradedSeq(res, src)
			}
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
		cand, perr := e.preprocess(att.Candidate)
		if perr != nil {
			att.Feedback = perr.Error()
			res.Attempts = append(res.Attempts, att)
			sawSyntaxError = true
			messages = append(messages, llm.Message{Role: llm.RoleUser, Content: att.Feedback})
			continue
		}
		att.Parsed = true
		if !e.cfg.DisableInterestingness && !e.filter(src, cand) {
			res.Attempts = append(res.Attempts, att)
			res.Outcome = NoProposal
			if ir.Hash(cand) != ir.Hash(src) {
				res.Outcome = Uninteresting
			}
			return res // Alg. 1 line 16: abandon the sequence.
		}
		verdict, verr := e.verifyBounded(src, cand)
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
			rep := mca.Analyze(cand, e.cfg.CPU)
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
func Interesting(src, cand *ir.Func, cpu *mca.CPUModel) bool {
	sr := mca.Analyze(src, cpu)
	cr := mca.Analyze(cand, cpu)
	if cr.Instructions < sr.Instructions || cr.TotalCycles < sr.TotalCycles {
		return true
	}
	return cr.Instructions == sr.Instructions && cr.TotalCycles == sr.TotalCycles &&
		ir.Hash(src) != ir.Hash(cand)
}
