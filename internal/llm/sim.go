package llm

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ir"
	"repro/internal/memo"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/seedrand"
)

// Calibration is the per-(model, benchmark) success calibration from the
// paper's Table 2: successes out of five rounds on the first attempt
// (Minus, the LPO- setting) and within the full feedback loop (Plus).
type Calibration struct {
	Minus int
	Plus  int
}

// Sim is the deterministic simulated model. Whether a rewrite is "found" is
// drawn from seeded randomness (calibrated per benchmark when a calibration
// entry exists, Profile.DiscoverP otherwise); the emitted text is real IR
// produced by the knowledge base, possibly corrupted through the paper's two
// observed failure channels (syntax errors, Figure 3b; semantically wrong
// candidates refuted by the verifier, §3).
//
// A reply is a function of the window text and of per-call draws, and the
// engine asks about each window several times (once per attempt and round),
// so the work that depends on the text alone is memoized per window text:
// the parse outcome, the window's hash, the knowledge base's rewrite of it
// (shared read-only), whether that rewrite changed it, and the four reply
// texts it can give — the echo, the rewrite, the syntax-corrupted rewrite
// and the hallucinated one — each printed the first time it is needed.
// What stays per call, in the same order as without the memo, is the
// (window, round) random source, the failure-channel draw, the calibration
// lookup and the success draws. The memo holds at most windowMemoCap
// windows and evicts by clock, so a long-lived Sim (lpod) stays bounded.
type Sim struct {
	prof Profile
	seed uint64
	cal  map[uint64]Calibration // keyed by ir.Hash of the prompted function
	// kb is the full rule registry (patches + knowledge base) as an ordered
	// RuleSet: rule order is deterministic and the opcode-indexed dispatch
	// table is built once and shared across every Complete call.
	kb *opt.RuleSet
	// windows memoizes the text-only work per extracted window text.
	windows *memo.Map[string, *window]
}

// windowMemoCap bounds Sim.windows. A campaign job asks about at most
// about 180 distinct windows, so every job fits without eviction.
const windowMemoCap = 256

// window is what the simulator knows about one window text.
type window struct {
	src   *ir.Func // nil when the text does not parse
	h     uint64
	ideal *ir.Func // the knowledge base's rewrite of src; read-only
	known bool     // the rewrite differs from src

	echo, rewrite, corrupt, hallu reply
}

// reply is one reply text of a window, printed at its first use.
type reply struct {
	once sync.Once
	text string
}

func (r *reply) get(print func() string) string {
	r.once.Do(func() { r.text = print() })
	return r.text
}

// NewSim builds a simulated client for the named model.
func NewSim(model string, seed uint64) *Sim {
	return &Sim{
		prof:    ProfileByName(model),
		seed:    seed,
		cal:     make(map[uint64]Calibration),
		kb:      opt.FullRuleSet(),
		windows: memo.New[string, *window](windowMemoCap),
	}
}

// Profile returns the model profile.
func (s *Sim) Profile() Profile { return s.prof }

// Calibrate registers a Table 2 calibration entry for the function with the
// given structural hash. Calibrate must not be called concurrently with
// Complete; calibrate once up front, then hand the Sim to the engine.
func (s *Sim) Calibrate(h uint64, c Calibration) { s.cal[h] = c }

// SystemPrompt is the instruction LPO sends (paper Figure 2).
const SystemPrompt = "If the provided instruction sequence is suboptimal, " +
	"output the optimal and correct implementation. If the result is " +
	"incorrect, revise it based on the provided feedback."

// Complete implements Client. All per-call state is derived from the request
// alone, so concurrent Complete calls are safe. Cancellation is checked up
// front: a real provider would abort the HTTP round trip.
func (s *Sim) Complete(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	inTokens := 0
	attempt := 0
	firstUser := ""
	for _, m := range req.Messages {
		inTokens += EstimateTokens(m.Content)
		if m.Role == RoleUser {
			attempt++
			if firstUser == "" {
				firstUser = m.Content
			}
		}
	}
	if attempt == 0 {
		return Response{}, fmt.Errorf("llm: request has no user message")
	}
	text := s.respond(firstUser, attempt, req.Round)
	outTokens := EstimateTokens(text) + s.prof.ReasoningTokens
	usage := Usage{
		InputTokens:    inTokens,
		OutputTokens:   outTokens,
		VirtualSeconds: s.prof.PromptOverhead + float64(outTokens)/s.prof.TokensPerSecond,
		CostUSD: float64(inTokens)/1e6*s.prof.CostInPerMTok +
			float64(outTokens)/1e6*s.prof.CostOutPerMTok,
	}
	return Response{Text: text, Usage: usage}, nil
}

// respond produces the assistant turn for the given attempt.
func (s *Sim) respond(prompt string, attempt, round int) string {
	fnText := ExtractFunc(prompt)
	if fnText == "" {
		return "I could not find an LLVM IR function in the request."
	}
	w := s.window(fnText)
	if w.src == nil {
		return w.echo.get(func() string { return wrapIR(fnText) })
	}
	rng := s.rng(w.h, round)
	defer rngPool.Put(rng)
	uChannel := rng.Float64()
	s1, s2 := s.successFor(w.h, round, rng)
	if !w.known {
		// Nothing in the knowledge base: echo the input (LPO will classify
		// it as uninteresting and move on — Alg. 1 line 16).
		return w.echoSrc()
	}
	if attempt <= 1 {
		if s1 {
			return w.rewriteText()
		}
		// First attempt fails: emit one of the two failure channels so the
		// feedback loop has something to repair.
		if uChannel < s.prof.SyntaxErrRate {
			return w.corrupt.get(func() string { return wrapIR(corruptSyntax(w.ideal)) })
		}
		return w.hallu.get(func() string {
			if wrong, ok := hallucinate(w.ideal); ok {
				return wrapIR(wrong.String())
			}
			return w.echoSrc()
		})
	}
	// Second (or later) attempt with feedback.
	if s2 {
		return w.rewriteText()
	}
	return w.echoSrc()
}

// window returns the memo entry for a window text, building it once on a
// miss: parse, hash, and run the knowledge base.
func (s *Sim) window(fnText string) *window {
	w, _ := s.windows.Do(fnText, func() *window {
		w := &window{}
		if src, err := parser.ParseFunc(fnText); err == nil {
			w.src = src
			w.h = ir.Hash(src)
			w.ideal = opt.Run(src, opt.Options{Rules: s.kb})
			w.known = ir.Hash(w.ideal) != w.h
		}
		return w
	})
	return w
}

func (w *window) echoSrc() string {
	return w.echo.get(func() string { return wrapIR(w.src.String()) })
}

func (w *window) rewriteText() string {
	return w.rewrite.get(func() string { return wrapIR(w.ideal.String()) })
}

// successFor decides the two attempt outcomes for a given round. Calibrated
// prompts are *stratified*: within each block of five rounds the model
// succeeds on exactly Minus first attempts and Plus overall, in a
// hash-seeded round order — reproducing the paper's Table 2 cells exactly
// while still interleaving the failure channels. Uncalibrated prompts use
// independent Bernoulli draws at the profile's discovery rate.
func (s *Sim) successFor(h uint64, round int, rng *rand.Rand) (s1, s2 bool) {
	c, ok := s.cal[h]
	if !ok {
		return rng.Float64() < s.prof.DiscoverP, rng.Float64() < s.prof.DiscoverP
	}
	prng := s.rng(h, -1)
	perm := prng.Perm(5)
	rngPool.Put(prng)
	slot := perm[((round%5)+5)%5]
	return slot < c.Minus, slot < c.Plus
}

// rngPool recycles the simulator's per-response random sources. Seeding
// a seedrand.Source puts it in exactly the state rand.NewSource(s) starts
// in, in O(1); a draw computes only the register words it reads, and a
// response draws a few numbers, far fewer than the 607 words.
var rngPool = sync.Pool{New: func() any { return rand.New(new(seedrand.Source)) }}

// rng returns the random source for one (window, round) draw, taken from
// rngPool; the caller puts it back when done. The seed is the 64-bit
// FNV-1a digest of "<profile>|<seed>|<hash>|<round>".
func (s *Sim) rng(h uint64, round int) *rand.Rand {
	var buf [96]byte
	key := append(buf[:0], s.prof.Name...)
	key = append(key, '|')
	key = strconv.AppendUint(key, s.seed, 10)
	key = append(key, '|')
	key = strconv.AppendUint(key, h, 10)
	key = append(key, '|')
	key = strconv.AppendInt(key, int64(round), 10)
	sum := uint64(14695981039346656037)
	for _, c := range key {
		sum ^= uint64(c)
		sum *= 1099511628211
	}
	r := rngPool.Get().(*rand.Rand)
	r.Seed(int64(sum))
	return r
}

// wrapIR renders an assistant message around a function body the way chat
// models answer (prose + fenced code).
func wrapIR(fn string) string {
	return "Here is the optimized instruction sequence:\n\n```llvm\n" +
		strings.TrimRight(fn, "\n") + "\n```\n"
}

// ExtractFunc pulls the first complete "define ... { ... }" block out of a
// chat message (both prompts and the simulator's own answers use this).
func ExtractFunc(text string) string {
	idx := strings.Index(text, "define ")
	if idx < 0 {
		return ""
	}
	rest := text[idx:]
	end := strings.Index(rest, "\n}")
	if end < 0 {
		return ""
	}
	return rest[:end+2]
}

// corruptSyntax reproduces the paper's Figure 3b failure: a min/max
// intrinsic call written as a bare (non-existent) opcode, or a conversion
// missing its "to" keyword.
func corruptSyntax(f *ir.Func) string {
	text := f.String()
	for _, base := range []string{"smax", "smin", "umax", "umin"} {
		needle := "@llvm." + base + "."
		if i := strings.Index(text, needle); i >= 0 {
			// Rewrite "%n = tail call T @llvm.smax.suf(T %a, T %b)" into
			// "%n = smax T %a, T %b".
			lineStart := strings.LastIndex(text[:i], "\n") + 1
			lineEnd := i + strings.Index(text[i:], "\n")
			line := text[lineStart:lineEnd]
			eq := strings.Index(line, "= ")
			open := strings.Index(line, "(")
			if eq < 0 || open < 0 {
				continue
			}
			args := strings.TrimSuffix(strings.TrimSpace(line[open+1:]), ")")
			broken := line[:eq+2] + base + " " + args
			return text[:lineStart] + broken + text[lineEnd:]
		}
	}
	if i := strings.Index(text, " to "); i >= 0 {
		return text[:i] + " " + text[i+4:]
	}
	if strings.Contains(text, "= ") {
		// Mangle the first opcode.
		return strings.Replace(text, "= ", "= optimize ", 1)
	}
	// Instruction-free bodies (identity/constant rewrites): break the ret so
	// the corruption is never a silent no-op.
	return strings.Replace(text, "ret ", "return ", 1)
}

// hallucinate derives a semantically wrong but well-formed candidate from a
// correct rewrite: the first integer constant is bumped by one, or a stray
// operation is appended to the returned value. It reports false when the
// function offers nothing to perturb (e.g. void results with no constants).
func hallucinate(f *ir.Func) (*ir.Func, bool) {
	g := ir.CloneFunc(f)
	for _, in := range g.Instrs() {
		for ai, a := range in.Args {
			switch c := a.(type) {
			case *ir.ConstInt:
				in.Args[ai] = ir.CInt(c.Ty, ir.SignExt(c.V, c.Ty.W)+1)
				return g, true
			case *ir.Splat:
				if e, ok := c.Elem.(*ir.ConstInt); ok {
					in.Args[ai] = &ir.Splat{Ty: c.Ty, Elem: ir.CInt(e.Ty, ir.SignExt(e.V, e.Ty.W)+1)}
					return g, true
				}
			}
		}
	}
	// No constants: twiddle the returned value.
	last := g.Blocks[len(g.Blocks)-1]
	term := last.Terminator()
	if term == nil || term.Op != ir.OpRet || len(term.Args) == 0 {
		return nil, false
	}
	rv := term.Args[0]
	switch {
	case ir.IsInt(rv.Type()):
		x := ir.Bin(ir.OpXor, "hallu", ir.NoFlags, rv, ir.SplatInt(rv.Type(), 1))
		last.Instrs = append(last.Instrs[:len(last.Instrs)-1], x, term)
		term.Args[0] = x
		return g, true
	case ir.IsFloat(rv.Type()) && !ir.IsVector(rv.Type()):
		one := &ir.ConstFloat{Ty: rv.Type().(ir.FloatType), F: 1}
		x := ir.Bin(ir.OpFAdd, "hallu", ir.NoFlags, rv, one)
		last.Instrs = append(last.Instrs[:len(last.Instrs)-1], x, term)
		term.Args[0] = x
		return g, true
	}
	return nil, false
}
