// Package engine is the concurrent discovery API for the paper's Algorithm 1.
// It replaces the old sequential lpo.Pipeline: an Engine drives a pool of
// workers over a Source of extracted instruction sequences, pushing each one
// through the composable stage chain Propose → Preprocess → Filter → Verify
// (with the paper's feedback loop between attempts), and streams Results back
// in source order.
//
// The engine is context-aware end to end — cancelling the context passed to
// Run stops the feeder, the workers, and any in-flight provider call — and
// deterministic: for a fixed provider seed the set and order of emitted
// results is identical regardless of the worker count, because each sequence's
// trip through the loop depends only on (sequence, round) and results are
// reassembled in input order before they are emitted.
package engine

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alive"
	"repro/internal/extract"
	"repro/internal/generalize"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/llm"
	"repro/internal/mca"
	"repro/internal/memo"
	"repro/internal/opt"
)

// Config tunes the engine. The zero value reproduces the paper's settings
// (ATTEMPT_LIMIT = 2, one round) with one worker per CPU. The
// interestingness filter always uses the btver2 model, and every candidate
// is canonicalized with opt and verified behind the cross-worker cache.
type Config struct {
	// Workers is the size of the worker pool (default runtime.GOMAXPROCS).
	Workers int
	// QueueSize bounds the input and result queues (default 2*Workers), so a
	// slow consumer exerts backpressure on the Source instead of buffering
	// the whole corpus in memory.
	QueueSize int
	// Rounds is how many provider rounds to try per sequence (default 1).
	// Unless AllRounds is set, a sequence stops at its first Found round.
	Rounds int
	// AllRounds runs every round even after a Found and records each round's
	// outcome in Result.RoundOutcomes (used by the RQ1 detection matrix).
	AllRounds bool

	// Learn lifts every verified Found rewrite into a candidate generalized
	// rule via internal/generalize: constants become symbolic expressions of
	// the bit width, the abstraction is re-verified across a width sweep,
	// and survivors are collected on the engine (Learned, Rulebook) and
	// attached to their Result. Generalization work is deduplicated across
	// workers by witness-pair hash. The sweeps run at generalize's defaults.
	Learn bool

	// StageTimeout bounds each propose, verify and generalize invocation
	// (0 = unbounded). The propose bound rides the request context; the
	// CPU-bound stages are bounded from outside and a timed-out stage fails
	// its sequence with ErrStageTimeout instead of stalling the pool.
	StageTimeout time.Duration

	// Lookup optionally short-circuits sequences whose outcome a previous
	// campaign already computed: it is consulted once per sequence, before
	// any provider round, and a hit is returned as the sequence's Result —
	// marked Cached, counted in Snapshot.StoreHits — without touching the
	// provider or the verifier. cmd/lpo -store and the
	// lpod service back it with the persistent content-addressed store
	// (internal/store), which is what makes resubmitting an overlapping
	// corpus pay only for windows nobody has processed before.
	Lookup func(src *ir.Func) (Result, bool)

	AttemptLimit int         // max LLM attempts per sequence (paper: 2)
	Opt          opt.Options // optimizer used for candidate preprocessing
	Verify       alive.Options
}

// Capacities of the engine's memos. Each is above the most distinct keys
// any campaign, test or table run puts in one engine (at most about 180
// candidate texts, 110 verified pairs and 60 generalized pairs), so such
// runs never evict; a long-lived engine (lpod) stays bounded.
const (
	preprocessMemoCap = 256
	verifyMemoCap     = 256
	learnMemoCap      = 128
)

// btver2 is the interestingness filter's cost model: AMD Jaguar, the
// llvm-mca target the paper uses.
var btver2 = mca.BTVer2()

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 2 * c.Workers
	}
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	if c.AttemptLimit == 0 {
		c.AttemptLimit = 2
	}
	return c
}

// Outcome classifies one sequence's trip through the loop.
type Outcome string

// Outcomes.
const (
	Found         Outcome = "found"         // verified missed optimization
	Uninteresting Outcome = "uninteresting" // candidate no better than the original
	Refuted       Outcome = "refuted"       // all attempts failed verification
	SyntaxFailed  Outcome = "syntax-failed" // all attempts failed to parse
	NoProposal    Outcome = "no-proposal"   // LLM echoed the input
	Errored       Outcome = "error"         // provider or source error
	Canceled      Outcome = "canceled"      // context ended mid-sequence
	Panicked      Outcome = "panicked"      // sequence panicked; window quarantined
)

// Attempt records one iteration of the loop for reporting and tests.
type Attempt struct {
	Candidate string // raw LLM text (IR extracted)
	Feedback  string // feedback generated FROM this attempt ("" if none)
	Parsed    bool
	Verified  bool
}

// Result is the outcome for one instruction sequence.
type Result struct {
	Seq   *extract.Sequence // provenance (nil when the input was a bare func)
	Index int               // position in the source stream
	Round int               // round that decided the outcome

	Outcome  Outcome
	Src      *ir.Func
	Cand     *ir.Func // verified candidate (Outcome == Found)
	Attempts []Attempt
	Err      error // set for Errored / Canceled

	// RoundOutcomes holds every round's outcome when Config.AllRounds.
	RoundOutcomes []Outcome

	Usage llm.Usage // accumulated over all attempts and rounds
	// Gain metrics for found optimizations.
	InstrsBefore, InstrsAfter int
	CyclesBefore, CyclesAfter int

	// RuleHits attributes a Found outcome to the registry rules that close
	// the source window (optional patch/KB rules only, keyed by rule ID).
	// Nil for every other outcome.
	RuleHits map[string]int

	// Learned is the width-generalized rule lifted from this Found rewrite
	// when Config.Learn is set. Duplicate witnesses across sequences share
	// one rule instance; nil when learning is off or the rewrite does not
	// generalize.
	Learned *generalize.Rule

	// Cached marks a result served by Config.Lookup (a previous campaign's
	// stored outcome) rather than computed by this run — consumers that
	// persist results use it to avoid re-writing what the store gave them.
	Cached bool
}

// String renders a result for logs.
func (r Result) String() string {
	return fmt.Sprintf("%s: %d->%d instrs, %d->%d cycles",
		r.Outcome, r.InstrsBefore, r.InstrsAfter, r.CyclesBefore, r.CyclesAfter)
}

// Engine binds the provider and the substrate stages together behind a
// concurrent batch API. Build one with New, then call Run (streaming) or
// RunAll (collecting); OptimizeSeq is the single-sequence entry point the
// batch machinery itself uses.
type Engine struct {
	client llm.Client
	cfg    Config
	stats  *Stats
	// kb is the full rule registry as a prebuilt dispatch table, used to
	// attribute Found results to the rules that close the window.
	kb *opt.RuleSet
	// gen configures the learn stage's width sweeps (see New).
	gen generalize.Options

	// pre memoizes preprocess outcomes by candidate text, verified verdicts
	// by pair hashes.
	pre      *memo.Map[string, preprocessed]
	verified *memo.Map[verifyKey, alive.Result]

	// Learned-rule state (Config.Learn): generalized memoizes the width
	// sweep by witness-pair hash, learned collects distinct rules by ID.
	generalized *memo.Map[uint64, *generalize.Rule]
	lmu         sync.Mutex
	learned     map[string]learnedRule

	// runs numbers the engine's Runs, so learned can order witnesses
	// across runs of a reused engine.
	runs atomic.Int64

	// Quarantine: windows whose processing panicked, keyed by 16-hex window
	// hash (see runSeqIsolated). A quarantined window produced an
	// OutcomePanicked result and is never retried within this engine's life.
	qmu         sync.Mutex
	quarantined []string
}

// learnedRule is the rulebook entry for one rule ID: the rule as learned
// from the earliest witness — lowest run, then lowest sequence index —
// that generalized to the ID.
type learnedRule struct {
	rule *generalize.Rule
	run  int64
	idx  int
}

type verifyKey struct{ src, cand uint64 }

// New builds an engine with the given client and config defaults applied.
func New(client llm.Client, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	// One compiled-program cache backs the verify stage and the generalize
	// width sweeps: every distinct window and candidate compiles once per
	// engine, across workers and rounds.
	if cfg.Verify.Programs == nil {
		cfg.Verify.Programs = interp.NewCache()
	}
	// One campaign-wide counterexample pool sits beside it: every falsified
	// candidate deposits its refuting input, and verification tier 0
	// replays the window's pooled inputs against later candidates (CEGIS).
	// Verify-stage deposits always come from the window's own generated
	// input sequence, so replaying them can never flip a verdict the
	// sequence itself would not have flipped — the engine's
	// any-worker-count determinism survives. The generalize width sweeps
	// get their own campaign-scoped pool: sweep deposits include vectors
	// rescaled from other widths, which are NOT in any window's generated
	// sequence, so sharing one pool with the verify stage would make
	// verdicts depend on whether a concurrent sweep deposited first.
	if cfg.Verify.Pool == nil {
		cfg.Verify.Pool = alive.NewCEPool()
	}
	return &Engine{
		client: client,
		cfg:    cfg,
		stats:  &Stats{},
		kb:     opt.FullRuleSet(),
		gen: generalize.Options{Verify: alive.Options{
			Programs: cfg.Verify.Programs, Pool: alive.NewCEPool()}},
		pre:         memo.New[string, preprocessed](preprocessMemoCap),
		verified:    memo.New[verifyKey, alive.Result](verifyMemoCap),
		generalized: memo.New[uint64, *generalize.Rule](learnMemoCap),
		learned:     make(map[string]learnedRule),
	}
}

// Learned returns the distinct rules learned so far (Config.Learn), sorted
// by ID. Like Stats it may be read while a run is in flight and accumulates
// across runs of a reused engine.
func (e *Engine) Learned() []*generalize.Rule {
	e.lmu.Lock()
	defer e.lmu.Unlock()
	out := make([]*generalize.Rule, 0, len(e.learned))
	for _, r := range e.learned {
		out = append(out, r.rule)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Rulebook serializes the learned rules for later runs (cmd/lpo -learn).
func (e *Engine) Rulebook() *generalize.Rulebook {
	return generalize.NewRulebook(e.Learned())
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns the engine's accumulating counters. The same object is
// returned by Run; exposing it here lets sources that feed the engine
// (e.g. the wasm lift sources) record coverage before Run is called.
func (e *Engine) Stats() *Stats { return e.stats }

// CEPool returns the campaign's shared counterexample pool (never nil after
// New), for observability and cross-campaign reuse.
func (e *Engine) CEPool() *alive.CEPool { return e.cfg.Verify.Pool }

// item is one unit of scheduled work.
type item struct {
	run int64 // the Run the item belongs to, numbered from 1
	idx int
	seq *extract.Sequence
}

// Run streams every sequence of src through the discovery loop using the
// configured worker pool and emits one Result per input on the returned
// channel, in input order. The returned Stats is live — its Snapshot is
// safe to take while the run is in flight — and is quiescent once the
// channel closes. Cancelling ctx drains the run promptly: remaining
// sequences are skipped and the channel closes. The caller must either
// drain the channel or cancel ctx — abandoning the channel with a live
// context leaks the pool.
//
// The same Engine may be reused for several runs; Stats accumulates across
// them (call Stats.Reset between runs for per-run numbers).
func (e *Engine) Run(ctx context.Context, src Source) (<-chan Result, *Stats) {
	out := make(chan Result)
	run := e.runs.Add(1)
	items := make(chan item, e.cfg.QueueSize)
	results := make(chan Result, e.cfg.QueueSize)

	// Feeder: pull from the source until it drains, the context ends, or it
	// fails. A source error becomes a final Errored result so the consumer
	// sees it in-band.
	go func() {
		defer close(items)
		for idx := 0; ; idx++ {
			seq, ok, err := src.Next(ctx)
			if err != nil {
				if ctx.Err() != nil {
					return // cancellation is not a source failure
				}
				res := Result{Index: idx, Outcome: Errored, Err: err}
				e.stats.recordResult(res)
				select {
				case results <- res:
				case <-ctx.Done():
				}
				return
			}
			if !ok {
				return
			}
			select {
			case items <- item{run: run, idx: idx, seq: seq}:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range items {
				var res Result
				if ctx.Err() != nil {
					res = Result{Index: it.idx, Seq: it.seq, Src: it.seq.Fn,
						Outcome: Canceled, Err: ctx.Err()}
				} else {
					// runSeqIsolated is the panic boundary: a panicking
					// window yields OutcomePanicked and a quarantine entry
					// instead of killing the pool.
					res = e.runSeqIsolated(ctx, it)
				}
				e.stats.recordResult(res)
				select {
				case results <- res:
				case <-ctx.Done():
					// Consumer is gone; keep draining items so the feeder
					// never blocks, but stop forwarding.
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reassembler: emit results in input order so output is deterministic
	// regardless of worker count and scheduling.
	go func() {
		defer close(out)
		pending := make(map[int]Result)
		next := 0
		for res := range results {
			pending[res.Index] = res
			for {
				r, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				select {
				case out <- r:
				case <-ctx.Done():
					// Keep consuming `results` (loop continues) so workers
					// and feeder unwind; just stop emitting.
				}
			}
		}
	}()

	return out, e.stats
}

// RunAll collects a Run into a slice, in input order.
func (e *Engine) RunAll(ctx context.Context, src Source) ([]Result, *Stats) {
	ch, stats := e.Run(ctx, src)
	var out []Result
	for r := range ch {
		out = append(out, r)
	}
	return out, stats
}

// runSeq drives one scheduled sequence through its round budget.
func (e *Engine) runSeq(ctx context.Context, it item) Result {
	if e.cfg.Lookup != nil && it.seq.Fn != nil {
		if r, ok := e.cfg.Lookup(it.seq.Fn); ok {
			r.Index = it.idx
			r.Seq = it.seq
			if r.Src == nil {
				r.Src = it.seq.Fn
			}
			r.Cached = true
			e.stats.recordStoreHit()
			return r
		}
	}

	var agg Result
	var usage llm.Usage
	var roundOutcomes []Outcome
	firstFound := -1
	w := newWindow(it.seq.Fn)
	for round := 0; round < e.cfg.Rounds; round++ {
		r := e.optimize(ctx, w, round)
		usage.Add(r.Usage)
		if e.cfg.AllRounds {
			roundOutcomes = append(roundOutcomes, r.Outcome)
		}
		keep := firstFound < 0 // before the first Found, the latest round is representative
		if r.Outcome == Found && firstFound < 0 {
			firstFound = round
			keep = true
		}
		if keep {
			agg = r
			agg.Round = round
		}
		if r.Outcome == Canceled {
			break
		}
		if r.Outcome == Found && !e.cfg.AllRounds {
			break
		}
	}
	agg.Index = it.idx
	agg.Seq = it.seq
	agg.Usage = usage
	agg.RoundOutcomes = roundOutcomes
	if e.cfg.Learn && agg.Outcome == Found && agg.Cand != nil {
		agg.Learned = e.learn(agg.Src, agg.Cand, it)
	}
	return agg
}

// learn runs the post-verify generalize hook on one Found witness pair,
// singleflighted across workers and rounds by the pair's structural hash:
// only the first sighting pays for the width sweep, and every sighting of
// the pair returns its rule (a copy naming the sequence's origin when it
// has one). Pairs can generalize to the same rule ID; the rulebook keeps
// the rule of the earliest sequence, so its bytes do not depend on which
// worker's sweep finished first.
func (e *Engine) learn(src, cand *ir.Func, it item) *generalize.Rule {
	key := ir.Hash(src) ^ bits.RotateLeft64(ir.Hash(cand), 1)
	rule, _ := e.generalized.Do(key, func() *generalize.Rule {
		start := time.Now()
		var res generalize.Result
		err := e.runBounded(StageGeneralize, func() {
			res = generalize.Generalize(src, cand, e.gen)
		})
		e.stats.recordStage(StageGeneralize, time.Since(start).Seconds())
		// A timed-out sweep learns nothing; the finding itself stands.
		if err != nil {
			return nil
		}
		return res.Rule
	})
	if rule == nil {
		return nil
	}
	if seq := it.seq; seq != nil && seq.Module != "" {
		withOrigin := *rule
		withOrigin.Origin = seq.Module + ":" + seq.Func
		rule = &withOrigin
	}
	e.lmu.Lock()
	defer e.lmu.Unlock()
	if cur, dup := e.learned[rule.ID]; !dup || it.run < cur.run || it.run == cur.run && it.idx < cur.idx {
		e.learned[rule.ID] = learnedRule{rule: rule, run: it.run, idx: it.idx}
	}
	return rule
}
