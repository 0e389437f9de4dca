// Package alive is a bounded translation validator in the spirit of Alive2:
// it checks that a target function refines a source function, and produces a
// counterexample when it does not.
//
// Where Alive2 encodes the refinement obligation symbolically for an SMT
// solver, this implementation checks it concretely: exhaustively when the
// input space is small enough, and over structured corner values plus seeded
// random samples otherwise. Like Alive2 it is *bounded* validation — "correct"
// means "no counterexample found within the bound" — and the refinement
// relation is the same:
//
//   - if the source execution is UB, the target may do anything;
//   - per result lane, a poison source lane permits any target lane, and a
//     defined source lane requires an equal, non-poison target lane;
//   - bytes written by the source constrain the target's final memory the
//     same way.
//
// Verification is the discovery loop's inner loop, so it is built around a
// compile-once Checker: both functions are compiled to interp Programs
// (optionally via a shared Options.Programs cache), input vectors stream
// lazily through two pooled Evaluators in lane batches, verdicts are read
// off the evaluators' outcome columns, and a CounterExample is materialized
// only on an actual violation — a steady-state Verify performs O(1)
// allocations, however many vectors it checks.
// ReferenceVerify keeps the historic Exec-per-input path as the semantic
// baseline.
//
// The counter phase of an exhaustive sequence — nearly every vector a
// learning campaign verifies — runs on interp's packed tier when both
// programs are packable (straight-line scalar integers, every instruction a
// specialized batch kind; see interp.Program.Packable): argument words come
// from static ramps, and source and target are compared word by word. The
// packed tier reports values, poison and UB but no reasons, so the lane
// path stays the counterexample path: the first group with a violating
// lane re-runs there and builds the Result, the counterexample and the
// pool deposit exactly as ReferenceVerify would, and the poison trials
// that end the sequence run there too (packed.go).
package alive

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"

	"repro/internal/interp"
	"repro/internal/ir"
)

// Verdict classifies a verification run.
type Verdict int

// Verdicts.
const (
	// Correct means no refinement violation was found within the bound.
	Correct Verdict = iota
	// Incorrect means a counterexample was found.
	Incorrect
	// Unsupported means the pair could not be checked (e.g. signature
	// mismatch); Err carries an Alive2-style fixable error message.
	Unsupported
)

// Options bound the verification effort.
type Options struct {
	// MaxExhaustiveBits is the largest total input bit budget that is
	// enumerated exhaustively (default 16).
	MaxExhaustiveBits int
	// Samples is the number of random input vectors when not exhaustive
	// (default 4096).
	Samples int
	// Seed makes the random sampling reproducible.
	Seed uint64
	// MemSize is the byte size of the region behind each pointer argument
	// (default 64).
	MemSize int
	// MemFills is how many distinct initial memories are tried per input
	// vector when pointers are present (default 4).
	MemFills int
	// Programs optionally caches compiled programs across Verify calls,
	// keyed by structural hash. Callers that verify the same functions
	// repeatedly (the engine verify stage, generalize width sweeps, CEGIS
	// loops) share one cache so each distinct function compiles once. Nil
	// compiles per call. The cache never changes a verdict: programs are a
	// pure function of the IR.
	Programs *interp.Cache
	// Pool optionally shares counterexamples across Verify calls: inputs
	// that falsified any previous candidate for the same source window are
	// replayed first (verification tier 0), killing repeat offenders in a
	// handful of executions. Nil disables sharing. Replayed vectors are
	// re-executed, so an Incorrect verdict always carries a genuine,
	// freshly-checked counterexample.
	Pool *CEPool
}

func (o Options) withDefaults() Options {
	if o.MaxExhaustiveBits == 0 {
		o.MaxExhaustiveBits = 16
	}
	if o.Samples == 0 {
		o.Samples = 4096
	}
	if o.MemSize == 0 {
		o.MemSize = 64
	}
	if o.MemFills == 0 {
		o.MemFills = 4
	}
	return o
}

// CounterExample captures one refinement violation.
type CounterExample struct {
	Params  []*ir.Param
	Inputs  []interp.RVal
	Memory  [][]byte // initial contents of each pointer region, in param order
	SrcRet  interp.RVal
	TgtRet  interp.RVal
	SrcUB   bool
	TgtUB   bool
	TgtWhy  string
	MemDiff string // description of a memory refinement violation, if any
}

// Filterable reports whether the counterexample can join a test-vector
// filter (the Souper and Minotaur baselines): its inputs and the source's
// output on them are poison-free, and the source is defined there.
func (ce *CounterExample) Filterable() bool {
	poison := ce.SrcRet.AnyPoison()
	for _, in := range ce.Inputs {
		poison = poison || in.AnyPoison()
	}
	return !ce.SrcUB && !poison
}

// Format renders the counterexample in the style Alive2 prints and LPO feeds
// back to the LLM.
func (ce *CounterExample) Format() string {
	var sb strings.Builder
	sb.WriteString("Transformation doesn't verify!\n")
	switch {
	case ce.TgtUB:
		sb.WriteString("ERROR: Source is guaranteed to be defined, target is undefined\n")
	case ce.MemDiff != "":
		sb.WriteString("ERROR: Mismatch in memory\n")
	default:
		sb.WriteString("ERROR: Value mismatch\n")
	}
	sb.WriteString("Example:\n")
	for i, p := range ce.Params {
		fmt.Fprintf(&sb, "%s %%%s = %s\n", p.Ty, p.Nm, ce.Inputs[i].Format())
	}
	memIdx := 0
	for _, p := range ce.Params {
		if ir.IsPtr(p.Ty) && memIdx < len(ce.Memory) {
			fmt.Fprintf(&sb, "memory at %%%s = % x\n", p.Nm, ce.Memory[memIdx])
			memIdx++
		}
	}
	if ce.SrcUB {
		sb.WriteString("Source value: UB\n")
	} else {
		fmt.Fprintf(&sb, "Source value: %s\n", ce.SrcRet.Format())
	}
	switch {
	case ce.TgtUB:
		fmt.Fprintf(&sb, "Target value: UB (%s)\n", ce.TgtWhy)
	default:
		fmt.Fprintf(&sb, "Target value: %s\n", ce.TgtRet.Format())
	}
	if ce.MemDiff != "" {
		sb.WriteString(ce.MemDiff + "\n")
	}
	return sb.String()
}

// Verification tiers, cheapest kill first. TierNone marks a Result without
// a violation.
const (
	TierNone    = 0 // no violation found
	TierPool    = 1 // replayed counterexample from the shared CEPool
	TierSpecial = 2 // exhaustive / corner / mixed / poison phases
	TierRandom  = 3 // random sampling phase
)

// TierStats breaks a Verify run down by scheduler tier: how many input
// vectors each tier contributed and which tier found the violation (if
// any). Checked on the enclosing Result is the sum of the per-tier counts.
type TierStats struct {
	PoolChecked    int // tier 0: pooled/seeded counterexample replays
	SpecialChecked int // tier 1: exhaustive enumeration and special values
	RandomChecked  int // tier 2: random samples
	KillTier       int // Tier* constant of the violating vector, TierNone if none
}

// count attributes n checked vectors to tier.
func (t *TierStats) count(tier, n int) {
	switch tier {
	case TierPool:
		t.PoolChecked += n
	case TierSpecial:
		t.SpecialChecked += n
	case TierRandom:
		t.RandomChecked += n
	}
}

// Result is the outcome of Verify.
type Result struct {
	Verdict    Verdict
	CE         *CounterExample
	Err        string // set for Unsupported
	Checked    int    // input vectors actually executed
	Exhaustive bool   // true if the whole input space was covered
	Tiers      TierStats
}

// Checker is a compiled (source, target) refinement obligation: both
// functions are lowered once into interp Programs and every Verify call
// streams input vectors through two reusable evaluators. Build one with
// NewChecker and reuse it when the same pair is re-verified (CEGIS rounds);
// the one-shot Verify wrapper covers everything else. A Checker is not safe
// for concurrent use (the evaluators share scratch); compile one per
// goroutine — the underlying Programs may be shared via Options.Programs.
//
// Checkers and their evaluators are recycled: NewChecker takes its batch
// buffers from checkerPool and its evaluators from the Programs' pools, and
// Release hands all of them back. The one-shot Verify and VerifyWidths
// release their checkers; a caller that builds one releases it when done.
// Counterexamples are cloned out of the scratch, so they never alias
// recycled storage.
type Checker struct {
	src, tgt *ir.Func
	opts     Options
	sigErr   string

	se, te    *interp.Evaluator
	ptrParams []int // param indices of pointer type

	winKey  uint64 // pool key of the source window (lazy)
	haveKey bool
	seeds   []PoolVector // extra tier-0 vectors (width-sweep reseeding)

	// Lane-batched streaming state. Every vector — tier-0 replays and the
	// generated sequence alike — is written directly into the source
	// evaluator's input columns (bArgs views them per batch slot), the
	// columns are bulk-copied into the target evaluator, and both sides run
	// with RunBatchFilled — no per-vector staging or scatter at all. Pairs
	// with pointer parameters additionally carry per-lane slab memories:
	// each batch slot's regions are reset to that vector's initial memory
	// before the runs and diffed lane against lane afterwards.
	bArgs            [interp.BatchWidth][]interp.RVal // per batch slot: views into srcCols
	argViews         []interp.RVal                    // backing store of bArgs
	srcCols, tgtCols [][]interp.Word                  // per param: the evaluators' input columns
	bTiers           [interp.BatchWidth]int8
	srcBM, tgtBM     *interp.BatchMems                // per-lane memories (pointer params only)
	bMem             [interp.BatchWidth][][]byte      // per slot: initial memory, per ptr param (borrowed)
	ptrSave          [][interp.BatchWidth]interp.Word // per ptr param: raw input pointer words, per slot

	// Packed tier (packed.go): both programs are packable, so the counter
	// phase of an exhaustive sequence runs on packed words. ramps holds
	// one group's ramp words per parameter.
	packable bool
	ramps    [][64]uint64
}

// checkerPool recycles released Checkers. Like every sync.Pool it drops
// idle entries across garbage collections, so recycled scratch is never
// retained for long.
var checkerPool = sync.Pool{New: func() any { return new(Checker) }}

// NewChecker compiles src and tgt (through opts.Programs when set) and
// prepares the execution state, recycling released scratch where it can.
func NewChecker(src, tgt *ir.Func, opts Options) *Checker {
	c := checkerPool.Get().(*Checker)
	c.src, c.tgt, c.opts, c.haveKey = src, tgt, opts.withDefaults(), false
	if c.sigErr = signatureError(src, tgt); c.sigErr != "" {
		return c
	}
	sp, tp := c.opts.Programs.Program(src), c.opts.Programs.Program(tgt)
	c.se, c.te = interp.NewEvaluator(sp), interp.NewEvaluator(tp)
	c.packable = sp.Packable() && tp.Packable()
	c.ptrParams = c.ptrParams[:0]
	for i, p := range src.Params {
		if ir.IsPtr(p.Ty) {
			c.ptrParams = append(c.ptrParams, i)
		}
	}
	c.initBatch()
	return c
}

// Release hands c's evaluators back to their Programs and c itself to
// checkerPool, dropping every reference to caller data first. c must not be
// used afterwards; the Results it returned stay valid.
func (c *Checker) Release() {
	if c.se != nil {
		c.se.Release()
		c.te.Release()
	}
	c.se, c.te, c.src, c.tgt, c.opts = nil, nil, nil, nil, Options{}
	clear(c.seeds)
	c.seeds = c.seeds[:0]
	clear(c.bArgs[:])
	clear(c.argViews)
	clear(c.srcCols)
	clear(c.tgtCols)
	clear(c.bMem[:])
	checkerPool.Put(c)
}

// regionBase is the fixed base address of the region behind pointer
// parameter i; distinct parameters never alias.
func regionBase(i int) uint64 { return uint64(0x10000 + i*0x1000) }

// Seed adds extra tier-0 vectors that subsequent Verify calls replay before
// the generated sequence, alongside any Options.Pool entries. VerifyWidths
// uses this to reseed each width of a sweep with the (rescaled)
// counterexamples earlier widths produced, and the Souper and Minotaur
// baselines to run their test-vector filter, so a filter kill reads as
// KillTier TierPool.
func (c *Checker) Seed(vecs []PoolVector) {
	c.seeds = append(c.seeds, vecs...)
}

// windowKey returns (and caches) the pool key of the source window.
func (c *Checker) windowKey() uint64 {
	if !c.haveKey {
		c.winKey = WindowKey(c.src)
		c.haveKey = true
	}
	return c.winKey
}

// Verify runs the tiered scheduler: tier 0 replays pooled/seeded
// counterexamples for this source window, then the generated input sequence
// streams through, with the exhaustive/special phases attributed to tier 1
// and the random phases to tier 2. Both run lane-batched through the same
// fill, run and in-order scan — except the exhaustive counter phase of a
// packable pair, which runs on packed words and hands its first violating
// group back to that scan (runPacked) — so the first violating vector,
// Checked and the counterexample are identical to ReferenceVerify; only
// tier 0 can find a violation earlier, and only on a pooled or seeded
// vector. Any violation deposits its vector into Options.Pool. Verify may
// be called repeatedly (e.g. with the checker reused across CEGIS rounds).
func (c *Checker) Verify() Result {
	if c.sigErr != "" {
		return Result{Verdict: Unsupported, Err: c.sigErr}
	}
	res := Result{}
	// Tier 0: replay counterexamples that killed earlier candidates for
	// this window, plus explicitly seeded vectors.
	if c.opts.Pool != nil || len(c.seeds) > 0 {
		// Only a pool is keyed: a checker with seeds alone (the Souper and
		// Minotaur filters) never hashes its window.
		var key uint64
		if c.opts.Pool != nil {
			key = c.windowKey()
		}
		pooled := c.opts.Pool.Vectors(key)
		vecs := append(pooled, c.seeds...)
		if vi, ce := c.replay(vecs, &res); ce != nil {
			res.Verdict = Incorrect
			res.CE = ce
			res.Tiers.KillTier = TierPool
			// Seed-sourced kills (width-sweep reseeds) are new to this
			// window and worth pooling; a pool-sourced kill is already
			// stored — mark it referenced instead so the per-window clock
			// keeps vectors that still earn their slot.
			if vi >= len(pooled) {
				c.opts.Pool.Add(key, ce.Inputs, ce.Memory)
			} else {
				c.opts.Pool.Touch(key, vecs[vi].Inputs, vecs[vi].Mem)
			}
			return res
		}
	}
	gen := newInputGen(c.src, c.opts)
	defer gen.release()
	res.Exhaustive = gen.exhaustive
	if c.packable && gen.phase == phExhaust {
		if ce := c.runPacked(gen, &res); ce != nil {
			return c.refuted(res, ce, TierSpecial)
		}
	}
	var fill func(int)
	if len(c.ptrParams) > 0 {
		fill = func(b int) { c.fillMem(b, gen.memBytes) }
	}
	for {
		n, tier := gen.nextBatch(c.bArgs[:], c.srcCols, c.bTiers[:], fill)
		if n == 0 {
			break
		}
		if i, ce := c.runBatch(n, tier, &res); ce != nil {
			if tier == TierNone {
				tier = int(c.bTiers[i])
			}
			return c.refuted(res, ce, tier)
		}
	}
	res.Verdict = Correct
	return res
}

// refuted completes res with the counterexample a tier found and shares
// its vector through the pool.
func (c *Checker) refuted(res Result, ce *CounterExample, tier int) Result {
	res.Verdict, res.CE, res.Tiers.KillTier = Incorrect, ce, tier
	c.deposit(ce)
	return res
}

// replay runs tier 0 over the checker-compatible vectors of vecs, in order,
// batch by batch. A vector with a poison pointer base changes the region
// layout, so it runs on the reference path at its place in the order (the
// generator never emits one, but pooled vectors may come from a store). It
// returns the index in vecs of the first violating vector and its
// counterexample, or -1 and nil.
func (c *Checker) replay(vecs []PoolVector, res *Result) (int, *CounterExample) {
	var slotVec [interp.BatchWidth]int // batch slot -> index in vecs
	n := 0
	for vi, pv := range vecs {
		if !c.compatible(pv) {
			continue
		}
		poisonBase := false
		for _, pi := range c.ptrParams {
			poisonBase = poisonBase || pv.Inputs[pi].AnyPoison()
		}
		if !poisonBase {
			for i := range pv.Inputs {
				copy(c.bArgs[n][i].Lanes, pv.Inputs[i].Lanes)
			}
			if len(c.ptrParams) > 0 {
				c.fillMem(n, pv.Mem)
			}
			slotVec[n] = vi
			if n++; n < interp.BatchWidth {
				continue
			}
		}
		// Run the filled slots: the batch is full, or the poison-base
		// vector must run after them.
		if i, ce := c.runBatch(n, TierPool, res); ce != nil {
			return slotVec[i], ce
		}
		n = 0
		if poisonBase {
			res.Checked++
			res.Tiers.PoolChecked++
			if ce := checkOne(c.src, c.tgt, c.src.Params, pv.Inputs, pv.Mem, c.opts); ce != nil {
				return vi, ce
			}
		}
	}
	if i, ce := c.runBatch(n, TierPool, res); ce != nil {
		return slotVec[i], ce
	}
	return -1, nil
}

// compatible reports whether a pooled/seeded vector fits this checker's
// signature (vectors stored under a window key always do; seeded vectors
// from other widths are pre-rescaled but still validated here).
func (c *Checker) compatible(pv PoolVector) bool {
	if len(pv.Inputs) != len(c.src.Params) || len(pv.Mem) != len(c.ptrParams) {
		return false
	}
	for i, p := range c.src.Params {
		if len(pv.Inputs[i].Lanes) != ir.Lanes(p.Ty) {
			return false
		}
	}
	return true
}

// deposit shares a fresh counterexample's input vector with later
// verifications of the same window.
func (c *Checker) deposit(ce *CounterExample) {
	if c.opts.Pool != nil {
		c.opts.Pool.Add(c.windowKey(), ce.Inputs, ce.Memory)
	}
}

// runBatch executes the first n filled batch slots on both programs and
// scans them in fill order up to the first violation, adding the scanned
// vectors to res.Checked and to tier's counter (TierNone: each slot's
// bTiers entry). It returns the violating slot and its counterexample, or
// n and nil.
//
// The scan reads the evaluators' outcome columns: a slot is constrained
// when the source returned and the target did not run out of budget, and
// it violates refinement when the target hit UB, returned a value the
// source's does not refine, or (pointer pairs) left memory that differs.
func (c *Checker) runBatch(n, tier int, res *Result) (int, *CounterExample) {
	if n == 0 {
		return 0, nil
	}
	for k := range c.srcCols {
		lanesPerVec := len(c.srcCols[k]) / interp.BatchWidth
		copy(c.tgtCols[k][:n*lanesPerVec], c.srcCols[k][:n*lanesPerVec])
	}
	var srcMems, tgtMems []*interp.Memory
	if len(c.ptrParams) > 0 {
		srcMems, tgtMems = c.srcBM.Mems, c.tgtBM.Mems
	}
	c.se.RunBatchFilled(n, srcMems, 0)
	c.te.RunBatchFilled(n, tgtMems, 0)
	sm, tm := c.se.Masks(), c.te.Masks()
	live := sm.Returned &^ tm.OutOfBudget // the source returned, the target finished
	bad := live & tm.UB
	if !ir.IsVoid(c.src.Ret) {
		bad |= c.retMismatch(live &^ bad)
	}
	first := bits.TrailingZeros64(bad) // 64 when no slot violates
	diff := ""
	if len(c.ptrParams) > 0 {
		for m := live &^ bad; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if b >= first {
				break
			}
			if diff = memDiff(c.srcBM.Mems[b], c.tgtBM.Mems[b]); diff != "" {
				first = b
				break
			}
		}
	}
	i := min(first, n)
	// Count the scanned prefix, violating vector included, once.
	checked := i
	if i < n {
		checked++
	}
	res.Checked += checked
	if tier != TierNone {
		res.Tiers.count(tier, checked)
	} else {
		for _, t := range c.bTiers[:checked] {
			res.Tiers.count(int(t), 1)
		}
	}
	if i == n {
		return n, nil
	}
	rs, rt := c.se.LaneResult(i), c.te.LaneResult(i)
	inputs := cloneRVals(c.bArgs[i])
	for j, pi := range c.ptrParams {
		inputs[pi].Lanes[0] = c.ptrSave[j][i]
	}
	var mem [][]byte
	if len(c.ptrParams) > 0 {
		mem = cloneByteSlices(c.bMem[i])
	}
	return i, &CounterExample{Params: c.src.Params,
		Inputs: inputs, Memory: mem,
		SrcRet: rs.Ret.Clone(), TgtRet: rt.Ret.Clone(),
		SrcUB: rs.UB, TgtUB: rt.UB, TgtWhy: rt.UBReason, MemDiff: diff}
}

// retMismatch returns the bit of the lowest slot in m whose target return
// value the source's does not refine, or 0.
func (c *Checker) retMismatch(m uint64) uint64 {
	scol, ss := c.se.RetColumn()
	tcol, ts := c.te.RetColumn()
	fpBits := retFPBits(c.src.Ret)
	if ss == 1 && ts == 1 && fpBits == 0 {
		// Scalar integers, the bulk of all windows: a defined source lane
		// needs an equal, defined target lane.
		for ; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if s, t := scol[b], tcol[b]; !s.Poison && (t.Poison || t.V != s.V) {
				return m & -m
			}
		}
		return 0
	}
	for ; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if !refinesLanes(scol[b*ss:(b+1)*ss], tcol[b*ts:(b+1)*ts], fpBits) {
			return m & -m
		}
	}
	return 0
}

// fillMem completes batch slot b of a pointer-parameter pair: it saves the
// slot's raw pointer words (counterexamples report them), pins the pointer
// arguments to their region bases, and resets the slot's regions on both
// sides to mem, which it borrows until the slot is refilled.
func (c *Checker) fillMem(b int, mem [][]byte) {
	for j, pi := range c.ptrParams {
		c.ptrSave[j][b] = c.srcCols[pi][b]
		c.srcCols[pi][b] = interp.Word{V: regionBase(pi)}
		c.srcBM.ResetLane(j, b, mem[j])
		c.tgtBM.ResetLane(j, b, mem[j])
	}
	c.bMem[b] = mem
}

// initBatch wires the per-slot argument views straight into the source
// evaluator's input columns (one RVal view per batch slot and parameter),
// so filling a batch writes the arena directly and the target side needs
// only one bulk column copy per parameter. Pairs with pointer parameters
// also get the per-lane slab memories and the raw-pointer-word save area.
// Everything a recycled checker already holds is reused.
func (c *Checker) initBatch() {
	np := len(c.src.Params)
	c.srcCols, c.tgtCols = c.srcCols[:0], c.tgtCols[:0]
	if cap(c.argViews) < interp.BatchWidth*np {
		c.argViews = make([]interp.RVal, interp.BatchWidth*np)
	}
	for i, p := range c.src.Params {
		c.srcCols = append(c.srcCols, c.se.ArgColumn(i))
		c.tgtCols = append(c.tgtCols, c.te.ArgColumn(i))
		L := ir.Lanes(p.Ty)
		for b := 0; b < interp.BatchWidth; b++ {
			c.argViews[b*np+i] = interp.RVal{Ty: p.Ty, Lanes: c.srcCols[i][b*L : (b+1)*L : (b+1)*L]}
		}
	}
	for b := range c.bArgs {
		c.bArgs[b] = c.argViews[b*np : (b+1)*np : (b+1)*np]
	}
	if len(c.ptrParams) == 0 {
		return
	}
	c.srcBM, c.tgtBM = c.slabMems(c.srcBM), c.slabMems(c.tgtBM)
	if cap(c.ptrSave) < len(c.ptrParams) {
		c.ptrSave = make([][interp.BatchWidth]interp.Word, len(c.ptrParams))
	}
	c.ptrSave = c.ptrSave[:len(c.ptrParams)]
}

// slabMems returns per-lane memories holding one region per pointer
// parameter: bm relabelled when a recycled checker's slabs have the right
// shape, freshly built ones otherwise. Region contents need no reset here;
// fillMem resets each lane before it runs.
func (c *Checker) slabMems(bm *interp.BatchMems) *interp.BatchMems {
	fits := bm != nil && len(bm.Mems[0].Regions) == len(c.ptrParams)
	for j := 0; fits && j < len(c.ptrParams); j++ {
		fits = len(bm.Mems[0].Regions[j].Data) == c.opts.MemSize
	}
	if !fits {
		bm = interp.NewBatchMems(interp.BatchWidth)
		for _, i := range c.ptrParams {
			bm.AddRegion(c.src.Params[i].Nm, regionBase(i), c.opts.MemSize)
		}
		return bm
	}
	for _, m := range bm.Mems {
		for j, i := range c.ptrParams {
			m.Regions[j].Name, m.Regions[j].Addr = c.src.Params[i].Nm, regionBase(i)
		}
	}
	return bm
}

func cloneRVals(vals []interp.RVal) []interp.RVal {
	out := make([]interp.RVal, len(vals))
	for i, v := range vals {
		out[i] = v.Clone()
	}
	return out
}

func cloneByteSlices(bs [][]byte) [][]byte {
	if bs == nil {
		return nil
	}
	out := make([][]byte, len(bs))
	for i, b := range bs {
		out[i] = append([]byte(nil), b...)
	}
	return out
}

// retRefines checks the return value refinement obligation. For floating
// point lanes, any NaN refines any NaN: LLVM's FP arithmetic produces a
// nondeterministic quiet NaN, which Alive2 models as a free choice on both
// sides.
func retRefines(retTy ir.Type, srcRet, tgtRet interp.RVal) bool {
	if ir.IsVoid(retTy) {
		return true
	}
	return refinesLanes(srcRet.Lanes, tgtRet.Lanes, retFPBits(retTy))
}

// retFPBits returns the lane width for NaN-refinement, 0 for non-FP types.
func retFPBits(retTy ir.Type) int {
	if ir.IsFloat(retTy) {
		return ir.ScalarBits(ir.Elem(retTy))
	}
	return 0
}

// refinesLanes is the lane-wise refinement core with the type dispatch
// hoisted out (the batched checker calls it once per vector).
func refinesLanes(src, tgt []interp.Word, fpBits int) bool {
	for i := range src {
		sl := src[i]
		if sl.Poison {
			continue
		}
		tl := tgt[i]
		if tl.Poison {
			return false
		}
		if tl.V == sl.V {
			continue
		}
		if fpBits > 0 && isNaNBits(fpBits, sl.V) && isNaNBits(fpBits, tl.V) {
			continue
		}
		return false
	}
	return true
}

// memDiff checks the memory refinement obligation: bytes the source leaves
// defined must match in the target's final memory. It returns a description
// of the first violation, or "".
func memDiff(srcMem, tgtMem *interp.Memory) string {
	for ri := range srcMem.Regions {
		sr, tr := srcMem.Regions[ri], tgtMem.Regions[ri]
		for bi := range sr.Data {
			if sr.Poison[bi] {
				continue
			}
			if tr.Poison[bi] || tr.Data[bi] != sr.Data[bi] {
				return fmt.Sprintf(
					"Mismatch in %s at byte %d: source has 0x%02x, target has 0x%02x (poison=%v)",
					sr.Name, bi, sr.Data[bi], tr.Data[bi], tr.Poison[bi])
			}
		}
	}
	return ""
}

// Verify checks whether tgt refines src within the given bounds, compiling
// both sides once and streaming input vectors through the compiled
// evaluators. Callers that re-verify the same pair should build a Checker
// (or share an Options.Programs cache) instead of paying NewChecker per call.
func Verify(src, tgt *ir.Func, opts Options) Result {
	c := NewChecker(src, tgt, opts)
	defer c.Release()
	return c.Verify()
}

// ReferenceVerify is the historic verification path: it re-walks both
// functions with the reference interpreter (interp.Exec) on every input
// vector. It checks the exact same sequence and obligation as Verify — the
// two must agree bit for bit (guarded by differential tests) — and is kept
// as the semantic baseline and the perf trajectory's "before" point.
func ReferenceVerify(src, tgt *ir.Func, opts Options) Result {
	opts = opts.withDefaults()
	if err := signatureError(src, tgt); err != "" {
		return Result{Verdict: Unsupported, Err: err}
	}
	gen := newInputGen(src, opts)
	defer gen.release()
	res := Result{Exhaustive: gen.exhaustive}
	for gen.next() {
		res.Checked++
		tier := gen.tier()
		res.Tiers.count(tier, 1)
		if ce := checkOne(src, tgt, gen.params, gen.inputs, gen.memBytes, opts); ce != nil {
			res.Verdict = Incorrect
			res.CE = ce
			res.Tiers.KillTier = tier
			return res
		}
	}
	res.Verdict = Correct
	return res
}

// isNaNBits reports whether the given IEEE bit pattern at width w is a NaN.
func isNaNBits(w int, bits uint64) bool {
	if w == 32 {
		f := math.Float32frombits(uint32(bits))
		return f != f
	}
	f := math.Float64frombits(bits)
	return math.IsNaN(f)
}

// signatureError mirrors Alive2's "could not translate" fixable errors.
func signatureError(src, tgt *ir.Func) string {
	if len(src.Params) != len(tgt.Params) {
		return fmt.Sprintf("ERROR: signature mismatch: source has %d arguments, target has %d",
			len(src.Params), len(tgt.Params))
	}
	for i := range src.Params {
		if !ir.Equal(src.Params[i].Ty, tgt.Params[i].Ty) {
			return fmt.Sprintf("ERROR: signature mismatch: argument %d is %s in source but %s in target",
				i, src.Params[i].Ty, tgt.Params[i].Ty)
		}
	}
	if !ir.Equal(src.Ret, tgt.Ret) {
		return fmt.Sprintf("ERROR: signature mismatch: return type is %s in source but %s in target",
			src.Ret, tgt.Ret)
	}
	return ""
}

// checkOne runs both functions through the reference interpreter on one
// concrete environment and checks the refinement obligation. It returns a
// counterexample or nil; the counterexample is only materialized on an
// actual violation (inputs are cloned because the generator reuses its
// buffers).
func checkOne(src, tgt *ir.Func, params []*ir.Param, inputs []interp.RVal,
	memBytes [][]byte, opts Options) *CounterExample {
	buildEnv := func() (interp.Env, *interp.Memory) {
		mem := interp.NewMemory()
		args := make([]interp.RVal, len(inputs))
		copy(args, inputs)
		mi := 0
		for i, p := range params {
			if ir.IsPtr(p.Ty) && !args[i].AnyPoison() {
				r := mem.AddRegion(p.Nm, regionBase(i), opts.MemSize)
				copy(r.Data, memBytes[mi])
				mi++
				args[i] = interp.Scalar(ir.Ptr, regionBase(i))
			}
		}
		return interp.Env{Args: args, Mem: mem}, mem
	}
	srcEnv, srcMem := buildEnv()
	tgtEnv, tgtMem := buildEnv()
	rs := interp.Exec(src, srcEnv)
	if !rs.Completed {
		return nil // out of budget: inconclusive, skip this input
	}
	if rs.UB {
		return nil // source UB: target unconstrained
	}
	rt := interp.Exec(tgt, tgtEnv)
	if !rt.Completed {
		return nil
	}
	violation := func() *CounterExample {
		return &CounterExample{Params: params,
			Inputs: cloneRVals(inputs), Memory: cloneByteSlices(memBytes),
			SrcRet: rs.Ret, TgtRet: rt.Ret,
			SrcUB: rs.UB, TgtUB: rt.UB, TgtWhy: rt.UBReason}
	}
	if rt.UB {
		return violation()
	}
	if !retRefines(src.Ret, rs.Ret, rt.Ret) {
		return violation()
	}
	if diff := memDiff(srcMem, tgtMem); diff != "" {
		ce := violation()
		ce.MemDiff = diff
		return ce
	}
	return nil
}
