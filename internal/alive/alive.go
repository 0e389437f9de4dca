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
// lazily through two reusable Evaluators, and a CounterExample is
// materialized only on an actual violation — a steady-state Verify performs
// O(1) amortized allocations per input vector. ReferenceVerify keeps the
// historic Exec-per-input path as the semantic baseline.
package alive

import (
	"fmt"
	"math"
	"strings"

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

	// Batched and Fallback split Checked by execution path: vectors run on
	// the lane-batched fast path versus per-vector execution (tier-0
	// replays and non-batchable programs). Batched+Fallback == Checked.
	Batched  int
	Fallback int
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
type Checker struct {
	src, tgt *ir.Func
	opts     Options
	sigErr   string

	se, te           *interp.Evaluator
	srcMem, tgtMem   *interp.Memory
	srcRegs, tgtRegs []*interp.Region // pointer-param regions, in param order
	ptrParams        []int            // param indices of pointer type
	args             []interp.RVal    // per-vector argument buffer
	baseArgs         []interp.RVal    // prebuilt region-base pointers per param

	winKey  uint64 // pool key of the source window (lazy)
	haveKey bool
	seeds   []PoolVector // extra tier-0 vectors (width-sweep reseeding)

	// Lane-batched streaming state, built lazily when both programs are
	// batchable (everything except dynamic-vector-constant programs). The
	// generator writes each vector directly into the source evaluator's
	// input columns (bArgs views them per batch slot), the columns are
	// bulk-copied into the target evaluator, and both sides run with
	// RunBatchFilled — no per-vector staging or scatter at all. Pairs with
	// pointer parameters additionally carry per-lane slab memories: each
	// batch slot's regions are reset to that vector's initial fill before
	// the runs and diffed lane against lane afterwards.
	bArgs            [][]interp.RVal // per batch slot: views into srcCols
	srcCols, tgtCols [][]interp.Word // per param: the evaluators' input columns
	bTiers           []int8
	srcRes           []interp.Result
	tgtRes           []interp.Result
	srcBM, tgtBM     *interp.BatchMems // per-lane memories (pointer params only)
	bFills           [][][]byte        // per slot: initial region fill, per ptr param
	ptrSave          [][]interp.Word   // per ptr param: raw generated words, per slot
}

// NewChecker compiles src and tgt (through opts.Programs when set) and
// prepares the reusable execution state.
func NewChecker(src, tgt *ir.Func, opts Options) *Checker {
	opts = opts.withDefaults()
	c := &Checker{src: src, tgt: tgt, opts: opts}
	if err := signatureError(src, tgt); err != "" {
		c.sigErr = err
		return c
	}
	c.se = interp.NewEvaluator(opts.Programs.Program(src))
	c.te = interp.NewEvaluator(opts.Programs.Program(tgt))
	c.args = make([]interp.RVal, len(src.Params))
	c.baseArgs = make([]interp.RVal, len(src.Params))
	for i, p := range src.Params {
		if !ir.IsPtr(p.Ty) {
			continue
		}
		c.ptrParams = append(c.ptrParams, i)
		c.baseArgs[i] = interp.Scalar(ir.Ptr, regionBase(i))
	}
	if len(c.ptrParams) > 0 {
		c.srcMem, c.tgtMem = interp.NewMemory(), interp.NewMemory()
		for _, i := range c.ptrParams {
			p := src.Params[i]
			c.srcRegs = append(c.srcRegs, c.srcMem.AddRegion(p.Nm, regionBase(i), opts.MemSize))
			c.tgtRegs = append(c.tgtRegs, c.tgtMem.AddRegion(p.Nm, regionBase(i), opts.MemSize))
		}
	}
	return c
}

// regionBase is the fixed base address of the region behind pointer
// parameter i; distinct parameters never alias.
func regionBase(i int) uint64 { return uint64(0x10000 + i*0x1000) }

// Seed adds extra tier-0 vectors that subsequent Verify calls replay before
// the generated sequence, alongside any Options.Pool entries. VerifyWidths
// uses this to reseed each width of a sweep with the (rescaled)
// counterexamples earlier widths produced.
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
// streams through — lane-batched when both programs take the batch fast
// path — with the exhaustive/special phases attributed to tier 1 and the
// random phases to tier 2. The generated sequence, the first violating
// vector and the resulting counterexample are identical to the historic
// per-vector path (and to ReferenceVerify); only tier 0 can find a
// violation earlier, and only when a previous candidate for the same window
// already failed on that input. Any violation deposits its vector into
// Options.Pool. Verify may be called repeatedly (e.g. with the checker
// reused across CEGIS rounds).
func (c *Checker) Verify() Result {
	if c.sigErr != "" {
		return Result{Verdict: Unsupported, Err: c.sigErr}
	}
	res := Result{}
	// Tier 0: replay counterexamples that killed earlier candidates for
	// this window, plus explicitly seeded vectors.
	if c.opts.Pool != nil || len(c.seeds) > 0 {
		key := c.windowKey()
		pooled := c.opts.Pool.Vectors(key)
		for vi, pv := range append(pooled, c.seeds...) {
			if !c.compatible(pv) {
				continue
			}
			res.Checked++
			res.Tiers.PoolChecked++
			res.Tiers.Fallback++
			if ce := c.checkVector(pv.Inputs, pv.Mem); ce != nil {
				res.Verdict = Incorrect
				res.CE = ce
				res.Tiers.KillTier = TierPool
				// Seed-sourced kills (width-sweep reseeds) are new to this
				// window and worth pooling; a pool-sourced kill is already
				// stored — mark it referenced instead so the per-window
				// clock keeps vectors that still earn their slot.
				if vi >= len(pooled) {
					c.opts.Pool.Add(key, ce.Inputs, ce.Memory)
				} else {
					c.opts.Pool.Touch(key, pv.Inputs, pv.Mem)
				}
				return res
			}
		}
	}
	gen := newInputGen(c.src, c.opts)
	defer gen.release()
	res.Exhaustive = gen.exhaustive
	if c.se.Program().Batchable() && c.te.Program().Batchable() {
		return c.verifyBatched(gen, res)
	}
	for gen.next() {
		res.Checked++
		tier := gen.tier()
		res.Tiers.count(tier, 1)
		res.Tiers.Fallback++
		if ce := c.checkVector(gen.inputs, gen.memBytes); ce != nil {
			res.Verdict = Incorrect
			res.CE = ce
			res.Tiers.KillTier = tier
			c.deposit(ce)
			return res
		}
	}
	res.Verdict = Correct
	return res
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

// verifyBatched streams the generator through both compiled programs in
// lane batches of interp.BatchWidth. Violations are scanned in generation
// order within each batch, so the first violating vector — and therefore
// Checked and the counterexample — match the per-vector path bit for bit.
// Pointer-parameter pairs run against per-lane slab memories: the fill
// hook snapshots each vector's initial memory into its lane (and saves the
// raw generated pointer words for counterexample fidelity) before the
// columns' pointer slots are pinned to the fixed region bases.
func (c *Checker) verifyBatched(gen *inputGen, res Result) Result {
	c.initBatch()
	retVoid := ir.IsVoid(c.src.Ret)
	fpBits := retFPBits(c.src.Ret)
	var fill func(int)
	var srcMems, tgtMems []*interp.Memory
	if len(c.ptrParams) > 0 {
		srcMems, tgtMems = c.srcBM.Mems, c.tgtBM.Mems
		fill = func(b int) {
			for j, pi := range c.ptrParams {
				c.ptrSave[j][b] = c.srcCols[pi][b]
				c.srcCols[pi][b] = interp.Word{V: regionBase(pi)}
				copy(c.bFills[b][j], gen.memBytes[j])
				c.srcBM.ResetLane(j, b, gen.memBytes[j])
				c.tgtBM.ResetLane(j, b, gen.memBytes[j])
			}
		}
	}
	for {
		n, tier := gen.nextBatch(c.bArgs, c.bTiers, fill)
		if n == 0 {
			break
		}
		for k := range c.srcCols {
			lanesPerVec := len(c.srcCols[k]) / interp.BatchWidth
			copy(c.tgtCols[k][:n*lanesPerVec], c.srcCols[k][:n*lanesPerVec])
		}
		// The gate above checked Batchable on both programs, so neither call
		// can fail; a non-nil error here is a bug in the gate.
		if err := c.se.RunBatchFilled(n, c.srcRes[:n], srcMems); err != nil {
			panic(err)
		}
		if err := c.te.RunBatchFilled(n, c.tgtRes[:n], tgtMems); err != nil {
			panic(err)
		}
		// Scan in generation order up to the first violation, then count
		// the scanned prefix once.
		i, diff := 0, ""
		for ; i < n; i++ {
			rs, rt := &c.srcRes[i], &c.tgtRes[i]
			if !rs.Completed || rs.UB {
				continue // out of budget or source UB: target unconstrained
			}
			if !rt.Completed {
				continue
			}
			if rt.UB || (!retVoid && !refinesLanes(rs.Ret.Lanes, rt.Ret.Lanes, fpBits)) {
				break
			}
			if len(c.ptrParams) > 0 {
				if diff = memDiff(c.srcBM.Mems[i], c.tgtBM.Mems[i]); diff != "" {
					break
				}
			}
		}
		checked := i
		if i < n {
			checked++
		}
		res.Checked += checked
		res.Tiers.Batched += checked
		if tier != TierNone {
			res.Tiers.count(tier, checked)
		} else {
			for _, t := range c.bTiers[:checked] {
				res.Tiers.count(int(t), 1)
			}
		}
		if i == n {
			continue
		}
		rs, rt := &c.srcRes[i], &c.tgtRes[i]
		inputs := cloneRVals(c.bArgs[i])
		for j, pi := range c.ptrParams {
			inputs[pi].Lanes[0] = c.ptrSave[j][i]
		}
		var memCopy [][]byte
		if c.bFills != nil {
			memCopy = cloneByteSlices(c.bFills[i])
		}
		ce := &CounterExample{Params: c.src.Params,
			Inputs: inputs, Memory: memCopy,
			SrcRet: rs.Ret.Clone(), TgtRet: rt.Ret.Clone(),
			SrcUB: rs.UB, TgtUB: rt.UB, TgtWhy: rt.UBReason, MemDiff: diff}
		if tier == TierNone {
			tier = int(c.bTiers[i])
		}
		res.Verdict = Incorrect
		res.CE = ce
		res.Tiers.KillTier = tier
		c.deposit(ce)
		return res
	}
	res.Verdict = Correct
	return res
}

// initBatch wires the generator-facing argument views straight into the
// source evaluator's input columns (one RVal view per batch slot and
// parameter), so filling a batch writes the arena directly and the target
// side needs only one bulk column copy per parameter. Pairs with pointer
// parameters also build the per-lane slab memories, the per-slot fill
// snapshots behind counterexamples, and the raw-pointer-word save area.
func (c *Checker) initBatch() {
	if c.bArgs != nil {
		return
	}
	np := len(c.src.Params)
	c.bTiers = make([]int8, interp.BatchWidth)
	c.srcRes = make([]interp.Result, interp.BatchWidth)
	c.tgtRes = make([]interp.Result, interp.BatchWidth)
	c.srcCols = make([][]interp.Word, np)
	c.tgtCols = make([][]interp.Word, np)
	for i := range c.src.Params {
		// Verify gated on Batchable for both programs, so neither call can
		// fail here.
		col, err := c.se.ArgColumn(i)
		if err != nil {
			panic(err)
		}
		c.srcCols[i] = col
		if col, err = c.te.ArgColumn(i); err != nil {
			panic(err)
		}
		c.tgtCols[i] = col
	}
	c.bArgs = make([][]interp.RVal, interp.BatchWidth)
	vals := make([]interp.RVal, interp.BatchWidth*np)
	for b := 0; b < interp.BatchWidth; b++ {
		args := vals[b*np : (b+1)*np : (b+1)*np]
		for i, p := range c.src.Params {
			n := ir.Lanes(p.Ty)
			args[i] = interp.RVal{Ty: p.Ty, Lanes: c.srcCols[i][b*n : (b+1)*n : (b+1)*n]}
		}
		c.bArgs[b] = args
	}
	if len(c.ptrParams) == 0 {
		return
	}
	c.srcBM = interp.NewBatchMems(interp.BatchWidth)
	c.tgtBM = interp.NewBatchMems(interp.BatchWidth)
	for _, i := range c.ptrParams {
		p := c.src.Params[i]
		c.srcBM.AddRegion(p.Nm, regionBase(i), c.opts.MemSize)
		c.tgtBM.AddRegion(p.Nm, regionBase(i), c.opts.MemSize)
	}
	c.ptrSave = make([][]interp.Word, len(c.ptrParams))
	for j := range c.ptrSave {
		c.ptrSave[j] = make([]interp.Word, interp.BatchWidth)
	}
	c.bFills = make([][][]byte, interp.BatchWidth)
	fillBuf := make([]byte, interp.BatchWidth*len(c.ptrParams)*c.opts.MemSize)
	for b := range c.bFills {
		fl := make([][]byte, len(c.ptrParams))
		for j := range fl {
			off := (b*len(c.ptrParams) + j) * c.opts.MemSize
			fl[j] = fillBuf[off : off+c.opts.MemSize : off+c.opts.MemSize]
		}
		c.bFills[b] = fl
	}
}

// checkVector runs both compiled functions on one concrete input vector and
// checks the refinement obligation, materializing a counterexample only on
// violation. inputs and memBytes are borrowed from the generator and cloned
// if retained.
func (c *Checker) checkVector(inputs []interp.RVal, memBytes [][]byte) *CounterExample {
	for _, i := range c.ptrParams {
		if inputs[i].AnyPoison() {
			// A poison pointer base changes the region layout; defer to the
			// reference path for exactness (the generator never emits this).
			return checkOne(c.src, c.tgt, c.src.Params, inputs, memBytes, c.opts)
		}
	}
	copy(c.args, inputs)
	for _, i := range c.ptrParams {
		c.args[i] = c.baseArgs[i]
	}
	resetRegions(c.srcRegs, memBytes)
	rs := c.se.Run(interp.Env{Args: c.args, Mem: c.srcMem})
	if !rs.Completed {
		return nil // out of budget: inconclusive, skip this input
	}
	if rs.UB {
		return nil // source UB: target unconstrained
	}
	resetRegions(c.tgtRegs, memBytes)
	rt := c.te.Run(interp.Env{Args: c.args, Mem: c.tgtMem})
	if !rt.Completed {
		return nil
	}
	violation := func() *CounterExample {
		return &CounterExample{Params: c.src.Params,
			Inputs: cloneRVals(inputs), Memory: cloneByteSlices(memBytes),
			SrcRet: rs.Ret.Clone(), TgtRet: rt.Ret.Clone(),
			SrcUB: rs.UB, TgtUB: rt.UB, TgtWhy: rt.UBReason}
	}
	if rt.UB {
		return violation()
	}
	if !retRefines(c.src.Ret, rs.Ret, rt.Ret) {
		return violation()
	}
	if c.srcMem != nil {
		if diff := memDiff(c.srcMem, c.tgtMem); diff != "" {
			ce := violation()
			ce.MemDiff = diff
			return ce
		}
	}
	return nil
}

// resetRegions restores the prebuilt regions to the given initial contents
// and clears their poison shadows.
func resetRegions(regs []*interp.Region, memBytes [][]byte) {
	for j, r := range regs {
		copy(r.Data, memBytes[j])
		for i := range r.Poison {
			r.Poison[i] = false
		}
	}
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
	return NewChecker(src, tgt, opts).Verify()
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
		res.Tiers.Fallback++
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
