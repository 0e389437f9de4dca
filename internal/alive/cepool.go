package alive

// CEGIS-style counterexample sharing: most wrong candidates for a source
// window fail for the same reason, so an input vector that falsified one
// candidate very often falsifies the next. The CEPool collects every
// falsifying vector found during a campaign, keyed by the source window it
// refuted a candidate for, and the Checker replays the window's pooled
// vectors as verification tier 0 — killing repeat offenders after a handful
// of executions instead of hundreds. Souper/Minotaur-style CEGIS loops
// deposit and replay their counterexamples through the same pool.

import (
	"hash/fnv"
	"sync"

	"repro/internal/interp"
	"repro/internal/ir"
)

// defaultPoolCap bounds the vectors retained per source window. Falsifying
// vectors are few per window in practice; the cap only guards pathological
// candidates that each fail on a fresh input.
const defaultPoolCap = 32

// PoolVector is one stored falsifying input: the argument vector plus the
// initial memory contents behind each pointer argument (param order), both
// owned by the pool and treated as immutable.
type PoolVector struct {
	Inputs []interp.RVal
	Mem    [][]byte
}

// WindowVector pairs a pooled vector with the window it refuted a candidate
// for — the unit the persistence hooks (Load, DrainPending) move between a
// pool and a store.
type WindowVector struct {
	Window uint64
	Vec    PoolVector
}

// CEPoolStats is a snapshot of a pool's counters.
type CEPoolStats struct {
	Windows   int   // source windows with at least one vector
	Vectors   int   // vectors currently stored
	Deposits  int64 // successful Add calls (duplicates excluded)
	Dups      int64 // Add calls dropped as duplicates
	Loaded    int64 // vectors installed by Load (store warm starts)
	Evictions int64 // vectors displaced by the per-window clock
}

// CEPool is a campaign-scoped, concurrency-safe pool of counterexample
// input vectors, keyed by source window (WindowKey of the source function).
// A nil *CEPool is valid and stores nothing, so callers can thread an
// optional pool without nil checks.
//
// Each window's vector list is bounded: past the per-window capacity a new
// deposit evicts an old vector chosen by the clock (second-chance) policy
// that interp.Cache uses — replayed vectors that actually falsify a
// candidate are marked referenced (Touch), and the clock hand sweeps past
// referenced entries (clearing the mark) until it finds an unreferenced
// victim. A long-running daemon therefore keeps the falsifiers that still
// kill candidates and sheds the ones that stopped earning their slot.
type CEPool struct {
	mu      sync.Mutex
	cap     int
	buckets map[uint64]*ceBucket

	// pending accumulates every Add since the last DrainPending — the flush
	// hook a persistent store uses to pick up new falsifiers incrementally.
	// Load does not mark pending (those vectors came FROM the store).
	pending []WindowVector

	deposits, dups, loaded, evictions int64
}

type ceSlot struct {
	vec  PoolVector
	hash uint64 // content hash, for dedup and eviction bookkeeping
	ref  bool   // clock reference bit: set when the vector kills a candidate
}

type ceBucket struct {
	slots []ceSlot
	seen  map[uint64]int // content hash -> slot index
	hand  int
}

// NewCEPool returns an empty pool with the default per-window capacity.
func NewCEPool() *CEPool {
	return &CEPool{cap: defaultPoolCap, buckets: make(map[uint64]*ceBucket)}
}

// WindowKey is the pool key for a source function: its structural hash, the
// same identity the program cache and the engine's verify cache use.
func WindowKey(src *ir.Func) uint64 { return ir.Hash(src) }

// Add deposits a falsifying vector for the given window, cloning inputs and
// memory. Duplicate vectors (same values, poison marks and memory) are
// dropped — but marked referenced, since the duplicate deposit proves the
// stored vector is still killing candidates. Past the per-window cap the
// clock evicts an unreferenced vector to make room. It reports whether a
// new vector was stored.
func (p *CEPool) Add(window uint64, inputs []interp.RVal, mem [][]byte) bool {
	if p == nil {
		return false
	}
	h := hashVector(inputs, mem)
	p.mu.Lock()
	defer p.mu.Unlock()
	v := PoolVector{Inputs: cloneRVals(inputs), Mem: cloneByteSlices(mem)}
	if !p.insert(window, v, h) {
		return false
	}
	p.deposits++
	p.pending = append(p.pending, WindowVector{Window: window, Vec: v})
	return true
}

// Load installs a vector that came from a persistent store, so a restarted
// campaign's tier-0 replay starts with the accumulated falsifier corpus.
// Unlike Add it does not mark the vector pending (it is already stored) and
// counts toward Loaded instead of Deposits. The vector is cloned.
func (p *CEPool) Load(window uint64, v PoolVector) bool {
	if p == nil {
		return false
	}
	h := hashVector(v.Inputs, v.Mem)
	p.mu.Lock()
	defer p.mu.Unlock()
	clone := PoolVector{Inputs: cloneRVals(v.Inputs), Mem: cloneByteSlices(v.Mem)}
	if !p.insert(window, clone, h) {
		return false
	}
	p.loaded++
	return true
}

// insert stores v under window with dedup and clock eviction. Caller holds
// the lock. dup vectors set the existing slot's reference bit.
func (p *CEPool) insert(window uint64, v PoolVector, h uint64) bool {
	b := p.buckets[window]
	if b == nil {
		b = &ceBucket{seen: make(map[uint64]int)}
		p.buckets[window] = b
	}
	if i, dup := b.seen[h]; dup {
		b.slots[i].ref = true
		p.dups++
		return false
	}
	if len(b.slots) < p.cap {
		b.seen[h] = len(b.slots)
		b.slots = append(b.slots, ceSlot{vec: v, hash: h})
		return true
	}
	// Clock sweep, mirroring interp.Cache: skip-and-clear referenced slots
	// until an unreferenced victim turns up.
	for {
		s := &b.slots[b.hand]
		if s.ref {
			s.ref = false
			b.hand = (b.hand + 1) % len(b.slots)
			continue
		}
		delete(b.seen, s.hash)
		p.evictions++
		*s = ceSlot{vec: v, hash: h}
		b.seen[h] = b.hand
		b.hand = (b.hand + 1) % len(b.slots)
		return true
	}
}

// Touch marks the stored copy of a vector as recently useful (it just
// falsified a candidate), protecting it from the next clock sweep. The
// checker calls this on every pool-tier kill.
func (p *CEPool) Touch(window uint64, inputs []interp.RVal, mem [][]byte) {
	if p == nil {
		return
	}
	h := hashVector(inputs, mem)
	p.mu.Lock()
	defer p.mu.Unlock()
	if b := p.buckets[window]; b != nil {
		if i, ok := b.seen[h]; ok {
			b.slots[i].ref = true
		}
	}
}

// Contains reports whether the pool currently holds this exact vector for
// the window — the liveness test store compaction uses to drop vectors the
// clock has evicted (they stopped killing candidates and lost their slot).
func (p *CEPool) Contains(window uint64, v PoolVector) bool {
	if p == nil {
		return false
	}
	h := hashVector(v.Inputs, v.Mem)
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.buckets[window]
	if b == nil {
		return false
	}
	_, ok := b.seen[h]
	return ok
}

// Vectors returns the stored vectors for a window, oldest first. The
// returned slice is a snapshot; its entries are shared and immutable.
func (p *CEPool) Vectors(window uint64) []PoolVector {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.buckets[window]
	if b == nil || len(b.slots) == 0 {
		return nil
	}
	out := make([]PoolVector, len(b.slots))
	for i, s := range b.slots {
		out[i] = s.vec
	}
	return out
}

// DrainPending returns every vector deposited since the last drain and
// clears the pending list — the flush hook a persistent store polls so the
// falsifier corpus survives restarts. Entries are shared and immutable;
// vectors evicted between deposit and drain are still returned (the store
// is append-only, and an evicted falsifier is still corpus).
func (p *CEPool) DrainPending() []WindowVector {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.pending
	p.pending = nil
	return out
}

// Stats returns a snapshot of the pool's counters. A nil pool reports zeros.
func (p *CEPool) Stats() CEPoolStats {
	if p == nil {
		return CEPoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := CEPoolStats{Windows: len(p.buckets), Deposits: p.deposits, Dups: p.dups,
		Loaded: p.loaded, Evictions: p.evictions}
	for _, b := range p.buckets {
		s.Vectors += len(b.slots)
	}
	return s
}

// hashVector fingerprints an input vector plus memory for deduplication.
func hashVector(inputs []interp.RVal, mem [][]byte) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	for _, v := range inputs {
		for _, l := range v.Lanes {
			for i := 0; i < 8; i++ {
				buf[i] = byte(l.V >> (8 * i))
			}
			buf[8] = 0
			if l.Poison {
				buf[8] = 1
			}
			h.Write(buf[:])
		}
		buf[8] = 2
		h.Write(buf[8:])
	}
	for _, m := range mem {
		h.Write(m)
		buf[8] = 3
		h.Write(buf[8:])
	}
	return h.Sum64()
}

// CEFilterVector adapts a counterexample into a CEGIS test-vector filter
// entry for superoptimizer loops (souper/minotaur): the refuting inputs
// plus the source's output on them, recomputed through the caller's
// compiled source evaluator. ok is false for poison-bearing inputs — they
// stay useful in the verification pool but cannot filter, because the
// source output is poison too. defined is false when the source run is UB,
// incomplete or poison-valued; callers keep the vector but skip the output
// comparison for it, mirroring their seeded test vectors.
func CEFilterVector(ce *CounterExample, srcEval *interp.Evaluator) (args []interp.RVal, want interp.RVal, defined, ok bool) {
	for _, in := range ce.Inputs {
		if in.AnyPoison() {
			return nil, interp.RVal{}, false, false
		}
	}
	out := make([]interp.Result, 1)
	srcEval.RunBatch([]interp.Env{{Args: ce.Inputs}}, out)
	if r := out[0]; r.Completed && !r.UB && !r.Ret.AnyPoison() {
		return ce.Inputs, r.Ret.Clone(), true, true
	}
	return ce.Inputs, interp.RVal{}, false, true
}

// RescaleVector adapts a pooled vector to a checker whose parameters may sit
// at a different bit width (the generalize width sweep re-instantiates the
// same shape at several widths): each lane is masked to the corresponding
// parameter's scalar width, poison marks survive. It reports false when the
// shapes are incompatible (different arity or lane counts).
func RescaleVector(params []*ir.Param, v PoolVector) (PoolVector, bool) {
	if len(v.Inputs) != len(params) {
		return PoolVector{}, false
	}
	out := PoolVector{Inputs: make([]interp.RVal, len(params)), Mem: v.Mem}
	for i, p := range params {
		in := v.Inputs[i]
		if len(in.Lanes) != ir.Lanes(p.Ty) {
			return PoolVector{}, false
		}
		mask := ir.MaskW(ir.ScalarBits(ir.Elem(p.Ty)))
		lanes := make([]interp.Word, len(in.Lanes))
		for l, w := range in.Lanes {
			if w.Poison {
				lanes[l] = interp.Word{Poison: true}
			} else {
				lanes[l] = interp.Word{V: w.V & mask}
			}
		}
		out.Inputs[i] = interp.RVal{Ty: p.Ty, Lanes: lanes}
	}
	return out, true
}
