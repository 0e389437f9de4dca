package alive

// CEGIS-style counterexample sharing: most wrong candidates for a source
// window fail for the same reason, so an input vector that falsified one
// candidate very often falsifies the next. The CEPool collects every
// falsifying vector found during a campaign, keyed by the source window it
// refuted a candidate for, and the Checker replays the window's pooled
// vectors as verification tier 0 — killing repeat offenders after a handful
// of executions instead of hundreds. The Souper and Minotaur baselines use
// no pool: they seed each candidate's checker with their own test vectors
// (Checker.Seed), which tier 0 replays the same way.

import (
	"hash/fnv"
	"sync"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/memo"
)

// defaultPoolCap bounds the vectors retained per source window. Falsifying
// vectors are few per window in practice; the cap only guards pathological
// candidates that each fail on a fresh input.
const defaultPoolCap = 32

// poolWindowCap bounds the source windows a pool keeps vectors for. One
// pool of a campaign or an lpo-bench table holds at most 47 windows and one
// of the test suite at most 319, so only a long-lived pool such as lpod's
// ever reaches it.
const poolWindowCap = 1024

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

// CEPoolStats is a snapshot of a pool's counters. Its JSON tags are the
// pool section of lpod's GET /v1/stats.
type CEPoolStats struct {
	Windows   int   `json:"windows"`   // source windows with at least one vector (at most poolWindowCap)
	Vectors   int   `json:"vectors"`   // vectors currently stored
	Deposits  int64 `json:"deposits"`  // successful Add calls (duplicates excluded)
	Dups      int64 `json:"dups"`      // Add calls dropped as duplicates
	Loaded    int64 `json:"loaded"`    // vectors installed by Load (store warm starts)
	Evictions int64 `json:"evictions"` // vectors displaced by the per-window clock (not those dropped with their window)
}

// CEPool is a campaign-scoped, concurrency-safe pool of counterexample
// input vectors, keyed by source window (WindowKey of the source function).
// A nil *CEPool is valid and stores nothing, so callers can thread an
// optional pool without nil checks.
//
// Each window's vectors are a memo.Map keyed by content hash, bounded at
// defaultPoolCap: past it a new deposit evicts an old vector by the clock
// (second-chance) policy — replayed vectors that actually falsify a
// candidate are marked referenced (Touch, or a duplicate deposit), and the
// clock hand sweeps past referenced entries (clearing the mark) until it
// finds an unreferenced victim. The windows themselves sit in a memo.Map of
// poolWindowCap under the same policy: a deposit, a replay (Vectors) or a
// kill (Touch) marks its window, and a new window past the cap drops an
// unmarked one with all its vectors. A long-running daemon therefore keeps
// the falsifiers that still kill candidates and sheds the ones that stopped
// earning their slot.
type CEPool struct {
	// mu serializes deposits and guards pending and the counters.
	mu      sync.Mutex
	windows *memo.Map[uint64, *memo.Map[uint64, PoolVector]]

	// pending accumulates every Add since the last DrainPending — the flush
	// hook a persistent store uses to pick up new falsifiers incrementally.
	// Load does not mark pending (those vectors came FROM the store).
	pending []WindowVector

	deposits, dups, loaded, evictions int64
}

// NewCEPool returns an empty pool.
func NewCEPool() *CEPool {
	return &CEPool{windows: memo.New[uint64, *memo.Map[uint64, PoolVector]](poolWindowCap)}
}

// WindowKey is the pool key for a source function: its structural hash, the
// same identity the program cache and the engine's verify memo use.
func WindowKey(src *ir.Func) uint64 { return ir.Hash(src) }

// Add deposits a falsifying vector for the given window, cloning inputs and
// memory. Duplicate vectors (same values, poison marks and memory) are
// dropped — but marked referenced, since the duplicate deposit proves the
// stored vector is still killing candidates. Past the per-window cap the
// clock evicts an unreferenced vector to make room. It reports whether a
// new vector was stored.
func (p *CEPool) Add(window uint64, inputs []interp.RVal, mem [][]byte) bool {
	return p.deposit(window, PoolVector{Inputs: inputs, Mem: mem}, true)
}

// Load installs a vector that came from a persistent store, so a restarted
// campaign's tier-0 replay starts with the accumulated falsifier corpus.
// Unlike Add it does not mark the vector pending (it is already stored) and
// counts toward Loaded instead of Deposits. The vector is cloned.
func (p *CEPool) Load(window uint64, v PoolVector) bool { return p.deposit(window, v, false) }

// deposit stores a clone of v under window unless the window already holds
// the same vector, counting it as an Add (and pending) or as a Load.
func (p *CEPool) deposit(window uint64, v PoolVector, add bool) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	w, _ := p.windows.Do(window, func() *memo.Map[uint64, PoolVector] {
		return memo.New[uint64, PoolVector](defaultPoolCap)
	})
	full := w.Len() == defaultPoolCap
	v, dup := w.Do(hashVector(v.Inputs, v.Mem), func() PoolVector {
		return PoolVector{Inputs: cloneRVals(v.Inputs), Mem: cloneByteSlices(v.Mem)}
	})
	switch {
	case dup:
		p.dups++
		return false
	case full:
		p.evictions++
	}
	if add {
		p.deposits++
		p.pending = append(p.pending, WindowVector{Window: window, Vec: v})
	} else {
		p.loaded++
	}
	return true
}

// Touch marks the stored copy of a vector as recently useful (it just
// falsified a candidate), protecting it from the next clock sweep. The
// checker calls this on every pool-tier kill.
func (p *CEPool) Touch(window uint64, inputs []interp.RVal, mem [][]byte) {
	if p == nil {
		return
	}
	if w, ok := p.windows.Get(window); ok {
		w.Get(hashVector(inputs, mem))
	}
}

// Contains reports whether the pool currently holds this exact vector for
// the window — the liveness test store compaction uses to drop vectors the
// clock has evicted (they stopped killing candidates and lost their slot).
// It marks neither the vector nor its window.
func (p *CEPool) Contains(window uint64, v PoolVector) bool {
	if p == nil {
		return false
	}
	w, ok := p.windows.Peek(window)
	return ok && w.Has(hashVector(v.Inputs, v.Mem))
}

// Vectors returns the stored vectors for a window in slot order and marks
// the window referenced. The returned slice is a snapshot; its entries are
// shared and immutable.
func (p *CEPool) Vectors(window uint64) []PoolVector {
	if p == nil {
		return nil
	}
	w, ok := p.windows.Get(window)
	if !ok {
		return nil
	}
	out := make([]PoolVector, 0, w.Len())
	w.Range(func(_ uint64, v PoolVector) { out = append(out, v) })
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
	s := CEPoolStats{Windows: p.windows.Len(), Deposits: p.deposits, Dups: p.dups,
		Loaded: p.loaded, Evictions: p.evictions}
	p.windows.Range(func(_ uint64, w *memo.Map[uint64, PoolVector]) { s.Vectors += w.Len() })
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
