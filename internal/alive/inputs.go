package alive

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/seedrand"
)

// inputGen produces the sequence of concrete environments to check:
// exhaustive enumeration when the non-pointer input bit budget fits the
// bound, otherwise structured corner values followed by seeded random
// samples; either way a poison trial per argument is appended.
//
// Vectors are generated lazily from the phase counters and the seeded rng —
// the exhaustive space (up to 2^MaxExhaustiveBits counter values times
// MemFills memories) is never materialized — and the argument buffers are
// reused between next calls: callers that retain inputs (counterexamples)
// must clone them. The emitted sequence is identical, value for value, to
// the historic eager queue (guarded by a fixed-seed equivalence test).
type inputGen struct {
	params     []*ir.Param
	opts       Options
	rng        *rand.Rand // seeded on first use; see random
	exhaustive bool

	fills    [][][]byte // initial memories, one entry per pointer param
	tables   [][]uint64 // per-param corner value tables
	specials int        // max table length across params (sampled phases)
	widths   []int      // per-param scalar lane width (hoisted type dispatch)
	masks    []uint64   // per-param lane mask
	isPtr    []bool     // per-param pointer flag
	numPtrs  int

	phase int
	c     uint64 // exhaustive counter
	cmax  uint64
	fi    int // fill index within the current counter value
	k     int // per-phase item counter
	pi    int // poison phase: param being poisoned
	trial int // poison phase: trial within the param

	inputs   []interp.RVal
	memBytes [][]byte
}

// Generation phases, in emission order. Exhaustive runs skip the three
// sampled phases; both run the poison trials last.
const (
	phExhaust = iota
	phCorner
	phMixed
	phRandom
	phPoison
	phDone
)

// rngPool recycles the generators' random sources. Seeding a
// seedrand.Source puts it in exactly the state rand.NewSource(seed) starts
// in, so the sequence is unchanged; the pool saves the ~5 KiB source
// allocation per Verify.
var rngPool = sync.Pool{New: func() any { return rand.New(new(seedrand.Source)) }}

// newInputGen builds the generator for f's parameters. Call release once
// the sequence is no longer needed.
func newInputGen(f *ir.Func, opts Options) *inputGen {
	g := &inputGen{params: f.Params, opts: opts}

	totalBits := 0
	for _, p := range f.Params {
		if ir.IsPtr(p.Ty) {
			g.numPtrs++
			continue
		}
		totalBits += ir.ScalarBits(ir.Elem(p.Ty)) * ir.Lanes(p.Ty)
	}
	g.exhaustive = totalBits <= opts.MaxExhaustiveBits
	g.fills = g.memoryFills(g.numPtrs)

	g.tables = make([][]uint64, len(f.Params))
	g.widths = make([]int, len(f.Params))
	g.masks = make([]uint64, len(f.Params))
	g.isPtr = make([]bool, len(f.Params))
	for i, p := range f.Params {
		g.tables[i] = specialLanes(p.Ty)
		if n := len(g.tables[i]); n > g.specials {
			g.specials = n
		}
		g.widths[i] = ir.ScalarBits(ir.Elem(p.Ty))
		g.masks[i] = ir.MaskW(g.widths[i])
		g.isPtr[i] = ir.IsPtr(p.Ty)
	}

	g.inputs = make([]interp.RVal, len(f.Params))
	for i, p := range f.Params {
		g.inputs[i] = interp.RVal{Ty: p.Ty, Lanes: make([]interp.Word, ir.Lanes(p.Ty))}
	}

	if g.exhaustive {
		g.phase = phExhaust
		g.cmax = uint64(1) << uint(totalBits)
	} else {
		g.phase = phCorner
	}
	return g
}

// random returns the generator's rng, seeding it on first use, so
// sequences that end before their first random draw — exhaustive runs
// refuted before the poison trials — take no source from the pool. The
// draws, and so the sequence, are the same either way.
func (g *inputGen) random() *rand.Rand {
	if g.rng == nil {
		g.rng = rngPool.Get().(*rand.Rand)
		g.rng.Seed(int64(g.opts.Seed) ^ 0x5eed)
	}
	return g.rng
}

// release returns the generator's random source to rngPool; g must not
// be used afterwards.
func (g *inputGen) release() {
	if g.rng != nil {
		rngPool.Put(g.rng)
		g.rng = nil
	}
}

// next advances to the following input vector, refreshing g.inputs and
// g.memBytes in place. It reports false when the sequence is exhausted.
func (g *inputGen) next() bool {
	for {
		switch g.phase {
		case phExhaust:
			if g.c >= g.cmax {
				g.phase = phPoison
				continue
			}
			// Rewrite the arguments on every emission, not just when the
			// counter advances: the batched checker rebinds g.inputs to a
			// different slot between calls, so fill-iteration vectors must
			// not rely on the previous slot's contents. The values are a
			// pure function of c, so the emitted sequence is unchanged.
			g.setFromCounter(g.c, g.inputs)
			g.memBytes = g.fills[g.fi]
			g.fi++
			if g.fi >= len(g.fills) {
				g.fi = 0
				g.c++
			}
			return true
		case phCorner:
			// Corner phase: uniform specials plus rotated mixes.
			if g.k >= g.specials {
				g.phase = phMixed
				g.k = 0
				continue
			}
			for i := range g.params {
				g.setSpecial(i, g.k)
			}
			g.memBytes = g.fills[g.k%len(g.fills)]
			g.k++
			return true
		case phMixed:
			// Mixed-corner phase: random picks from the specials table.
			if g.k >= g.opts.Samples/8 {
				g.phase = phRandom
				g.k = 0
				continue
			}
			for i := range g.params {
				g.setSpecial(i, g.random().Intn(g.specials+1))
			}
			g.memBytes = g.fills[g.random().Intn(len(g.fills))]
			g.k++
			return true
		case phRandom:
			if g.k >= g.opts.Samples {
				g.phase = phPoison
				continue
			}
			for i := range g.params {
				g.setRandom(i)
			}
			g.memBytes = g.fills[g.random().Intn(len(g.fills))]
			g.k++
			return true
		case phPoison:
			// Poison trials: each argument poisoned once against two bases.
			// A poison pointer base would only exercise load-of-poison, so
			// pointer params are skipped as poison targets.
			for g.pi < len(g.params) && ir.IsPtr(g.params[g.pi].Ty) {
				g.pi++
			}
			if g.pi >= len(g.params) {
				g.phase = phDone
				continue
			}
			for j := range g.params {
				switch {
				case j == g.pi:
					g.setPoison(j)
				case g.trial == 0:
					g.setSpecial(j, 0)
				default:
					g.setRandom(j)
				}
			}
			g.memBytes = g.fills[g.trial%len(g.fills)]
			g.trial++
			if g.trial == 2 {
				g.trial = 0
				g.pi++
			}
			return true
		default:
			return false
		}
	}
}

// bind redirects the generator to write the next vector directly into args,
// whose shape must match the function's parameters (same arity and lane
// counts). The batched checker rotates the generator across its batch slots
// this way, eliding a staging copy per vector; every phase rewrites every
// argument on every next call, so stale slot contents never leak through.
func (g *inputGen) bind(args []interp.RVal) {
	g.inputs = args
}

// nextBatch fills up to len(slots) consecutive vectors of the generated
// sequence, writing each vector's arguments directly through the per-slot
// views of the input columns cols (the batched checker points both at the
// source evaluator's arena, so generation lands straight in the batch
// arena with no staging Envs). fill, when non-nil, runs after each slot is
// emitted so the caller can snapshot g.memBytes into that slot's per-lane
// memory. Generation stays vector-major inside the batch — the rng draw
// order is part of the sequence contract (same-seed campaigns replay
// byte-identically) — only the destination is columnwise.
//
// It returns the number of slots filled (fewer than len(slots) means the
// sequence ended) and their tier. Every vector of an exhaustive sequence is
// TierSpecial, so such batches return that as tier and leave tiers
// untouched; sampled sequences return TierNone with each slot's tier in
// tiers[:n]. The exhaustive phase of a signature without pointer
// parameters — the bulk of all verified vectors — draws nothing from the
// rng, so it is written column by column straight from the counter
// (counterColumns), with no per-vector dispatch.
func (g *inputGen) nextBatch(slots [][]interp.RVal, cols [][]interp.Word, tiers []int8, fill func(slot int)) (n, tier int) {
	if g.phase == phExhaust && g.numPtrs == 0 {
		n = int(min(uint64(len(slots)), g.cmax-g.c))
		g.counterColumns(cols, n)
	}
	for n < len(slots) {
		g.bind(slots[n])
		if !g.next() {
			break
		}
		if !g.exhaustive {
			tiers[n] = int8(g.tier())
		}
		if fill != nil {
			fill(n)
		}
		n++
	}
	if g.exhaustive {
		return n, TierSpecial
	}
	return n, TierNone
}

// counterColumns writes the next n counter values of a pointer-free
// exhaustive sequence into the first n slots of the input columns and
// advances the counter past them. Slot b gets counter value g.c+b, whose
// bits map onto the arguments as in setFromCounter; each column is written
// in one pass per lane.
func (g *inputGen) counterColumns(cols [][]interp.Word, n int) {
	bit := uint(0)
	for i := range g.params {
		col, w, mask := cols[i], uint(g.widths[i]), g.masks[i]
		L := len(g.inputs[i].Lanes)
		for l := 0; l < L; l++ {
			for b, c := 0, g.c; b < n; b, c = b+1, c+1 {
				col[b*L+l] = interp.Word{V: (c >> bit) & mask}
			}
			bit += w
		}
	}
	g.c += uint64(n)
}

// tier attributes the vector the latest next() emitted to a scheduler tier:
// random samples are TierRandom, every other phase (exhaustive enumeration,
// corner values, corner mixes, poison trials) is TierSpecial.
func (g *inputGen) tier() int {
	if g.phase == phRandom {
		return TierRandom
	}
	return TierSpecial
}

// setFromCounter maps the bits of c onto the non-pointer arguments of args.
// Only the per-vector next path uses it (ReferenceVerify, and exhaustive
// sequences with pointer parameters); counterColumns is its column-major
// twin for the batched checker.
func (g *inputGen) setFromCounter(c uint64, args []interp.RVal) {
	bit := uint(0)
	for i := range g.params {
		lanes := args[i].Lanes
		if g.isPtr[i] {
			lanes[0] = interp.Word{} // replaced by the region base
			continue
		}
		w, mask := uint(g.widths[i]), g.masks[i]
		for l := range lanes {
			lanes[l] = interp.Word{V: (c >> bit) & mask}
			bit += w
		}
	}
}

// setSpecial writes the k-th corner argument of param i; lanes are rotated
// so vector corner cases are not all-uniform.
func (g *inputGen) setSpecial(i, k int) {
	table := g.tables[i]
	lanes := g.inputs[i].Lanes
	for l := range lanes {
		lanes[l] = interp.Word{V: table[(k+l)%len(table)]}
	}
}

// setRandom writes a uniformly random argument for param i.
func (g *inputGen) setRandom(i int) {
	mask, rng := g.masks[i], g.random()
	lanes := g.inputs[i].Lanes
	for l := range lanes {
		lanes[l] = interp.Word{V: rng.Uint64() & mask}
	}
}

// setPoison writes an all-poison argument for param i.
func (g *inputGen) setPoison(i int) {
	lanes := g.inputs[i].Lanes
	for l := range lanes {
		lanes[l] = interp.Word{Poison: true}
	}
}

// memoryFills builds the initial memories tried per input vector: an
// all-zero fill, a ramp, and seeded random fills.
func (g *inputGen) memoryFills(numPtrs int) [][][]byte {
	if numPtrs == 0 {
		return [][][]byte{nil}
	}
	mk := func(gen func(i int) byte) [][]byte {
		out := make([][]byte, numPtrs)
		for p := 0; p < numPtrs; p++ {
			b := make([]byte, g.opts.MemSize)
			for i := range b {
				b[i] = gen(i + p*7)
			}
			out[p] = b
		}
		return out
	}
	fills := [][][]byte{
		mk(func(int) byte { return 0 }),
		mk(func(i int) byte { return byte(i) }),
	}
	for len(fills) < g.opts.MemFills {
		fills = append(fills, mk(func(int) byte { return byte(g.random().Intn(256)) }))
	}
	return fills[:g.opts.MemFills]
}

// specialLanes returns the table of corner lane values for a lane type.
func specialLanes(ty ir.Type) []uint64 {
	elem := ir.Elem(ty)
	switch e := elem.(type) {
	case ir.IntType:
		w := e.W
		mask := ir.MaskW(w)
		vals := []uint64{0, 1, 2, 3, mask, mask >> 1, (mask >> 1) + 1, mask - 1,
			0x5555555555555555 & mask, 0xAAAAAAAAAAAAAAAA & mask}
		if w > 8 {
			vals = append(vals, 127, 128, 255, 256&mask, 0xFF00&mask)
		}
		return dedup(vals)
	case ir.FloatType:
		f := func(v float64) uint64 {
			if e.W == 32 {
				return uint64(math.Float32bits(float32(v)))
			}
			return math.Float64bits(v)
		}
		nan := uint64(math.Float64bits(math.NaN()))
		if e.W == 32 {
			nan = uint64(math.Float32bits(float32(math.NaN())))
		}
		return []uint64{f(0), f(math.Copysign(0, -1)), f(1), f(-1), f(2), f(0.5),
			nan, f(math.Inf(1)), f(math.Inf(-1)), f(255), f(256)}
	case ir.PtrType:
		return []uint64{0}
	}
	return []uint64{0}
}

func dedup(vals []uint64) []uint64 {
	seen := make(map[uint64]bool, len(vals))
	out := vals[:0]
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
