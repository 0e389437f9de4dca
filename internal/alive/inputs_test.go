package alive

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
)

// eagerVec is one pre-materialized input vector of the historic eager
// generator, replicated below as the equivalence reference.
type eagerVec struct {
	args   []interp.RVal
	mem    [][]byte
	random bool // drawn in the random-sampling phase (TierRandom)
}

// eagerQueue is a verbatim replica of the pre-streaming inputGen: it builds
// the whole queue up front, drawing from the rng in the historic order. The
// streaming generator must emit the exact same sequence.
func eagerQueue(f *ir.Func, opts Options) ([]eagerVec, bool) {
	rng := rand.New(rand.NewSource(int64(opts.Seed) ^ 0x5eed))
	totalBits := 0
	numPtrs := 0
	for _, p := range f.Params {
		if ir.IsPtr(p.Ty) {
			numPtrs++
			continue
		}
		totalBits += ir.ScalarBits(ir.Elem(p.Ty)) * ir.Lanes(p.Ty)
	}
	exhaustive := totalBits <= opts.MaxExhaustiveBits

	mkFills := func() [][][]byte {
		if numPtrs == 0 {
			return [][][]byte{nil}
		}
		mk := func(gen func(i int) byte) [][]byte {
			out := make([][]byte, numPtrs)
			for p := 0; p < numPtrs; p++ {
				b := make([]byte, opts.MemSize)
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
		for len(fills) < opts.MemFills {
			fills = append(fills, mk(func(int) byte { return byte(rng.Intn(256)) }))
		}
		return fills[:opts.MemFills]
	}
	fills := mkFills()

	argsFromCounter := func(c uint64) []interp.RVal {
		args := make([]interp.RVal, len(f.Params))
		bit := uint(0)
		for i, p := range f.Params {
			if ir.IsPtr(p.Ty) {
				args[i] = interp.Scalar(ir.Ptr, 0)
				continue
			}
			w := ir.ScalarBits(ir.Elem(p.Ty))
			lanes := ir.Lanes(p.Ty)
			rv := interp.RVal{Ty: p.Ty, Lanes: make([]interp.Word, lanes)}
			for l := 0; l < lanes; l++ {
				v := (c >> bit) & ir.MaskW(w)
				bit += uint(w)
				rv.Lanes[l] = interp.Word{V: v}
			}
			args[i] = rv
		}
		return args
	}

	var queue []eagerVec
	if exhaustive {
		for c := uint64(0); c < uint64(1)<<uint(totalBits); c++ {
			args := argsFromCounter(c)
			for _, m := range fills {
				queue = append(queue, eagerVec{args: args, mem: m})
			}
		}
	} else {
		specials := 0
		for _, p := range f.Params {
			if n := len(specialLanes(p.Ty)); n > specials {
				specials = n
			}
		}
		for k := 0; k < specials; k++ {
			args := make([]interp.RVal, len(f.Params))
			for i, p := range f.Params {
				args[i] = specialArg(p.Ty, k)
			}
			queue = append(queue, eagerVec{args: args, mem: fills[k%len(fills)]})
		}
		for k := 0; k < opts.Samples/8; k++ {
			args := make([]interp.RVal, len(f.Params))
			for i, p := range f.Params {
				args[i] = specialArg(p.Ty, rng.Intn(specials+1))
			}
			queue = append(queue, eagerVec{args: args, mem: fills[rng.Intn(len(fills))]})
		}
		for k := 0; k < opts.Samples; k++ {
			args := make([]interp.RVal, len(f.Params))
			for i, p := range f.Params {
				args[i] = randomArg(p.Ty, rng)
			}
			queue = append(queue, eagerVec{args: args, mem: fills[rng.Intn(len(fills))], random: true})
		}
	}
	for i, p := range f.Params {
		if ir.IsPtr(p.Ty) {
			continue
		}
		for trial := 0; trial < 2; trial++ {
			args := make([]interp.RVal, len(f.Params))
			for j, q := range f.Params {
				if j == i {
					args[j] = interp.PoisonRV(q.Ty)
				} else if trial == 0 {
					args[j] = specialArg(q.Ty, 0)
				} else {
					args[j] = randomArg(q.Ty, rng)
				}
			}
			queue = append(queue, eagerVec{args: args, mem: fills[trial%len(fills)]})
		}
	}
	return queue, exhaustive
}

func fmtVec(args []interp.RVal, mem [][]byte) string {
	s := ""
	for _, a := range args {
		s += a.Format() + "; "
	}
	for _, m := range mem {
		s += fmt.Sprintf("%x;", m)
	}
	return s
}

// sameVec reports whether args and mem hold exactly the eager vector e:
// every lane's bits and poison mark, and every memory byte.
func sameVec(args []interp.RVal, mem [][]byte, e eagerVec) bool {
	for i := range args {
		for l, w := range args[i].Lanes {
			if w != e.args[i].Lanes[l] {
				return false
			}
		}
	}
	if len(mem) != len(e.mem) {
		return false
	}
	for j := range mem {
		if string(mem[j]) != string(e.mem[j]) {
			return false
		}
	}
	return true
}

// TestStreamingInputGenMatchesEagerReference locks the streaming generator
// to the historic eager queue: same length, same values, same memory fills,
// same order, for a spread of signatures and seeds — both through next()
// and through nextBatch with 1, 7 and 64 slots, whose batches straddle the
// exhaustive→poison boundary. Pointer signatures keep nextBatch's
// per-vector path; the others take its columnar exhaustive tier.
func TestStreamingInputGenMatchesEagerReference(t *testing.T) {
	funcs := []string{
		`define i8 @f(i8 %x, i8 %y) { %r = add i8 %x, %y ret i8 %r }`,                               // exhaustive
		`define <2 x i8> @f(<2 x i8> %v) { ret <2 x i8> %v }`,                                       // exhaustive vector
		`define i8 @f(i32 %x) { %r = trunc i32 %x to i8 ret i8 %r }`,                                // sampled scalar
		`define i1 @f(double %x) { %r = fcmp ord double %x, %x ret i1 %r }`,                         // float corners
		`define <4 x i8> @f(<4 x i8> %v, <4 x i8> %w) { %r = and <4 x i8> %v, %w ret <4 x i8> %r }`, // sampled vector
		`define i8 @f(ptr %p) { %r = load i8, ptr %p ret i8 %r }`,                                   // exhaustive + memory
		`define i8 @f(ptr %p, i4 %x) { %r = load i8, ptr %p ret i8 %r }`,                            // exhaustive + memory + int
		`define i16 @f(ptr %p, ptr %q, i32 %x) { %r = trunc i32 %x to i16 ret i16 %r }`,             // sampled + two regions
		`define i8 @f() { ret i8 7 }`,                                                               // no params
	}
	for fi, src := range funcs {
		f := parser.MustParseFunc(src)
		for _, seed := range []uint64{0, 1, 42} {
			opts := Options{Seed: seed, Samples: 64, MemFills: 3, MemSize: 16}.withDefaults()
			want, wantExh := eagerQueue(f, opts)
			g := newInputGen(f, opts)
			if g.exhaustive != wantExh {
				t.Fatalf("func %d seed %d: exhaustive=%v, want %v", fi, seed, g.exhaustive, wantExh)
			}
			i := 0
			for g.next() {
				if i >= len(want) {
					t.Fatalf("func %d seed %d: streaming emits more than %d vectors", fi, seed, len(want))
				}
				got := fmtVec(g.inputs, g.memBytes)
				exp := fmtVec(want[i].args, want[i].mem)
				if got != exp {
					t.Fatalf("func %d seed %d vector %d differs:\ngot  %s\nwant %s", fi, seed, i, got, exp)
				}
				i++
			}
			if i != len(want) {
				t.Fatalf("func %d seed %d: streaming emitted %d vectors, eager %d", fi, seed, i, len(want))
			}
			g.release()
			for _, width := range []int{1, 7, 64} {
				checkBatches(t, f, opts, width, want)
			}
		}
	}
}

// checkBatches drains a fresh generator through nextBatch with width slots
// and requires the eager queue's vectors, memory fills and tiers in order.
func checkBatches(t *testing.T, f *ir.Func, opts Options, width int, want []eagerVec) {
	t.Helper()
	g := newInputGen(f, opts)
	defer g.release()
	slots := make([][]interp.RVal, width)
	for s := range slots {
		slots[s] = make([]interp.RVal, len(f.Params))
		for i, p := range f.Params {
			slots[s][i] = interp.RVal{Ty: p.Ty, Lanes: make([]interp.Word, ir.Lanes(p.Ty))}
		}
	}
	tiers := make([]int8, width)
	mems := make([][][]byte, width)
	i := 0
	for {
		n, tier := g.nextBatch(slots, tiers, func(s int) { mems[s] = g.memBytes })
		if n == 0 {
			break
		}
		for s := 0; s < n; s++ {
			if i >= len(want) {
				t.Fatalf("%s width %d: nextBatch emits more than %d vectors", f, width, len(want))
			}
			if !sameVec(slots[s], mems[s], want[i]) {
				t.Fatalf("%s width %d vector %d differs:\ngot  %s\nwant %s", f, width, i,
					fmtVec(slots[s], mems[s]), fmtVec(want[i].args, want[i].mem))
			}
			gotTier := tier
			if tier == TierNone {
				gotTier = int(tiers[s])
			}
			wantTier := TierSpecial
			if want[i].random {
				wantTier = TierRandom
			}
			if gotTier != wantTier {
				t.Fatalf("%s width %d vector %d: tier %d, want %d", f, width, i, gotTier, wantTier)
			}
			mems[s] = nil
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("%s width %d: nextBatch emitted %d vectors, eager %d", f, width, i, len(want))
	}
}
