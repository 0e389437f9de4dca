package alive

import (
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
)

func poolVec(vals ...uint64) []interp.RVal {
	out := make([]interp.RVal, len(vals))
	for i, v := range vals {
		out[i] = interp.Scalar(ir.I8, v)
	}
	return out
}

// TestCEPoolDedupAndCap pins deposit semantics: clones, duplicate
// rejection, the per-window cap, and nil-pool no-ops.
func TestCEPoolDedupAndCap(t *testing.T) {
	p := NewCEPool()
	if !p.Add(1, poolVec(1, 2), nil) {
		t.Fatal("first deposit rejected")
	}
	if p.Add(1, poolVec(1, 2), nil) {
		t.Fatal("duplicate deposit accepted")
	}
	if !p.Add(1, poolVec(2, 1), nil) {
		t.Fatal("distinct vector rejected")
	}
	if !p.Add(2, poolVec(1, 2), nil) {
		t.Fatal("same vector under another window rejected")
	}
	st := p.Stats()
	if st.Windows != 2 || st.Vectors != 3 || st.Deposits != 3 || st.Dups != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := len(p.Vectors(1)); got != 2 {
		t.Fatalf("window 1 has %d vectors, want 2", got)
	}
	// The pool clones: mutating the caller's buffer must not reach it.
	in := poolVec(9)
	p.Add(3, in, nil)
	in[0].Lanes[0].V = 42
	if p.Vectors(3)[0].Inputs[0].Lanes[0].V != 9 {
		t.Fatal("pool aliased the caller's buffer")
	}
	for i := uint64(0); i < defaultPoolCap*2; i++ {
		if !p.Add(4, poolVec(i), nil) {
			t.Fatalf("deposit %d rejected: the clock should evict, not drop", i)
		}
	}
	if got := len(p.Vectors(4)); got != defaultPoolCap {
		t.Fatalf("cap not enforced: %d vectors", got)
	}
	if ev := p.Stats().Evictions; ev != defaultPoolCap {
		t.Fatalf("evictions = %d, want %d", ev, defaultPoolCap)
	}
	var nilPool *CEPool
	if nilPool.Add(1, poolVec(1), nil) || nilPool.Vectors(1) != nil || nilPool.Stats() != (CEPoolStats{}) {
		t.Fatal("nil pool must be inert")
	}
}

// TestCEPoolBoundsWindows: the window table holds poolWindowCap windows;
// past it a deposit into a new window drops an unreferenced window with its
// vectors, and a window replayed since its deposit survives.
func TestCEPoolBoundsWindows(t *testing.T) {
	p := NewCEPool()
	for w := uint64(0); w < poolWindowCap+100; w++ {
		if w == poolWindowCap {
			p.Vectors(0) // replay the oldest window just before the table overflows
		}
		if !p.Add(w, poolVec(w), nil) {
			t.Fatalf("deposit into window %d rejected", w)
		}
	}
	if st := p.Stats(); st.Windows != poolWindowCap || st.Vectors != poolWindowCap {
		t.Fatalf("stats = %+v, want %d windows of one vector", st, poolWindowCap)
	}
	if len(p.Vectors(0)) != 1 {
		t.Fatal("a recently replayed window was evicted")
	}
	for _, w := range []uint64{1, 100} {
		if p.Vectors(w) != nil || p.Contains(w, PoolVector{Inputs: poolVec(w)}) {
			t.Fatalf("unreferenced window %d survived the overflow", w)
		}
	}
	for _, w := range []uint64{101, poolWindowCap + 99} {
		if !p.Contains(w, PoolVector{Inputs: poolVec(w)}) {
			t.Fatalf("window %d lost its vector", w)
		}
	}
}

// TestCEPoolConcurrency hammers one pool from concurrent depositors and
// readers; run under -race in CI this is the concurrency-safety guard.
func TestCEPoolConcurrency(t *testing.T) {
	p := NewCEPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				w := uint64(i % 5)
				p.Add(w, poolVec(uint64(g), uint64(i%16)), nil)
				for _, pv := range p.Vectors(w) {
					if len(pv.Inputs) != 2 {
						t.Error("malformed pooled vector")
						return
					}
				}
				_ = p.Stats()
			}
		}(g)
	}
	wg.Wait()
}

// TestCEPoolConcurrentVerify runs many checkers against one shared pool —
// the engine's steady state — and requires every verdict to stay correct.
func TestCEPoolConcurrentVerify(t *testing.T) {
	src := parser.MustParseFunc(`define i8 @src(i8 %x, i8 %y) { %r = add i8 %x, %y ret i8 %r }`)
	bad := parser.MustParseFunc(`define i8 @tgt(i8 %x, i8 %y) { %r = add nsw i8 %x, %y ret i8 %r }`)
	good := parser.MustParseFunc(`define i8 @tgt(i8 %x, i8 %y) { %r = add i8 %y, %x ret i8 %r }`)
	pool := NewCEPool()
	progs := interp.NewCache()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				opts := Options{Samples: 64, Seed: uint64(g*10 + i), Programs: progs, Pool: pool}
				if r := Verify(src, bad, opts); r.Verdict != Incorrect {
					t.Errorf("nsw strengthening must refute, got %v", r.Verdict)
					return
				}
				if r := Verify(src, good, opts); r.Verdict != Correct {
					t.Errorf("commuted add must verify, got %v", r.Verdict)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if ps := pool.Stats(); ps.Deposits == 0 {
		t.Fatal("no counterexamples pooled")
	}
}

// TestRescaleVector pins the width-sweep adaptation: values are masked to
// the new parameter width, poison survives, and shape mismatches are
// rejected.
func TestRescaleVector(t *testing.T) {
	params := parser.MustParseFunc(`define i8 @f(i8 %x, i8 %y) { ret i8 %x }`).Params
	wide := PoolVector{Inputs: []interp.RVal{
		interp.Scalar(ir.I32, 0x1FF),
		interp.PoisonRV(ir.I32),
	}}
	got, ok := RescaleVector(params, wide)
	if !ok {
		t.Fatal("compatible vector rejected")
	}
	if got.Inputs[0].Lanes[0].V != 0xFF {
		t.Fatalf("value not masked: %x", got.Inputs[0].Lanes[0].V)
	}
	if !got.Inputs[1].Lanes[0].Poison {
		t.Fatal("poison lost in rescale")
	}
	if _, ok := RescaleVector(params, PoolVector{Inputs: poolVec(1)}); ok {
		t.Fatal("arity mismatch accepted")
	}
}

// TestCEPoolClockEviction pins the second-chance policy: vectors marked
// referenced (Touch, or a duplicate re-deposit) survive the sweep that
// evicts unreferenced ones, the clock of memo.Map.
func TestCEPoolClockEviction(t *testing.T) {
	p := NewCEPool()
	for i := uint64(0); i < defaultPoolCap; i++ {
		p.Add(1, poolVec(i), nil)
	}
	// Protect vector 0 via Touch and vector 1 via a duplicate deposit.
	p.Touch(1, poolVec(0), nil)
	if p.Add(1, poolVec(1), nil) {
		t.Fatal("duplicate deposit must not store")
	}
	// Two inserts at cap: the hand sweeps past the two referenced slots
	// (clearing their marks) and evicts the first unreferenced ones.
	p.Add(1, poolVec(100), nil)
	p.Add(1, poolVec(101), nil)
	have := make(map[uint64]bool)
	for _, v := range p.Vectors(1) {
		have[v.Inputs[0].Lanes[0].V] = true
	}
	if !have[0] || !have[1] {
		t.Fatal("referenced vectors were evicted")
	}
	if have[2] || have[3] {
		t.Fatal("unreferenced vectors survived a full sweep")
	}
	if !have[100] || !have[101] {
		t.Fatal("new vectors were not inserted")
	}
	st := p.Stats()
	if st.Vectors != defaultPoolCap || st.Evictions != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCEPoolLoadAndDrain pins the persistence hooks: Load installs without
// marking pending, Add marks pending exactly once, and DrainPending clears.
func TestCEPoolLoadAndDrain(t *testing.T) {
	p := NewCEPool()
	if !p.Load(7, PoolVector{Inputs: poolVec(1, 2)}) {
		t.Fatal("load rejected")
	}
	if p.Load(7, PoolVector{Inputs: poolVec(1, 2)}) {
		t.Fatal("duplicate load accepted")
	}
	p.Add(7, poolVec(3, 4), nil)
	p.Add(8, poolVec(5, 6), nil)
	st := p.Stats()
	if st.Loaded != 1 || st.Deposits != 2 || st.Vectors != 3 {
		t.Fatalf("stats = %+v", st)
	}
	drained := p.DrainPending()
	if len(drained) != 2 {
		t.Fatalf("drained %d vectors, want 2 (loads must not be pending)", len(drained))
	}
	if drained[0].Window != 7 || drained[1].Window != 8 {
		t.Fatalf("drained windows %d, %d", drained[0].Window, drained[1].Window)
	}
	if got := p.DrainPending(); got != nil {
		t.Fatalf("second drain returned %d vectors", len(got))
	}
	var nilPool *CEPool
	if nilPool.Load(1, PoolVector{}) || nilPool.DrainPending() != nil {
		t.Fatal("nil pool hooks must be inert")
	}
	nilPool.Touch(1, nil, nil)
}
