package alive

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
)

// TestPoolKillsRepeatOffender is the CEGIS contract of the tiered
// scheduler: the input that refuted one candidate kills the next wrong
// candidate for the same window in tier 0, after a handful of executions
// instead of a sampling pass — and the counterexample it reports is a
// genuine, freshly re-executed violation. The corner values make the first
// kill a special-tier one, and a violation no corner value hits falls to
// the random tier.
func TestPoolKillsRepeatOffender(t *testing.T) {
	src := parser.MustParseFunc(`define i8 @src(i8 %x, i8 %y) { %r = add i8 %x, %y ret i8 %r }`)
	nsw := parser.MustParseFunc(`define i8 @tgt(i8 %x, i8 %y) { %r = add nsw i8 %x, %y ret i8 %r }`)
	ident := parser.MustParseFunc(`define i8 @tgt2(i8 %x, i8 %y) { ret i8 %x }`)
	pool := NewCEPool()
	opts := Options{Seed: 1, Samples: 256, Programs: interp.NewCache(), Pool: pool}

	r1 := Verify(src, nsw, opts)
	if r1.Verdict != Incorrect || r1.Tiers.KillTier != TierSpecial {
		t.Fatalf("first refutation: verdict %v, tier %d", r1.Verdict, r1.Tiers.KillTier)
	}
	if pool.Stats().Deposits != 1 {
		t.Fatalf("deposits = %d, want 1", pool.Stats().Deposits)
	}
	r2 := Verify(src, ident, opts)
	if r2.Verdict != Incorrect {
		t.Fatalf("identity rewrite must refute, got %v", r2.Verdict)
	}
	if r2.Tiers.KillTier != TierPool {
		t.Fatalf("second candidate killed by tier %d, want pool (%d)", r2.Tiers.KillTier, TierPool)
	}
	if r2.Checked != 1 || r2.Tiers.PoolChecked != 1 {
		t.Fatalf("pool kill took %d executions (pool %d), want 1", r2.Checked, r2.Tiers.PoolChecked)
	}
	// The pooled CE must be a real violation of THIS candidate: source and
	// target outputs recomputed for the replayed input.
	ce := r2.CE
	if ce == nil || ce.SrcRet.Equal(ce.TgtRet) {
		t.Fatalf("pool-kill counterexample is not a genuine violation: %+v", ce)
	}
	// A correct pair is unaffected by the pool: the pooled vector replays
	// (it cannot falsify a refinement that holds) and the full sequence
	// still passes.
	comm := parser.MustParseFunc(`define i8 @tgt3(i8 %x, i8 %y) { %r = add i8 %y, %x ret i8 %r }`)
	r3 := Verify(src, comm, opts)
	if r3.Verdict != Correct || r3.Tiers.PoolChecked == 0 {
		t.Fatalf("correct pair: verdict %v, pool checked %d", r3.Verdict, r3.Tiers.PoolChecked)
	}
	// An i32 identity rewrite broken only on x ≡ 777 (mod 1000): no corner
	// value hits that residue, so only the random phase can kill it.
	idSrc := parser.MustParseFunc(`define i32 @src(i32 %x) { ret i32 %x }`)
	idTgt := parser.MustParseFunc(`define i32 @tgt(i32 %x) {
  %m = urem i32 %x, 1000
  %c = icmp eq i32 %m, 777
  %r = select i1 %c, i32 0, i32 %x
  ret i32 %r
}`)
	ropts := opts
	ropts.Samples = 4096
	if r4 := Verify(idSrc, idTgt, ropts); r4.Verdict != Incorrect || r4.Tiers.KillTier != TierRandom {
		t.Fatalf("residue-only violation: verdict %v, tier %d, want random (%d)", r4.Verdict, r4.Tiers.KillTier, TierRandom)
	}
}

// TestTierAccounting pins that Checked is the sum of the per-tier counters
// on both the batched and the reference paths, and that correct runs
// report TierNone.
func TestTierAccounting(t *testing.T) {
	src := parser.MustParseFunc(clampSrc)
	tgt := parser.MustParseFunc(clampTgt)
	for _, res := range []Result{
		Verify(src, tgt, Options{Seed: 3, Samples: 128}),
		ReferenceVerify(src, tgt, Options{Seed: 3, Samples: 128}),
	} {
		if res.Verdict != Correct || res.Tiers.KillTier != TierNone {
			t.Fatalf("verdict %v, kill tier %d", res.Verdict, res.Tiers.KillTier)
		}
		sum := res.Tiers.PoolChecked + res.Tiers.SpecialChecked + res.Tiers.RandomChecked
		if sum != res.Checked {
			t.Fatalf("tier counts %+v do not sum to Checked %d", res.Tiers, res.Checked)
		}
		if res.Tiers.SpecialChecked == 0 || res.Tiers.RandomChecked == 0 {
			t.Fatalf("sampled run should exercise special and random tiers: %+v", res.Tiers)
		}
	}
}

// TestVerifyWidthsReseedsPool pins the sweep-level counterexample carry: a
// width refuted early reseeds later widths, which then die on a rescaled
// replay (tier 0) instead of a fresh search — while a correct pair's sweep
// is byte-for-byte what an unseeded sweep produces.
func TestVerifyWidthsReseedsPool(t *testing.T) {
	src := parser.MustParseFunc(`define i8 @src(i8 %x, i8 %y) { %r = add i8 %x, %y ret i8 %r }`)
	tgt := parser.MustParseFunc(`define i8 @tgt(i8 %x, i8 %y) { ret i8 %x }`)
	opts := Options{Seed: 1, Samples: 128, Programs: interp.NewCache()}
	inst := func(s, d *ir.Func) func(w int) (*ir.Func, *ir.Func, error) {
		return func(w int) (*ir.Func, *ir.Func, error) {
			sw, err := rewidthFunc(s, w)
			if err != nil {
				return nil, nil, err
			}
			dw, err := rewidthFunc(d, w)
			if err != nil {
				return nil, nil, err
			}
			return sw, dw, nil
		}
	}
	wrs := VerifyWidths([]int{8, 16, 32}, opts, inst(src, tgt))
	if wrs[0].Verdict != Incorrect || wrs[0].Tiers.KillTier == TierPool {
		t.Fatalf("width 8: verdict %v tier %d", wrs[0].Verdict, wrs[0].Tiers.KillTier)
	}
	for _, wr := range wrs[1:] {
		if wr.Verdict != Incorrect {
			t.Fatalf("width %d: verdict %v", wr.Width, wr.Verdict)
		}
		if wr.Tiers.KillTier != TierPool || wr.Checked != 1 {
			t.Fatalf("width %d: tier %d after %d executions, want pool kill on replay",
				wr.Width, wr.Tiers.KillTier, wr.Checked)
		}
	}
	// Correct pairs: seeded and unseeded sweeps must match exactly.
	good := parser.MustParseFunc(`define i8 @tgt(i8 %x, i8 %y) { %r = add i8 %y, %x ret i8 %r }`)
	a := VerifyWidths([]int{8, 16, 32}, opts, inst(src, good))
	b := VerifyWidths([]int{8, 16, 32}, opts, inst(src, good))
	for i := range a {
		if a[i].Verdict != Correct || a[i].Checked != b[i].Checked {
			t.Fatalf("width %d: sweep not reproducible: %+v vs %+v", a[i].Width, a[i].Result, b[i].Result)
		}
	}
}

// rewidthFunc re-types an all-i8 scalar function at width w by textual
// substitution (a minimal local stand-in for generalize.Rewidth, which this
// package cannot import).
func rewidthFunc(f *ir.Func, w int) (*ir.Func, error) {
	return parser.ParseFunc(strings.ReplaceAll(f.String(), "i8", ir.IntT(w).String()))
}

// tier0Pairs are the pairs the batched tier-0 test replays vectors
// through. Each refutes exactly the vectors whose %x is 200 (-56 as i8)
// or, for poison-kill, whose pointer base is poison. The pointer pairs
// read byte 20 of the region — past the end of the 8-byte pooled memories,
// so it must read as zero — after an earlier vector in the same batch slot
// stored %x there.
var tier0Pairs = []struct {
	name, src, tgt string
	ptr            bool
	kills          []int // positions of the killing vector; -1: none
}{
	{"scalar",
		`define i8 @src(i8 %x, i8 %y) { %r = add i8 %x, %y ret i8 %r }`,
		`define i8 @tgt(i8 %x, i8 %y) {
  %c = icmp eq i8 %x, -56
  %a = add i8 %x, %y
  %r = select i1 %c, i8 0, i8 %a
  ret i8 %r
}`, false, []int{0, 63, 64, 71, -1}},
	{"pooled-memory",
		`define i8 @src(ptr %p, i8 %x) {
  %q = getelementptr i8, ptr %p, i64 20
  %t = load i8, ptr %q
  %v = load i8, ptr %p
  store i8 %x, ptr %q
  %r = add i8 %v, %t
  ret i8 %r
}`,
		`define i8 @tgt(ptr %p, i8 %x) {
  %q = getelementptr i8, ptr %p, i64 20
  %t = load i8, ptr %q
  %v = load i8, ptr %p
  store i8 %x, ptr %q
  %r = add i8 %v, %t
  %c = icmp eq i8 %x, -56
  %r1 = add i8 %r, 1
  %o = select i1 %c, i8 %r1, i8 %r
  ret i8 %o
}`, true, []int{0, 63, 64, 71, -1}},
	{"poison-kill",
		`define i8 @src(ptr %p, i8 %x) { ret i8 %x }`,
		`define i8 @tgt(ptr %p, i8 %x) { %v = load i8, ptr %p ret i8 %x }`,
		true, []int{40}},
}

// TestTier0BatchedMatchesInOrderCheckOne pins the batched tier 0: a window
// pool filled to its cap of 32 plus 40 seeds (72 replays, crossing the
// 64-lane batch boundary), with the killing vector first, last in the first
// batch, first in the second, and last, must report the Checked count, kill
// tier and counterexample text of an in-order checkOne loop, and leave the
// pool exactly as that loop's Touch (pool-sourced kill) or Add
// (seed-sourced kill) does. Pointer pairs carry pooled memory and a
// poison-pointer-base vector at position 40, which runs on the reference
// path at its place in the order.
func TestTier0BatchedMatchesInOrderCheckOne(t *testing.T) {
	const nPooled, nVecs, poisonAt = defaultPoolCap, 72, 40
	for _, tc := range tier0Pairs {
		src := parser.MustParseFunc(tc.src)
		tgt := parser.MustParseFunc(tc.tgt)
		opts := Options{Seed: 3, Samples: 32}
		key := WindowKey(src)
		for _, killAt := range tc.kills {
			vecs := make([]PoolVector, nVecs)
			for i := range vecs {
				x := uint64(i) + 1
				if i == killAt {
					x = 200
				}
				v := PoolVector{Inputs: []interp.RVal{interp.Scalar(ir.I8, x), interp.Scalar(ir.I8, 1)}}
				if tc.ptr {
					v.Inputs = []interp.RVal{interp.Scalar(ir.Ptr, 0x1234+x), interp.Scalar(ir.I8, x)}
					if i == poisonAt {
						v.Inputs[0] = interp.PoisonRV(ir.Ptr)
					}
					v.Mem = [][]byte{{byte(i), 1, 2, 3, 4, 5, 6, 7}}
				}
				vecs[i] = v
			}
			pool, refPool := NewCEPool(), NewCEPool()
			for _, v := range vecs[:nPooled] {
				pool.Add(key, v.Inputs, v.Mem)
				refPool.Add(key, v.Inputs, v.Mem)
			}
			opts.Pool = pool
			c := NewChecker(src, tgt, opts)
			c.Seed(vecs[nPooled:])
			res := c.Verify()

			label := fmt.Sprintf("%s/kill@%d", tc.name, killAt)
			checked, refCE := 0, (*CounterExample)(nil)
			for vi, v := range vecs {
				checked++
				if refCE = checkOne(src, tgt, src.Params, v.Inputs, v.Mem, opts.withDefaults()); refCE != nil {
					if vi >= nPooled {
						refPool.Add(key, refCE.Inputs, refCE.Memory)
					} else {
						refPool.Touch(key, v.Inputs, v.Mem)
					}
					break
				}
			}
			if refCE == nil {
				if killAt >= 0 {
					t.Fatalf("%s: reference loop found no violation", label)
				}
				if res.Tiers.PoolChecked != nVecs || res.Tiers.KillTier == TierPool {
					t.Fatalf("%s: tier 0 checked %d (kill tier %d), want all %d without a kill",
						label, res.Tiers.PoolChecked, res.Tiers.KillTier, nVecs)
				}
				continue
			}
			if res.Verdict != Incorrect || res.Tiers.KillTier != TierPool ||
				res.Checked != checked || res.Tiers.PoolChecked != checked {
				t.Fatalf("%s: verdict %v, kill tier %d, checked %d (pool %d), want a pool kill after %d",
					label, res.Verdict, res.Tiers.KillTier, res.Checked, res.Tiers.PoolChecked, checked)
			}
			if got, want := res.CE.Format(), refCE.Format(); got != want {
				t.Fatalf("%s: counterexample text:\n%s\nwant:\n%s", label, got, want)
			}
			if diff := samePoolState(pool, refPool, key); diff != "" {
				t.Fatalf("%s: pool after Verify differs from the reference loop's: %s", label, diff)
			}
		}
	}
}

// samePoolState compares two pools' counters and, for one window, the
// stored vectors, their order and their clock reference bits.
func samePoolState(a, b *CEPool, key uint64) string {
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		return fmt.Sprintf("stats %+v vs %+v", sa, sb)
	}
	ba, bb := a.buckets[key], b.buckets[key]
	if len(ba.slots) != len(bb.slots) || ba.hand != bb.hand {
		return fmt.Sprintf("%d slots (hand %d) vs %d (hand %d)", len(ba.slots), ba.hand, len(bb.slots), bb.hand)
	}
	for i := range ba.slots {
		if ba.slots[i].hash != bb.slots[i].hash || ba.slots[i].ref != bb.slots[i].ref {
			return fmt.Sprintf("slot %d: hash %x ref %v vs hash %x ref %v",
				i, ba.slots[i].hash, ba.slots[i].ref, bb.slots[i].hash, bb.slots[i].ref)
		}
	}
	return ""
}
