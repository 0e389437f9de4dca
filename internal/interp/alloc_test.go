package interp

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/parser"
)

var raceEnabled bool

// TestEvaluatorSteadyStateAllocs pins the compile-once contract: running a
// compiled straight-line window on one vector allocates nothing once the
// evaluator is warm.
func TestEvaluatorSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by the race runtime")
	}
	f := parser.MustParseFunc(`define i8 @f(i32 %0) {
  %2 = icmp slt i32 %0, 0
  %3 = tail call i32 @llvm.umin.i32(i32 %0, i32 255)
  %4 = trunc nuw i32 %3 to i8
  %5 = select i1 %2, i8 0, i8 %4
  ret i8 %5
}`)
	ev := NewEvaluator(Compile(f))
	col := ev.ArgColumn(0)
	run := func() Result {
		col[0] = Word{V: 1234}
		ev.RunBatchFilled(1, nil, 0)
		return ev.LaneResult(0)
	}
	run()
	allocs := testing.AllocsPerRun(200, func() { run() })
	if allocs != 0 {
		t.Fatalf("steady-state one-vector run allocates %.1f times per execution, want 0", allocs)
	}
}

// TestRunBatchSteadyStateAllocs pins the batch path's contract: a warm
// evaluator runs a batch of integer intrinsics (the bkIntrinsic kernel,
// with a flag immediate and a funnel shift) without allocating.
func TestRunBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by the race runtime")
	}
	f := parser.MustParseFunc(`define i16 @f(i16 %x, i16 %y) {
  %a = call i16 @llvm.abs.i16(i16 %x, i1 true)
  %b = call i16 @llvm.fshl.i16(i16 %a, i16 %y, i16 %x)
  %c = call i16 @llvm.ctlz.i16(i16 %b, i1 false)
  %d = call i16 @llvm.usub.sat.i16(i16 %c, i16 %y)
  ret i16 %d
}`)
	ev := NewEvaluator(Compile(f))
	for i := range f.Params {
		col := ev.ArgColumn(i)
		for b := range col {
			col[b] = Word{V: uint64(b*(i+3)) & 0xFFFF}
		}
	}
	ev.RunBatchFilled(BatchWidth, nil, 0)
	for gi, ci := range ev.p.code {
		if ci.in.Op == ir.OpCall && ev.bs.kinds[gi] != bkIntrinsic {
			t.Fatalf("%s runs on batch kind %d, want the intrinsic kernel", ci.in, ev.bs.kinds[gi])
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		ev.RunBatchFilled(BatchWidth, nil, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state RunBatchFilled allocates %.1f times per batch, want 0", allocs)
	}
}
