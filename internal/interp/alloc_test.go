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
	envs := []Env{{Args: []RVal{Scalar(ir.I32, 1234)}}}
	out := make([]Result, 1)
	ev.RunBatch(envs, out)
	allocs := testing.AllocsPerRun(200, func() {
		ev.RunBatch(envs, out)
	})
	if allocs != 0 {
		t.Fatalf("steady-state one-vector RunBatch allocates %.1f times per execution, want 0", allocs)
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
	out := make([]Result, BatchWidth)
	ev.RunBatchFilled(BatchWidth, out, nil)
	for gi, ci := range ev.p.code {
		if ci.in.Op == ir.OpCall && ev.bs.kinds[gi] != bkIntrinsic {
			t.Fatalf("%s runs on batch kind %d, want the intrinsic kernel", ci.in, ev.bs.kinds[gi])
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		ev.RunBatchFilled(BatchWidth, out, nil)
	})
	if allocs != 0 {
		t.Fatalf("steady-state RunBatchFilled allocates %.1f times per batch, want 0", allocs)
	}
}
