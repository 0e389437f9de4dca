package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/alive"
	"repro/internal/llm"
	"repro/internal/parser"
)

// TestEngineTierKillStats pins the campaign-level wiring of the tiered
// scheduler: the engine installs a counterexample pool beside its program
// cache, refuted candidates deposit into it, and Stats aggregates per-tier
// kill counters and verify executions.
func TestEngineTierKillStats(t *testing.T) {
	pair := clampCase()
	src := parser.MustParseFunc(pair.Src)
	sim := calibratedSim(t, "GPT-4.1", src, llm.Calibration{Minus: 1, Plus: 4})
	e := New(sim, Config{Verify: alive.Options{Samples: 512, Seed: 5}})
	if e.CEPool() == nil {
		t.Fatal("engine must install a campaign counterexample pool")
	}
	refuted := 0
	for round := 0; round < 20; round++ {
		res := e.OptimizeSeq(context.Background(), src, round)
		for _, att := range res.Attempts {
			// A parsed attempt whose feedback is a counterexample was
			// refuted mid-round (the round may still end Found).
			if att.Parsed && strings.HasPrefix(att.Feedback, "Transformation doesn't verify") {
				refuted++
			}
		}
	}
	if refuted == 0 {
		t.Fatal("calibration 1/4 over 20 rounds should refute some candidates")
	}
	snap := e.stats.Snapshot()
	if k := snap.TierKills; k.Pool+k.Special+k.Random == 0 {
		t.Fatalf("refutations not attributed to any tier: %+v", k)
	}
	if snap.VerifyExecs == 0 {
		t.Fatal("verify executions not recorded")
	}
	if snap.BatchedExecs != snap.VerifyExecs {
		t.Fatalf("batched %d, verify execs %d: every verified vector runs lane-batched",
			snap.BatchedExecs, snap.VerifyExecs)
	}
	if e.CEPool().Stats().Deposits == 0 {
		t.Fatal("refuting inputs not deposited into the campaign pool")
	}
	// The generalize sweep gets its own campaign pool: sweep deposits
	// include vectors rescaled from other widths, which are not in any
	// window's generated sequence — sharing them with the verify stage
	// would make verdicts scheduling-dependent.
	if e.cfg.Generalize.Verify.Pool == nil {
		t.Fatal("generalize sweep must have a campaign pool")
	}
	if e.cfg.Generalize.Verify.Pool == e.cfg.Verify.Pool {
		t.Fatal("generalize sweep must not share the verify stage's pool")
	}
}
