package experiments

import (
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestComparePerf pins the CI regression guard: ns/op past its tolerance,
// allocs/op past its tolerance (with the small-count slack), unmatched
// workloads ignored, tier-kill counters compared exactly.
func TestComparePerf(t *testing.T) {
	ref := &PerfSnapshot{
		Benches: []PerfBench{
			{Name: "fast", NsPerOp: 100, AllocsPerOp: 50},
			{Name: "lean", NsPerOp: 100, AllocsPerOp: 2},
			{Name: "retired", NsPerOp: 100, AllocsPerOp: 10},
		},
		TierKills: engine.TierKills{Pool: 1, Special: 1, Random: 1},
	}
	cur := &PerfSnapshot{
		Benches: []PerfBench{
			{Name: "fast", NsPerOp: 150, AllocsPerOp: 80},        // within both tolerances
			{Name: "lean", NsPerOp: 90, AllocsPerOp: 8},          // 4x allocs but inside the +8 slack
			{Name: "brandnew", NsPerOp: 9999, AllocsPerOp: 9999}, // no reference: ignored
		},
		TierKills: engine.TierKills{Pool: 1, Special: 1, Random: 1},
	}
	if regs := ComparePerf(cur, ref, 2.0, 2.0); len(regs) != 0 {
		t.Fatalf("clean snapshot flagged: %v", regs)
	}

	cur.Benches[0].NsPerOp = 250 // 2.5x > 2.0x
	regs := ComparePerf(cur, ref, 2.0, 2.0)
	if len(regs) != 1 || !strings.Contains(regs[0], "ns/op") {
		t.Fatalf("ns/op regression not flagged: %v", regs)
	}

	cur.Benches[0].NsPerOp = 100
	cur.Benches[0].AllocsPerOp = 120 // > 50*2 + 8
	regs = ComparePerf(cur, ref, 2.0, 2.0)
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Fatalf("allocs/op regression not flagged: %v", regs)
	}

	cur.Benches[0].AllocsPerOp = 50
	cur.TierKills.Pool = 0 // counterexample sharing broke
	regs = ComparePerf(cur, ref, 2.0, 2.0)
	if len(regs) != 1 || !strings.Contains(regs[0], "tier_kills") {
		t.Fatalf("tier-kill drift not flagged: %v", regs)
	}
	cur.TierKills.Pool = 1

	// The ingest-speedup floor only arms once the reference records one.
	cur.IngestSpeedup = 3
	if regs := ComparePerf(cur, ref, 2.0, 2.0); len(regs) != 0 {
		t.Fatalf("unarmed ingest floor flagged: %v", regs)
	}
	ref.IngestSpeedup = 20
	regs = ComparePerf(cur, ref, 2.0, 2.0)
	if len(regs) != 1 || !strings.Contains(regs[0], "ingest_speedup") {
		t.Fatalf("ingest speedup collapse not flagged: %v", regs)
	}
	cur.IngestSpeedup = minIngestSpeedup + 1 // above the floor, below the reference: fine
	if regs := ComparePerf(cur, ref, 2.0, 2.0); len(regs) != 0 {
		t.Fatalf("above-floor speedup flagged: %v", regs)
	}
}
