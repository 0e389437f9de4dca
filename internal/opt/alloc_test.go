package opt

import (
	"runtime"
	"testing"

	"repro/internal/parser"
)

var raceEnabled bool

// TestRunUnchangedSteadyStateAllocs pins copy-on-write: optimizing a window
// no rule changes, with a prebuilt RuleSet, returns the input and builds no
// function. What is left is the probe's own state (the transform and DCE's
// liveness set): the hit map is allocated at the first hit and the
// canonicalization scratch is pooled. A clone of this window alone
// allocates 50 times and about 3.6 KB.
func TestRunUnchangedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by the race runtime")
	}
	f := parser.MustParseFunc(dispatchSrc)
	opts := Options{Rules: FullRuleSet()}
	if g := Run(f, opts); g != f {
		t.Fatalf("window changed under the full rule set:\n%s", g)
	}
	allocs := testing.AllocsPerRun(200, func() { Run(f, opts) })
	const runs = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Run(f, opts)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocs, %d bytes per run", allocs, bytes)
	// Measured 5 allocations and 457 bytes (go1.24, linux/amd64).
	const maxAllocs, maxBytes = 6, 560
	if allocs > maxAllocs {
		t.Errorf("Run on an unchanged window allocates %.0f times, want <= %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("Run on an unchanged window allocates %d bytes, want <= %d", bytes, maxBytes)
	}
}
