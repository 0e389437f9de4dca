package parser

import (
	"runtime"
	"testing"
)

var raceEnabled bool

// TestParseSteadyStateAllocs bounds what parsing a six-instruction window
// allocates: the lexer hands out tokens on demand and quotes a source line
// only for a diagnostic, so what is left is the function the parse returns
// and the per-function name table.
func TestParseSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by the race runtime")
	}
	src := paperFuncs["fig3d"]
	if n := MustParseFunc(src).NumInstrs(false); n != 6 {
		t.Fatalf("window has %d instructions, want 6", n)
	}
	allocs := testing.AllocsPerRun(200, func() { MustParseFunc(src) })
	const runs = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		MustParseFunc(src)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocs, %d bytes per parse", allocs, bytes)
	// Measured 44 allocations and 2232 bytes (go1.24, linux/amd64); a
	// token slice or a line table would add about 12 KB.
	const maxAllocs, maxBytes = 50, 2560
	if allocs > maxAllocs {
		t.Errorf("ParseFunc allocates %.0f times per window, want <= %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("ParseFunc allocates %d bytes per window, want <= %d", bytes, maxBytes)
	}
}
