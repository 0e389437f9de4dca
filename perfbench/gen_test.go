package main

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/parser"
)

func TestGenerateWindowsDistinctAndSeeded(t *testing.T) {
	const n = 3000
	a := generateWindows(7, n)
	b := generateWindows(7, n)
	c := generateWindows(8, n)
	if len(a) != n {
		t.Fatalf("got %d windows, want %d", len(a), n)
	}
	seen := make(map[uint64]bool, n)
	planted := 0
	for i, w := range a {
		if seen[w.hash] {
			t.Fatalf("window %d repeats hash %016x", i, w.hash)
		}
		seen[w.hash] = true
		// The daemon keys a window by the hash of the text it parses.
		if p, err := parser.ParseFunc(w.text); err != nil || ir.Hash(p) != w.hash {
			t.Fatalf("window %d: parsed text does not hash to %016x (%v)", i, w.hash, err)
		}
		if w != b[i] {
			t.Fatalf("window %d differs between runs of the same seed", i)
		}
		if w.planted {
			planted++
		}
	}
	if planted != n/plantEvery {
		t.Errorf("planted %d of %d windows, want %d", planted, n, n/plantEvery)
	}
	same := 0
	for i := range a {
		if a[i].hash == c[i].hash {
			same++
		}
	}
	if same > n/100 {
		t.Errorf("seeds 7 and 8 share %d of %d windows", same, n)
	}
}
