package llm

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

var raceEnabled bool

// TestSimRNGMatchesFNVKey pins the simulator's draws to their historic
// definition: a math/rand source seeded with the FNV-1a digest of
// fmt.Sprintf("%s|%d|%d|%d", profile, seed, hash, round).
func TestSimRNGMatchesFNVKey(t *testing.T) {
	for _, model := range []string{"GPT-4.1", "Gemini2.0T", "o4-mini"} {
		for _, seed := range []uint64{0, 1, 501, math.MaxUint64} {
			sim := NewSim(model, seed)
			for _, h := range []uint64{0, 42, 0x9e3779b97f4a7c15, math.MaxUint64} {
				for _, round := range []int{-1, 0, 3, 17, math.MinInt} {
					f := fnv.New64a()
					fmt.Fprintf(f, "%s|%d|%d|%d", sim.prof.Name, seed, h, round)
					want := rand.New(rand.NewSource(int64(f.Sum64())))
					got := sim.rng(h, round)
					for i := 0; i < 4; i++ {
						if g, w := got.Float64(), want.Float64(); g != w {
							t.Fatalf("%s seed %d hash %#x round %d: draw %d = %v, want %v",
								model, seed, h, round, i, g, w)
						}
					}
					if g, w := got.Perm(5), want.Perm(5); fmt.Sprint(g) != fmt.Sprint(w) {
						t.Fatalf("%s seed %d hash %#x round %d: Perm = %v, want %v", model, seed, h, round, g, w)
					}
					rngPool.Put(got)
				}
			}
		}
	}
}

// TestSimRNGSteadyStateAllocs pins the per-response seeding cost: a warm
// Sim.rng builds its key on the stack and seeds a pooled source in O(1),
// so taking one and drawing a response's three numbers allocates nothing.
func TestSimRNGSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by the race runtime")
	}
	sim := NewSim("GPT-4.1", 501)
	sink := 0.0
	allocs := testing.AllocsPerRun(500, func() {
		r := sim.rng(0x9e3779b97f4a7c15, 3)
		sink += r.Float64() + r.Float64() + r.Float64()
		rngPool.Put(r)
	})
	if allocs != 0 {
		t.Errorf("Sim.rng plus three draws allocates %.0f times, want 0", allocs)
	}
	_ = sink
}
