package seedrand

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// matchSeed checks that Source seeded with seed draws what math/rand's own
// source draws: n raw Uint64s (past the 607-word register's wrap when
// n > 607), then Int63, Float64, Intn and Perm through rand.Rand, on one
// Source reseeded in between, as the pools use it.
func matchSeed(t *testing.T, s *Source, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	s.Seed(seed)
	for i := 0; i < n; i++ {
		if g, w := s.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 #%d = %#x, math/rand %#x", seed, i, g, w)
		}
	}

	got, ref := rand.New(s), rand.New(rand.NewSource(0))
	got.Seed(seed)
	ref.Seed(seed)
	for i := 0; i < 8; i++ {
		if g, w := got.Int63(), ref.Int63(); g != w {
			t.Fatalf("seed %d: Int63 #%d = %d, math/rand %d", seed, i, g, w)
		}
		if g, w := got.Float64(), ref.Float64(); g != w {
			t.Fatalf("seed %d: Float64 #%d = %v, math/rand %v", seed, i, g, w)
		}
		if g, w := got.Intn(1000+i), ref.Intn(1000+i); g != w {
			t.Fatalf("seed %d: Intn #%d = %d, math/rand %d", seed, i, g, w)
		}
		if g, w := got.Perm(5+i), ref.Perm(5+i); !slices.Equal(g, w) {
			t.Fatalf("seed %d: Perm #%d = %v, math/rand %v", seed, i, g, w)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	const m = int32max
	seeds := []int64{
		0, 1, -1, m, -m, 2 * m, -2 * m, 3*m + 1, -(3*m + 1), m - 1, m + 1,
		defaultSeed, -defaultSeed, math.MinInt64, math.MaxInt64,
		math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64 / m * m,
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	var s Source
	for _, seed := range seeds {
		matchSeed(t, &s, seed, 1500)
	}
}

func TestZeroSourceIsSeedZero(t *testing.T) {
	var s Source
	want := rand.NewSource(0).(rand.Source64)
	for i := 0; i < 1300; i++ {
		if g, w := s.Uint64(), want.Uint64(); g != w {
			t.Fatalf("Uint64 #%d of the zero Source = %#x, rand.NewSource(0) %#x", i, g, w)
		}
	}
}

func FuzzSource(f *testing.F) {
	f.Add(int64(0), uint16(10))
	f.Add(int64(-1), uint16(700))
	f.Add(int64(int32max), uint16(1300))
	f.Add(int64(math.MinInt64), uint16(3))
	var s Source
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		matchSeed(t, &s, seed, int(n%4096))
	})
}

func BenchmarkSeedAndDraw3(b *testing.B) {
	var s Source
	r := rand.New(&s)
	sink := 0.0
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
		sink += r.Float64() + r.Float64() + r.Float64()
	}
	benchSink = sink
}

func BenchmarkMathRandSeedAndDraw3(b *testing.B) {
	r := rand.New(rand.NewSource(0))
	sink := 0.0
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
		sink += r.Float64() + r.Float64() + r.Float64()
	}
	benchSink = sink
}

var benchSink float64

func BenchmarkSeedAndDraw1500(b *testing.B) {
	var s Source
	sink := uint64(0)
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
		for k := 0; k < 1500; k++ {
			sink += s.Uint64()
		}
	}
	benchSinkU = sink
}

func BenchmarkMathRandSeedAndDraw1500(b *testing.B) {
	s := rand.NewSource(0).(rand.Source64)
	sink := uint64(0)
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
		for k := 0; k < 1500; k++ {
			sink += s.Uint64()
		}
	}
	benchSinkU = sink
}

var benchSinkU uint64
