// Package seedrand provides Source, a math/rand source whose draws equal
// rand.NewSource's bit for bit but whose Seed costs O(1).
//
// math/rand's source is an additive lagged Fibonacci generator over a
// 607-word register. Its Seed fills every word from a Lehmer generator
// (x_{n+1} = 48271·x_n mod 2^31−1, three steps per word after 20 warm-up
// steps) and XORs in a fixed table, about 1,900 modular steps in all,
// however few numbers the caller then draws. Word i only depends on the
// seed through x_{21+3i}, x_{22+3i} and x_{23+3i}, and
// x_n = seed·48271^n mod 2^31−1, so Source computes a word on its first
// read from a table of powers built once, and Seed only resets the cursor
// and a draw count.
package seedrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1 // the Lehmer modulus, a prime
	lehmerA  = 48271
	// defaultSeed replaces a seed ≡ 0 (mod int32max), which the Lehmer
	// generator cannot use, as math/rand does.
	defaultSeed = 89482311
)

// firstPow[i] is 48271^(21+3i) mod int32max, the multiplier of the first
// of the three Lehmer values word i is built from.
var firstPow = func() (p [rngLen]uint64) {
	x := uint64(1)
	for n := 1; n <= 21; n++ {
		x = x * lehmerA % int32max
	}
	for i := range p {
		p[i] = x
		for k := 0; k < 3; k++ {
			x = x * lehmerA % int32max
		}
	}
	return p
}()

// Source is a rand.Source64 that yields exactly the sequence of
// rand.NewSource(seed) for the seed last passed to Seed; the zero Source
// yields that of rand.NewSource(0). It is not safe for concurrent use.
type Source struct {
	seed uint64 // in [1, int32max), or 0 for defaultSeed
	tap  int    // index into vec; the feed index is rngTap below it
	// n counts draws since Seed, up to rngLen-rngTap. Tap and feed step
	// down together from 0 and rngLen-rngTap, so draw n+1 reads a word
	// no earlier draw has read at the feed index while n < rngLen-rngTap,
	// and at the tap index while n < rngTap; every other read finds a
	// word an earlier draw left in vec.
	n   int
	vec [rngLen]int64
}

var _ rand.Source64 = (*Source)(nil)

// Seed puts s in the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	s.seed = uint64(seed)
	s.tap = 0
	s.n = 0
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	feed := s.tap + rngLen - rngTap
	if feed >= rngLen {
		feed -= rngLen
	}
	if s.n < rngLen-rngTap {
		s.vec[feed] = s.seeded(feed)
		if s.n < rngTap {
			s.vec[s.tap] = s.seeded(s.tap)
		}
		s.n++
	}
	x := s.vec[feed] + s.vec[s.tap]
	s.vec[feed] = x
	return uint64(x)
}

// seeded returns word i of the register as math/rand's Seed builds it:
// the Lehmer values x_{21+3i}, x_{22+3i} and x_{23+3i}, shifted into one
// word and XORed with rngCooked[i].
func (s *Source) seeded(i int) int64 {
	seed := s.seed
	if seed == 0 {
		seed = defaultSeed
	}
	x0 := seed * firstPow[i] % int32max
	x1 := x0 * lehmerA % int32max
	x2 := x1 * lehmerA % int32max
	return int64(x0)<<40 ^ int64(x1)<<20 ^ int64(x2) ^ rngCooked[i]
}
