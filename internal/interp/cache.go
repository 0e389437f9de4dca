package interp

import (
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/memo"
)

// DefaultCacheCap is the program capacity of NewCache. A compiled window is
// a few KB, so the default bounds a campaign-long cache to a few MB while
// still covering far more distinct windows than a corpus run touches
// between repeats.
const DefaultCacheCap = 4096

// Cache memoizes compiled Programs by structural function hash (ir.Hash),
// so repeated verifications of the same window — engine verify stages across
// rounds and workers, generalize width sweeps re-instantiating the same
// abstraction, CEGIS loops revisiting a candidate — compile each function
// once. It is safe for concurrent use. Like the engine's verification cache
// it treats ir.Hash as identity.
//
// The cache is bounded: once it holds its capacity of programs, inserting a
// new one evicts an old one by the clock policy of memo.Map. Eviction never
// changes semantics; an evicted program is simply recompiled on next use.
// Stats reports hit/miss/eviction counters.
//
// A nil *Cache is valid and simply compiles on every call, so callers can
// thread an optional cache without nil checks.
type Cache struct {
	m *memo.Map[uint64, *Program]

	hits, misses, evictions atomic.Int64
}

// CacheStats is a snapshot of a cache's counters.
type CacheStats struct {
	Len, Cap                int
	Hits, Misses, Evictions int64
}

// NewCache returns an empty program cache with the default capacity.
func NewCache() *Cache { return NewCacheSize(DefaultCacheCap) }

// NewCacheSize returns an empty program cache holding at most capacity
// programs (values below 1 fall back to the default).
func NewCacheSize(capacity int) *Cache {
	if capacity < 1 {
		capacity = DefaultCacheCap
	}
	return &Cache{m: memo.New[uint64, *Program](capacity)}
}

// Program returns the compiled program for fn, compiling it on first use.
func (c *Cache) Program(fn *ir.Func) *Program {
	if c == nil {
		return Compile(fn)
	}
	h := ir.Hash(fn)
	if p, ok := c.m.Get(h); ok {
		c.hits.Add(1)
		return p
	}
	c.misses.Add(1)
	// Compile outside the lock: compilation is pure, so a racing duplicate
	// is wasted work at worst, and slow compiles never serialize readers.
	p, evicted := c.m.Add(h, Compile(fn))
	if evicted {
		c.evictions.Add(1)
	}
	return p
}

// Len reports how many programs the cache holds.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return c.m.Len()
}

// Stats returns a snapshot of the cache's counters. A nil cache reports
// zeros.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{Len: c.m.Len(), Cap: c.m.Cap(),
		Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load()}
}
