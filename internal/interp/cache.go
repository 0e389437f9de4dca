package interp

import (
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
// once, however many workers ask at the same time. It is safe for concurrent
// use. Like the engine's verify memo it treats ir.Hash as identity.
//
// The cache is a memo.Map: once it holds its capacity of programs, a new
// one evicts an old one by the clock policy. Eviction never changes
// semantics; an evicted program is simply recompiled on next use.
//
// A nil *Cache is valid and simply compiles on every call, so callers can
// thread an optional cache without nil checks.
type Cache struct {
	m *memo.Map[uint64, *Program]
}

// NewCache returns an empty program cache with the default capacity.
func NewCache() *Cache { return &Cache{m: memo.New[uint64, *Program](DefaultCacheCap)} }

// Program returns the compiled program for fn, compiling it on first use.
func (c *Cache) Program(fn *ir.Func) *Program {
	if c == nil {
		return Compile(fn)
	}
	p, _ := c.m.Do(ir.Hash(fn), func() *Program { return Compile(fn) })
	return p
}

// Len reports how many programs the cache holds.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return c.m.Len()
}
