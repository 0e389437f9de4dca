// Package memo is a bounded, concurrency-safe memo table with clock
// (second-chance) eviction. The interpreter's program cache, the simulated
// model's window table and the engine's preprocess table are all one.
package memo

import "sync"

// Map holds at most its capacity of entries. Once full, inserting a new
// key evicts an old one chosen by the clock policy: each hit marks its
// entry referenced, and the clock hand sweeps past referenced entries
// (clearing the mark) until it finds an unreferenced victim. A memo only
// ever stores values that can be recomputed from their key, so eviction
// costs a recomputation, never a different answer.
type Map[K comparable, V any] struct {
	mu   sync.Mutex
	cap  int
	m    map[K]*entry[V]
	ring []K // keys in slot order for the clock sweep
	hand int
}

type entry[V any] struct {
	v   V
	ref bool
}

// New returns an empty map holding at most capacity entries (at least 1).
func New[K comparable, V any](capacity int) *Map[K, V] {
	return &Map[K, V]{cap: max(capacity, 1), m: make(map[K]*entry[V])}
}

// Get returns the value stored under k and marks it referenced.
func (c *Map[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	e.ref = true
	return e.v, true
}

// Add stores v under k and returns it. If k is already present — another
// goroutine computed it first — Add keeps and returns the stored value, so
// racing computations agree on one. evicted reports whether an entry was
// dropped to make room.
func (c *Map[K, V]) Add(k K, v V) (stored V, evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		return e.v, false
	}
	if len(c.ring) < c.cap {
		c.m[k] = &entry[V]{v: v}
		c.ring = append(c.ring, k)
		return v, false
	}
	for {
		vk := c.ring[c.hand]
		if e := c.m[vk]; e.ref {
			e.ref = false
			c.hand = (c.hand + 1) % len(c.ring)
			continue
		}
		delete(c.m, vk)
		c.m[k] = &entry[V]{v: v}
		c.ring[c.hand] = k
		c.hand = (c.hand + 1) % len(c.ring)
		return v, true
	}
}

// Len reports how many entries the map holds.
func (c *Map[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Cap reports the map's capacity.
func (c *Map[K, V]) Cap() int { return c.cap }

// Range calls f on every entry, in no particular order, under the lock; f
// must not call back into the map.
func (c *Map[K, V]) Range(f func(K, V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.m {
		f(k, e.v)
	}
}
