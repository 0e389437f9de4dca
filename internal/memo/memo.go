// Package memo is a bounded, concurrency-safe memo table with clock
// (second-chance) eviction and one singleflight entry point, Do. The
// interpreter's program cache, the simulated model's window table, the
// engine's preprocess, verify and learn tables, the counterexample pool's
// window table and each of its windows are all one.
package memo

import "sync"

// Map holds at most its capacity of entries. Once full, inserting a new
// key evicts an old one chosen by the clock policy: each hit marks its
// entry referenced, and the clock hand sweeps past referenced entries
// (clearing the mark) until it finds an unreferenced victim. The hand
// never picks an entry whose computation is still running. A memo only
// ever stores values that can be recomputed from their key, so eviction
// costs a recomputation, never a different answer.
type Map[K comparable, V any] struct {
	mu   sync.Mutex
	cap  int
	m    map[K]*entry[K, V]
	ring []*entry[K, V] // entries in slot order for the clock sweep
	hand int
}

type entry[K comparable, V any] struct {
	key      K
	v        V
	panicked any            // f's panic value, re-raised to every caller
	ref      bool           // clock reference bit; guarded by Map.mu
	busy     bool           // f is still running; guarded by Map.mu
	done     sync.WaitGroup // released when f returns or panics
}

// New returns an empty map holding at most capacity entries (at least 1).
func New[K comparable, V any](capacity int) *Map[K, V] {
	return &Map[K, V]{cap: max(capacity, 1), m: make(map[K]*entry[K, V])}
}

// Do returns the value stored under k, computing it with f on first use.
// Concurrent callers of one key wait for a single computation and share its
// value; hit reports whether k was already present. A panic in f is parked
// on the entry and re-raised to every waiter and every later caller, since
// a zero value could read as an answer. When every stored entry is still
// computing, f's value is returned without being stored.
func (c *Map[K, V]) Do(k K, f func() V) (v V, hit bool) {
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		e.ref = true
		c.mu.Unlock()
		e.done.Wait()
		if e.panicked != nil {
			panic(e.panicked)
		}
		return e.v, true
	}
	e := &entry[K, V]{key: k, busy: true}
	if !c.insert(e) {
		c.mu.Unlock()
		return f(), false
	}
	e.done.Add(1)
	c.mu.Unlock()
	defer func() {
		pv := recover()
		c.mu.Lock()
		e.busy, e.panicked = false, pv
		c.mu.Unlock()
		e.done.Done()
		if pv != nil {
			panic(pv)
		}
	}()
	e.v = f()
	return e.v, false
}

// insert stores e, evicting by clock once the map is full. It reports false,
// storing nothing, when every entry is still computing. Caller holds mu.
func (c *Map[K, V]) insert(e *entry[K, V]) bool {
	if len(c.ring) < c.cap {
		c.ring = append(c.ring, e)
		c.m[e.key] = e
		return true
	}
	// Two turns of the hand clear every reference bit and then reach any
	// entry that is not computing.
	for range 2 * len(c.ring) {
		i, old := c.hand, c.ring[c.hand]
		c.hand = (c.hand + 1) % len(c.ring)
		switch {
		case old.busy:
		case old.ref:
			old.ref = false
		default:
			delete(c.m, old.key)
			c.ring[i], c.m[e.key] = e, e
			return true
		}
	}
	return false
}

// Get returns the value computed under k and marks it referenced. An entry
// still computing, or whose computation panicked, reads as absent.
func (c *Map[K, V]) Get(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.m[k]; e != nil && !e.busy && e.panicked == nil {
		e.ref = true
		return e.v, true
	}
	return v, false
}

// Peek returns what Get would, without marking the entry.
func (c *Map[K, V]) Peek(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.m[k]; e != nil && !e.busy && e.panicked == nil {
		return e.v, true
	}
	return v, false
}

// Has reports whether Get would find k, without marking the entry.
func (c *Map[K, V]) Has(k K) bool {
	_, ok := c.Peek(k)
	return ok
}

// Len reports how many entries the map holds.
func (c *Map[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Range calls f on every computed entry in slot order, under the lock; f
// must not call back into the map.
func (c *Map[K, V]) Range(f func(K, V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.ring {
		if !e.busy && e.panicked == nil {
			f(e.key, e.v)
		}
	}
}
