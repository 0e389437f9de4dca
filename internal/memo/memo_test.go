package memo

import (
	"sync"
	"testing"
)

// TestAddKeepsFirstValue checks that a second Add of a key returns the
// value already stored, as racing computations rely on.
func TestAddKeepsFirstValue(t *testing.T) {
	m := New[string, int](4)
	if v, ev := m.Add("a", 1); v != 1 || ev {
		t.Fatalf("first Add = %d, %v", v, ev)
	}
	if v, ev := m.Add("a", 2); v != 1 || ev {
		t.Fatalf("second Add = %d, %v, want the stored 1", v, ev)
	}
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
}

// TestClockEvictsUnreferenced fills a map, touches some entries, and checks
// that inserts beyond the capacity evict the untouched ones first.
func TestClockEvictsUnreferenced(t *testing.T) {
	m := New[int, int](4)
	for k := 0; k < 4; k++ {
		m.Add(k, k)
	}
	m.Get(0)
	m.Get(2)
	for k := 4; k < 6; k++ {
		if _, ev := m.Add(k, k); !ev {
			t.Fatalf("Add(%d) into a full map evicted nothing", k)
		}
	}
	if m.Len() != 4 || m.Cap() != 4 {
		t.Fatalf("len %d cap %d, want 4 and 4", m.Len(), m.Cap())
	}
	for k, want := range map[int]bool{0: true, 1: false, 2: true, 3: false, 4: true, 5: true} {
		if _, ok := m.Get(k); ok != want {
			t.Errorf("key %d present = %v, want %v", k, ok, want)
		}
	}
}

// TestConcurrentUse hammers one small map from several goroutines (run
// under -race).
func TestConcurrentUse(t *testing.T) {
	m := New[int, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 20
				if v, ok := m.Get(k); ok && v != k*k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
				if v, _ := m.Add(k, k*k); v != k*k {
					t.Errorf("Add(%d) = %d", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Len() > 8 {
		t.Fatalf("map holds %d entries, cap 8", m.Len())
	}
}
