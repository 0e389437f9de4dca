package memo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// value returns a Do callback that yields v.
func value(v int) func() int { return func() int { return v } }

// TestDoKeepsFirstValue checks that a second Do of a key returns the value
// already stored without calling its function.
func TestDoKeepsFirstValue(t *testing.T) {
	m := New[string, int](4)
	if v, hit := m.Do("a", value(1)); v != 1 || hit {
		t.Fatalf("first Do = %d, %v", v, hit)
	}
	if v, hit := m.Do("a", func() int { t.Fatal("f ran on a hit"); return 0 }); v != 1 || !hit {
		t.Fatalf("second Do = %d, %v, want the stored 1", v, hit)
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
		m.Do(k, value(k))
	}
	m.Get(0)
	m.Do(2, value(-1))
	for k := 4; k < 6; k++ {
		m.Do(k, value(k))
	}
	if m.Len() != 4 {
		t.Fatalf("len %d, want 4", m.Len())
	}
	for k, want := range map[int]bool{0: true, 1: false, 2: true, 3: false, 4: true, 5: true} {
		if m.Has(k) != want {
			t.Errorf("key %d present = %v, want %v", k, !want, want)
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
				if v, _ := m.Do(k, value(k*k)); v != k*k {
					t.Errorf("Do(%d) = %d", k, v)
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

// TestDoComputesOnce starts 16 goroutines on one key at once: f runs once,
// every caller gets its value, and exactly one caller reports a miss. Run
// it with -race.
func TestDoComputesOnce(t *testing.T) {
	m := New[string, *int](4)
	var calls, misses atomic.Int32
	start := make(chan struct{})
	got := make([]*int, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			v, hit := m.Do("k", func() *int {
				calls.Add(1)
				n := 42
				return &n
			})
			if !hit {
				misses.Add(1)
			}
			got[g] = v
		}(g)
	}
	close(start)
	wg.Wait()
	if calls.Load() != 1 || misses.Load() != 1 {
		t.Fatalf("f ran %d times, %d misses; want 1 and 1", calls.Load(), misses.Load())
	}
	for g, v := range got {
		if v != got[0] || *v != 42 {
			t.Fatalf("goroutine %d got %p, want the shared %p", g, v, got[0])
		}
	}
}

// TestDoPanicReachesEveryCaller panics inside f while other goroutines wait
// on the key: every waiter and every later caller re-raises the panic, and
// Get and Has read the key as absent.
func TestDoPanicReachesEveryCaller(t *testing.T) {
	m := New[int, int](4)
	release := make(chan struct{})
	computing := make(chan struct{})
	catch := func(f func()) (pv any) {
		defer func() { pv = recover() }()
		f()
		return nil
	}
	var wg sync.WaitGroup
	panics := make([]any, 5)
	wg.Add(1)
	go func() {
		defer wg.Done()
		panics[0] = catch(func() {
			m.Do(1, func() int { close(computing); <-release; panic("boom") })
		})
	}()
	<-computing
	for g := 1; g < len(panics); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			panics[g] = catch(func() { m.Do(1, value(7)) })
		}(g)
	}
	time.Sleep(10 * time.Millisecond) // let the waiters block on the key
	close(release)
	wg.Wait()
	later := catch(func() { m.Do(1, value(7)) })
	for g, pv := range append(panics, later) {
		if pv != "boom" {
			t.Errorf("caller %d recovered %v, want boom", g, pv)
		}
	}
	if _, ok := m.Get(1); ok || m.Has(1) {
		t.Error("a panicked key reads as present")
	}
}

// TestInFlightSurvivesEviction keeps one computation running while more
// keys than the capacity pass through the map: the clock never picks the
// running entry, and its waiters get its value.
func TestInFlightSurvivesEviction(t *testing.T) {
	m := New[int, int](2)
	release := make(chan struct{})
	computing := make(chan struct{})
	done := make(chan int)
	go func() {
		v, _ := m.Do(0, func() int { close(computing); <-release; return 100 })
		done <- v
	}()
	<-computing
	for k := 1; k <= 5; k++ {
		m.Do(k, value(k))
	}
	close(release)
	if v := <-done; v != 100 {
		t.Fatalf("running Do returned %d", v)
	}
	if v, hit := m.Do(0, value(-1)); !hit || v != 100 {
		t.Fatalf("Do(0) after 5 inserts = %d, %v; want the kept 100", v, hit)
	}
}

// TestDoAllComputingStoresNothing fills a map with running computations: a
// new key is computed but not stored, since the clock may evict none of
// them.
func TestDoAllComputingStoresNothing(t *testing.T) {
	m := New[int, int](1)
	release := make(chan struct{})
	computing := make(chan struct{})
	done := make(chan struct{})
	go func() {
		m.Do(0, func() int { close(computing); <-release; return 0 })
		close(done)
	}()
	<-computing
	if v, hit := m.Do(1, value(1)); v != 1 || hit {
		t.Fatalf("Do(1) = %d, %v", v, hit)
	}
	close(release)
	<-done
	if m.Has(1) || !m.Has(0) {
		t.Fatal("the computed-through key was stored, or the running one lost")
	}
}

// TestRangeWalksSlotOrder checks that Range visits entries in slot order: a
// key that replaces an evicted one takes its slot.
func TestRangeWalksSlotOrder(t *testing.T) {
	m := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		m.Do(k, value(i))
	}
	m.Get("a")
	m.Do("d", value(3)) // the clock spares a and takes b's slot
	var got string
	m.Range(func(k string, v int) { got += fmt.Sprintf("%s%d ", k, v) })
	if got != "a0 d3 c2 " {
		t.Fatalf("Range order %q, want slot order %q", got, "a0 d3 c2 ")
	}
}

// TestHasDoesNotMark checks that Has and Peek, unlike Get, leave the
// reference bit alone: an entry only ever asked about with them is the next
// victim.
func TestHasDoesNotMark(t *testing.T) {
	m := New[int, int](2)
	m.Do(0, value(0))
	m.Do(1, value(1))
	m.Get(1)
	if !m.Has(0) {
		t.Fatal("Has(0) = false on a held key")
	}
	if v, ok := m.Peek(0); !ok || v != 0 {
		t.Fatalf("Peek(0) = %d, %v on a held key", v, ok)
	}
	m.Do(2, value(2))
	if m.Has(0) || !m.Has(1) || !m.Has(2) {
		t.Fatalf("after the sweep: has 0=%v 1=%v 2=%v; want 0 evicted", m.Has(0), m.Has(1), m.Has(2))
	}
}

// TestDoHitSteadyStateAllocs pins the cost of a warm hit: Do finds the key
// and returns its value without allocating.
func TestDoHitSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := New[string, int](4)
	f := value(5)
	m.Do("k", f)
	if n := testing.AllocsPerRun(100, func() { m.Do("k", f) }); n != 0 {
		t.Fatalf("warm Do allocates %.1f times, want 0", n)
	}
}

// raceEnabled is set by race_enabled_test.go under the race detector.
var raceEnabled bool
