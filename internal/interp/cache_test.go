package interp

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/memo"
	"repro/internal/parser"
)

func cacheFunc(i int) string {
	return fmt.Sprintf(`define i8 @f%d(i8 %%x) { %%r = add i8 %%x, %d ret i8 %%r }`, i, i%250)
}

// TestCacheBoundedEviction pins the bound: the cache never exceeds its
// capacity, a hit returns the stored program, and an evicted program simply
// recompiles (a later lookup builds a fresh one, not an error).
func TestCacheBoundedEviction(t *testing.T) {
	c := &Cache{m: memo.New[uint64, *Program](4)}
	fns := make([]*ir.Func, 10)
	first := make([]*Program, 10)
	for i := range fns {
		fns[i] = parser.MustParseFunc(cacheFunc(i))
		first[i] = c.Program(fns[i])
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d programs, cap 4", c.Len())
	}
	if p := c.Program(fns[9]); p != first[9] {
		t.Fatal("a lookup of a held function should hit the same program")
	}
	p0 := c.Program(fns[0])
	if p0 == first[0] || p0 == nil {
		t.Fatal("an evicted function should recompile to a fresh program")
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d programs after the recompile, cap 4", c.Len())
	}
}

// TestCacheNilSemantics keeps the nil-cache contract: a nil *Cache compiles
// per call and holds nothing.
func TestCacheNilSemantics(t *testing.T) {
	var c *Cache
	f := parser.MustParseFunc(cacheFunc(1))
	if c.Program(f) == nil {
		t.Fatal("nil cache must still compile")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache must hold nothing")
	}
}

// TestCacheConcurrent hammers one bounded cache from many goroutines (run
// under -race in CI): the cache stays within its bound, and goroutines that
// ask for the same function at once while it is held share one program.
func TestCacheConcurrent(t *testing.T) {
	c := &Cache{m: memo.New[uint64, *Program](8)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := parser.MustParseFunc(cacheFunc((g + i) % 20))
				if c.Program(f) == nil {
					t.Error("nil program")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("cache exceeded cap: %d", c.Len())
	}
	shared := NewCache()
	f := parser.MustParseFunc(cacheFunc(1))
	progs := make([]*Program, 8)
	for g := range progs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			progs[g] = shared.Program(f)
		}(g)
	}
	wg.Wait()
	for g, p := range progs {
		if p != progs[0] {
			t.Fatalf("goroutine %d got its own program", g)
		}
	}
}
