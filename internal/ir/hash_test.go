package ir_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/parser"
)

// stringKeyHash is the original ir.Hash, which built each key fragment as a
// string and numbered values through a per-call map. ir.Hash streams the
// same bytes and must return the same value for every function.
func stringKeyHash(f *ir.Func) uint64 {
	h := fnv.New64a()
	idx := make(map[ir.Value]int)
	n := 0
	for _, p := range f.Params {
		idx[p] = n
		n++
		io.WriteString(h, "p:"+p.Ty.String()+";")
	}
	io.WriteString(h, "r:"+f.Ret.String()+";")
	key := func(v ir.Value) string {
		if i, ok := idx[v]; ok {
			return "v" + strconv.Itoa(i)
		}
		return "c:" + v.Type().String() + " " + v.Ident()
	}
	for _, b := range f.Blocks {
		io.WriteString(h, "b;")
		for _, in := range b.Instrs {
			io.WriteString(h, in.Op.Name())
			io.WriteString(h, "/"+strconv.FormatUint(uint64(in.Flags), 16))
			io.WriteString(h, "/"+in.Ty.String())
			if in.Op == ir.OpICmp {
				io.WriteString(h, "/"+in.IPredV.Name())
			}
			if in.Op == ir.OpFCmp {
				io.WriteString(h, "/"+in.FPredV.Name())
			}
			if in.Callee != "" {
				io.WriteString(h, "/@"+in.Callee)
			}
			if in.ElemTy != nil {
				io.WriteString(h, "/e"+in.ElemTy.String())
			}
			for _, a := range in.Args {
				io.WriteString(h, ","+key(a))
			}
			for _, l := range in.Labels {
				io.WriteString(h, ",%"+l)
			}
			io.WriteString(h, ";")
			if in.HasResult() {
				idx[in] = n
				n++
			}
		}
	}
	return h.Sum64()
}

// chainFunc builds a function whose n instructions each use the previous
// result, an early value and a constant, so operand numbers run past the
// inline numbering.
func chainFunc(n int) *ir.Func {
	var sb strings.Builder
	sb.WriteString("define i32 @chain(i32 %a, i32 %b) {\n  %v0 = add i32 %a, %b\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, "  %%v%d = xor i32 %%v%d, %%v%d\n", i, i-1, i/3)
		fmt.Fprintf(&sb, "  %%w%d = mul nsw i32 %%v%d, %d\n", i, i, i-7)
	}
	fmt.Fprintf(&sb, "  ret i32 %%w%d\n}", n-1)
	return parser.MustParseFunc(sb.String())
}

// TestHashMatchesStringKey compares ir.Hash with the string-building
// original on every function of two synthetic corpora and on functions
// with more numbered values than the inline numbering holds.
func TestHashMatchesStringKey(t *testing.T) {
	check := func(f *ir.Func) {
		t.Helper()
		if got, want := ir.Hash(f), stringKeyHash(f); got != want {
			t.Fatalf("%s: ir.Hash = %016x, string key hash %016x", f.Name, got, want)
		}
	}
	for _, seed := range []uint64{1, 2} {
		for _, p := range corpus.Generate(corpus.Options{Seed: seed}) {
			for _, m := range p.Modules {
				for _, f := range m.Funcs {
					check(f)
				}
			}
		}
	}
	for _, n := range []int{10, 16, 17, 40} {
		check(chainFunc(n))
	}
}

// TestHashDoesNotAllocate pins the streaming contract: hashing a window
// allocates nothing.
func TestHashDoesNotAllocate(t *testing.T) {
	f := chainFunc(12)
	if allocs := testing.AllocsPerRun(100, func() { ir.Hash(f) }); allocs != 0 {
		t.Fatalf("ir.Hash allocates %.1f times per call, want 0", allocs)
	}
}
