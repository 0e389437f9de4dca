package interp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/parser"
)

// fuzzBytes reads a fuzz input one decision at a time; past its end the
// decisions come from a xorshift generator seeded by the input's length,
// so short inputs still decode into varied programs.
type fuzzBytes struct {
	data []byte
	s    uint64
}

func (b *fuzzBytes) next(n int) int {
	if len(b.data) > 0 {
		v := int(b.data[0])
		b.data = b.data[1:]
		return v % n
	}
	b.s ^= b.s << 13
	b.s ^= b.s >> 7
	b.s ^= b.s << 17
	return int((b.s >> 8) % uint64(n))
}

// genPackable decodes data into a straight-line scalar-integer function at
// i1/i4/i8/i16, with casts to and from i32/i64: binaries with their poison
// flags (division included), shifts by in- and out-of-range constants,
// icmp, select, freeze, integer casts and the integer intrinsics, over
// parameters, earlier values and literals (poison among them). Every
// function it returns is packable except through a rare poison flag
// operand, which it never emits.
func genPackable(data []byte) string {
	b := fuzzBytes{data: data, s: uint64(len(data))*0x9E3779B97F4A7C15 + 1}
	base := []int{1, 4, 8, 16}
	type val struct {
		name string
		w    int
	}
	var vals []val
	var sb strings.Builder
	nParams := 1 + b.next(3)
	var params []string
	for i := 0; i < nParams; i++ {
		w := base[b.next(len(base))]
		params = append(params, fmt.Sprintf("i%d %%p%d", w, i))
		vals = append(vals, val{fmt.Sprintf("%%p%d", i), w})
	}
	// widthOf favours the widths of values already defined, so operands
	// are mostly values rather than literals.
	widthOf := func() int {
		if b.next(4) == 0 {
			return base[b.next(len(base))]
		}
		return vals[b.next(len(vals))].w
	}
	operand := func(w int) string {
		var cands []string
		for _, v := range vals {
			if v.w == w {
				cands = append(cands, v.name)
			}
		}
		if k := b.next(8); len(cands) == 0 || k < 2 {
			mask := ir.MaskW(w)
			c := []uint64{0, 1, mask, mask >> 1, mask>>1 + 1, 2, 3, 5}[b.next(8)] & mask
			if k == 0 && b.next(4) == 0 {
				return "poison"
			}
			return fmt.Sprintf("%d", ir.SignExt(c, w))
		}
		// Prefer recent values, so most of the chain feeds the result.
		return cands[len(cands)-1-b.next(min(3, len(cands)))]
	}
	binOps := []string{"add", "sub", "mul", "udiv", "sdiv", "urem", "srem",
		"shl", "lshr", "ashr", "and", "or", "xor"}
	intrs := []string{"umin", "umax", "smin", "smax", "ctpop", "abs", "fshl", "fshr",
		"ctlz", "cttz", "uadd.sat", "usub.sat", "sadd.sat", "ssub.sat", "bitreverse"}
	n := 1 + b.next(12)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%%v%d", i)
		w := widthOf()
		ty := fmt.Sprintf("i%d", w)
		switch b.next(8) {
		case 0, 1, 2: // binary, shifts sometimes by a literal amount
			op := binOps[b.next(len(binOps))]
			fl := []string{"", "", "nuw ", "nsw ", "nuw nsw "}[b.next(5)]
			switch op {
			case "udiv", "sdiv", "lshr", "ashr":
				fl = []string{"", "exact "}[b.next(2)]
			case "or":
				fl = []string{"", "disjoint "}[b.next(2)]
			case "add", "sub", "mul", "shl":
			default:
				fl = ""
			}
			y := operand(w)
			if (op == "shl" || op == "lshr" || op == "ashr") && b.next(2) == 0 {
				y = fmt.Sprintf("%d", b.next(w+2))
				if w == 1 {
					y = fmt.Sprintf("%d", -b.next(2))
				}
			}
			fmt.Fprintf(&sb, "  %s = %s %s%s %s, %s\n", name, op, fl, ty, operand(w), y)
		case 3: // icmp
			pred := []string{"eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle"}[b.next(10)]
			fmt.Fprintf(&sb, "  %s = icmp %s %s %s, %s\n", name, pred, ty, operand(w), operand(w))
			w = 1
		case 4: // select
			fmt.Fprintf(&sb, "  %s = select i1 %s, %s %s, %s %s\n", name, operand(1), ty, operand(w), ty, operand(w))
		case 5: // integer cast, to i32/i64 as well
			to := []int{1, 4, 8, 16, 32, 64}[b.next(6)]
			switch {
			case to > w:
				op := []string{"zext", "sext", "zext nneg"}[b.next(3)]
				fmt.Fprintf(&sb, "  %s = %s %s %s to i%d\n", name, op, ty, operand(w), to)
			case to < w:
				fl := []string{"", "nuw ", "nsw "}[b.next(3)]
				fmt.Fprintf(&sb, "  %s = trunc %s%s %s to i%d\n", name, fl, ty, operand(w), to)
			default:
				fmt.Fprintf(&sb, "  %s = freeze %s %s\n", name, ty, operand(w))
			}
			w = to
		case 6: // freeze
			fmt.Fprintf(&sb, "  %s = freeze %s %s\n", name, ty, operand(w))
		default: // integer intrinsic
			id := intrs[b.next(len(intrs))]
			call := func(args ...string) {
				fmt.Fprintf(&sb, "  %s = call %s @llvm.%s.%s(%s)\n", name, ty, id, ty, strings.Join(args, ", "))
			}
			switch id {
			case "ctpop", "bitreverse":
				call(ty + " " + operand(w))
			case "abs", "ctlz", "cttz":
				call(ty+" "+operand(w), "i1 "+[]string{"false", "true"}[b.next(2)])
			case "fshl", "fshr":
				sh := operand(w)
				if b.next(2) == 0 {
					sh = fmt.Sprintf("%d", ir.SignExt(uint64(b.next(2*w+1))&ir.MaskW(w), w))
				}
				call(ty+" "+operand(w), ty+" "+operand(w), ty+" "+sh)
			default:
				call(ty+" "+operand(w), ty+" "+operand(w))
			}
		}
		vals = append(vals, val{name, w})
	}
	last := vals[len(vals)-1]
	return fmt.Sprintf("define i%d @fuzz(%s) {\n%s  ret i%d %s\n}",
		last.w, strings.Join(params, ", "), sb.String(), last.w, last.name)
}

// packedLane reads vector v of a packed group (lb-bit lanes).
func packedLane(words []uint64, lb, v int) uint64 {
	n := 64 / lb
	return (words[v/n] >> uint((v%n)*lb)) & ir.MaskW(lb)
}

// checkPackedMatchesBatch runs f on groups*64 seeded input vectors through
// the packed tier and the batch engine and reports the first lane whose
// UB, poison or value differs.
func checkPackedMatchesBatch(t *testing.T, f *ir.Func, seed int64, groups int) {
	t.Helper()
	p := Compile(f)
	if !p.Packable() {
		t.Fatalf("not packable:\n%s", f)
	}
	rng := rand.New(rand.NewSource(seed))
	pe, be := NewEvaluator(p), NewEvaluator(p)
	defer pe.Release()
	defer be.Release()
	// Lane values: corners, small amounts and random, poison 1 in 16.
	in := make([][]Word, len(f.Params))
	for i, prm := range f.Params {
		w := ir.ScalarBits(prm.Ty)
		mask := ir.MaskW(w)
		in[i] = make([]Word, groups*64)
		for v := range in[i] {
			var x uint64
			switch rng.Intn(6) {
			case 0:
				x = uint64(rng.Intn(4))
			case 1:
				x = mask >> 1
			case 2:
				x = mask>>1 + 1
			case 3:
				x = mask
			default:
				x = rng.Uint64()
			}
			in[i][v] = Word{V: x & mask, Poison: rng.Intn(16) == 0}
		}
		vals, pois := pe.PackedArgColumn(i)
		lb := PackedLaneBits(w)
		clear(vals)
		clear(pois)
		for v, x := range in[i] {
			g, l := v/64, v%64
			vals[g*lb+l/(64/lb)] |= x.V << uint((l%(64/lb))*lb)
			if x.Poison {
				pois[g] |= 1 << uint(l)
			}
		}
	}
	pe.RunPacked(groups)
	vals, pois, ub := pe.PackedRet()
	rlb := PackedLaneBits(ir.ScalarBits(f.Ret))
	for g := 0; g < groups; g++ {
		for i := range f.Params {
			copy(be.ArgColumn(i), in[i][g*64:(g+1)*64])
		}
		be.RunBatchFilled(BatchWidth, nil, 0)
		m := be.Masks()
		col, _ := be.RetColumn()
		for v := 0; v < 64; v++ {
			bit := uint64(1) << uint(v)
			if (ub[g]&bit != 0) != (m.UB&bit != 0) {
				t.Fatalf("group %d vector %d: packed UB %v, batch %v\n%s", g, v, ub[g]&bit != 0, m.UB&bit != 0, f)
			}
			if m.Returned&bit == 0 {
				continue
			}
			want, pp := col[v], pois[g]&bit != 0
			got := packedLane(vals[g*rlb:(g+1)*rlb], rlb, v)
			if pp != want.Poison || !pp && got != want.V {
				t.Fatalf("group %d vector %d: packed %d (poison %v), batch %d (poison %v)\n%s",
					g, v, got, pp, want.V, want.Poison, f)
			}
		}
	}
}

// FuzzPackedMatchesBatch is the differential of the packed tier against the
// batch engine: a decoded straight-line program must agree on every lane's
// UB, poison and (when defined) value.
func FuzzPackedMatchesBatch(f *testing.F) {
	for _, s := range []string{"", "\x01\x02\x03\x04\x05\x06\x07", "\x02\x03\x07\x07\x01\x09\x03\x11\x07\x06",
		"\x00\x01\x05\x05\x03\x00\x07\x02\x02\x08\x01", "\x03\x02\x0a\x00\x04\x07\x06\x05\x04\x03"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := genPackable(data)
		fn, err := parser.ParseFunc(src)
		if err != nil {
			t.Fatalf("generated IR does not parse: %v\n%s", err, src)
		}
		checkPackedMatchesBatch(t, fn, int64(len(data)), 2)
	})
}

// TestPackedMatchesBatch runs the fuzz body over a fixed set of random
// inputs, so every plain test run covers the packed kernels.
func TestPackedMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	n := 600
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		src := genPackable(data)
		fn, err := parser.ParseFunc(src)
		if err != nil {
			t.Fatalf("input %d: generated IR does not parse: %v\n%s", i, err, src)
		}
		checkPackedMatchesBatch(t, fn, int64(i), 1+i%3)
	}
}

// TestPackedKernelsMatchBatch pins every packed kernel, at every lane
// width and at widths below it, against the batch engine: each template
// instantiated at i1 to i64 runs on three groups of seeded vectors.
func TestPackedKernelsMatchBatch(t *testing.T) {
	var bodies []string
	for _, op := range []string{"add", "add nuw", "add nsw", "add nuw nsw", "sub", "sub nuw",
		"sub nsw", "sub nuw nsw", "and", "or", "or disjoint", "xor", "mul", "mul nsw", "udiv", "srem", "shl", "ashr exact"} {
		bodies = append(bodies, "%r = "+op+" iW %x, %y")
	}
	for _, op := range []string{"shl", "shl nuw", "shl nsw", "lshr", "lshr exact", "ashr", "ashr exact"} {
		for _, sh := range []string{"0", "1", "3", "W-1", "W", "poison"} {
			bodies = append(bodies, "%r = "+op+" iW %x, "+sh)
		}
	}
	for _, pred := range []string{"eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle"} {
		bodies = append(bodies, "%c = icmp "+pred+" iW %x, %y\n  %r = select i1 %c, iW %y, iW %z")
	}
	bodies = append(bodies,
		"%c = trunc iW %z to i1\n  %r = select i1 %c, iW %x, iW %y",
		"%r = freeze iW %x",
		"%r = call iW @llvm.ctpop.iW(iW %x)",
		"%r = call iW @llvm.abs.iW(iW %x, i1 false)",
		"%r = call iW @llvm.abs.iW(iW %x, i1 true)",
		"%r = call iW @llvm.umin.iW(iW %x, iW %y)",
		"%r = call iW @llvm.umax.iW(iW %x, iW %y)",
		"%r = call iW @llvm.smin.iW(iW %x, iW %y)",
		"%r = call iW @llvm.smax.iW(iW %x, iW %y)",
		"%r = call iW @llvm.fshl.iW(iW %x, iW %y, iW %z)",
		"%r = call iW @llvm.fshr.iW(iW %x, iW %y, iW %z)",
		"%r = call iW @llvm.ctlz.iW(iW %x, i1 true)",
		"%r = call iW @llvm.sadd.sat.iW(iW %x, iW %y)",
	)
	for _, fn := range []string{"fshl", "fshr"} {
		for _, sh := range []string{"0", "1", "3", "W-1", "W", "W+1", "poison"} {
			bodies = append(bodies, "%r = call iW @llvm."+fn+".iW(iW %x, iW %y, iW "+sh+")")
		}
	}
	widths := []int{1, 4, 8, 13, 16, 24, 32, 48, 64}
	for _, w := range widths {
		casts := bodies
		for _, to := range widths {
			for _, op := range []string{"zext", "sext", "zext nneg", "trunc", "trunc nuw", "trunc nsw"} {
				back := "trunc"
				if op[0] == 't' {
					back = []string{"zext", "sext"}[len(op)%2]
				}
				if (to > w) == (op[0] != 't') && to != w {
					casts = append(casts, fmt.Sprintf("%%e = %s iW %%x to i%d\n  %%r = %s i%d %%e to iW", op, to, back, to))
				}
			}
		}
		for bi, body := range casts {
			src := fmt.Sprintf("define iW @f(iW %%x, iW %%y, iW %%z) {\n  %s\n  ret iW %%r\n}", body)
			src = strings.NewReplacer("W-1", fmt.Sprint(w-1), "W+1", fmt.Sprint(w+1)).Replace(src)
			src = strings.ReplaceAll(src, " W", fmt.Sprintf(" %d", w))
			src = strings.ReplaceAll(src, "W", fmt.Sprint(w))
			if w == 1 && strings.Contains(body, "to i1") {
				continue // i1 does not truncate to i1
			}
			f, err := parser.ParseFunc(src)
			if err != nil {
				t.Fatalf("template does not parse: %v\n%s", err, src)
			}
			t.Run(fmt.Sprintf("i%d/%d", w, bi), func(t *testing.T) { checkPackedMatchesBatch(t, f, int64(w*1000+bi), 3) })
		}
	}
}
