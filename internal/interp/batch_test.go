package interp

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/parser"
)

// sameResult compares two execution results field by field (return values
// lane-exact: poison marks equal, bit patterns equal on non-poison lanes).
func sameResult(a, b Result) string {
	if a.UB != b.UB || a.UBReason != b.UBReason ||
		a.Completed != b.Completed || a.DynInstrs != b.DynInstrs {
		return fmt.Sprintf("status mismatch: %+v vs %+v", a, b)
	}
	if !a.UB && a.Completed && !a.Ret.Equal(b.Ret) {
		return fmt.Sprintf("return mismatch: %s vs %s", a.Ret.Format(), b.Ret.Format())
	}
	return ""
}

// batchEnvs builds one fresh environment per vector, with independent
// memories for pointer parameters (filled deterministically per vector so
// lanes see distinct states).
func batchEnvs(f *ir.Func, vectors [][]RVal, maxSteps int) []Env {
	envs := make([]Env, len(vectors))
	for vi, args := range vectors {
		env := Env{MaxSteps: maxSteps, Args: append([]RVal(nil), args...)}
		var mem *Memory
		for i, p := range f.Params {
			if ir.IsPtr(p.Ty) {
				if mem == nil {
					mem = NewMemory()
				}
				base := uint64(0x10000 + i*0x1000)
				r := mem.AddRegion(p.Nm, base, 32)
				for b := range r.Data {
					r.Data[b] = byte(b*3 + vi)
				}
				env.Args[i] = Scalar(ir.Ptr, base)
			}
		}
		env.Mem = mem
		envs[vi] = env
	}
	return envs
}

// runColumns executes envs through the column API, the engine's one way in
// and out: each batch of up to BatchWidth vectors is written into the
// ArgColumn runs (short lanes zero-padded), run by RunBatchFilled on the
// envs' memories with a step budget of maxSteps, and read back with
// LaneResult. It returns one Result per env, its Ret cloned. Every env must
// carry one argument per parameter.
func runColumns(ev *Evaluator, envs []Env, maxSteps int) []Result {
	out := make([]Result, len(envs))
	mems := make([]*Memory, BatchWidth)
	for base := 0; base < len(envs); base += BatchWidth {
		batch := envs[base:min(base+BatchWidth, len(envs))]
		for i := range ev.p.paramReg {
			col := ev.ArgColumn(i)
			L := len(col) / BatchWidth
			for b, env := range batch {
				n := copy(col[b*L:(b+1)*L], env.Args[i].Lanes)
				clear(col[b*L+n : (b+1)*L])
			}
		}
		for b, env := range batch {
			mems[b] = env.Mem
		}
		ev.RunBatchFilled(len(batch), mems, maxSteps)
		for b := range batch {
			r := ev.LaneResult(b)
			r.Ret = r.Ret.Clone() // the next batch reuses the arena
			out[base+b] = r
		}
	}
	return out
}

// TestRunBatchMatchesRunOnDiffCases drives every construct case — including
// the multi-block, memory, vector and dynamic-vector-constant cases —
// through the batch engine and requires bit-identical results to Exec on
// fresh environments. More vectors than BatchWidth are used so consecutive
// batches reuse the arena.
func TestRunBatchMatchesRunOnDiffCases(t *testing.T) {
	for _, tc := range diffCases {
		f, err := parser.ParseFunc(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		ev := NewEvaluator(Compile(f))
		rng := rand.New(rand.NewSource(41))
		var vectors [][]RVal
		for k := 0; k < BatchWidth+17; k++ {
			mask := 0
			if k%11 == 3 {
				mask = 1 << (k % len(f.Params))
			}
			vectors = append(vectors, diffArgs(f, rng, mask))
		}
		out := runColumns(ev, batchEnvs(f, vectors, 0), 0)
		ref := batchEnvs(f, vectors, 0)
		for i := range vectors {
			want := Exec(f, ref[i])
			if diff := sameResult(want, out[i]); diff != "" {
				t.Fatalf("%s vector %d: %s", tc.name, i, diff)
			}
		}
	}
}

// fuzzOps is the opcode palette of the straight-line generator.
var fuzzBinOps = []string{"add", "sub", "mul", "udiv", "sdiv", "urem", "srem",
	"shl", "lshr", "ashr", "and", "or", "xor"}
var fuzzPreds = []string{"eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle"}
var fuzzFlags = map[string][]string{
	"add": {"", "nsw", "nuw", "nsw nuw"}, "sub": {"", "nsw", "nuw"},
	"mul": {"", "nsw", "nuw"}, "shl": {"", "nsw", "nuw"},
	"udiv": {"", "exact"}, "sdiv": {"", "exact"},
	"lshr": {"", "exact"}, "ashr": {"", "exact"}, "or": {"", "disjoint"},
}

// fuzzIntrinsic returns the right-hand side of a random call to one of the
// scalar integer intrinsics at width w, drawing value operands from operand
// (which may return literals, including poison). Flagged intrinsics get
// both flag values; bswap is only emitted at i16 and wider; the funnel
// shifts sometimes get a literal shift amount at or above the width.
func fuzzIntrinsic(rng *rand.Rand, w int, operand func() string) string {
	names := []string{"umin", "umax", "smin", "smax", "uadd.sat", "usub.sat",
		"sadd.sat", "ssub.sat", "abs", "ctlz", "cttz", "ctpop", "bitreverse",
		"fshl", "fshr", "bswap"}
	if w < 16 {
		names = names[:len(names)-1]
	}
	name := names[rng.Intn(len(names))]
	ty := fmt.Sprintf("i%d", w)
	call := func(args ...string) string {
		return fmt.Sprintf("call %s @llvm.%s.%s(%s)", ty, name, ty, strings.Join(args, ", "))
	}
	switch name {
	case "abs", "ctlz", "cttz":
		return call(ty+" "+operand(), "i1 "+[]string{"false", "true"}[rng.Intn(2)])
	case "ctpop", "bitreverse", "bswap":
		return call(ty + " " + operand())
	case "fshl", "fshr":
		sh := operand()
		if rng.Intn(3) == 0 {
			sh = fmt.Sprintf("%d", w+rng.Intn(2*w))
		}
		return call(ty+" "+operand(), ty+" "+operand(), ty+" "+sh)
	}
	return call(ty+" "+operand(), ty+" "+operand())
}

// genStraightLine emits a random straight-line scalar function: a chain of
// integer binaries (with random poison flags), icmps, selects, conversions,
// freezes and integer intrinsic calls over parameters, earlier values and
// literal constants (poison among them), plus vector binaries over splat
// and vector-constant operands whose elements are parameters, earlier
// values, literals and poison, extracted back to a scalar.
func genStraightLine(rng *rand.Rand) string {
	// i1 and i4 live below a packed lane; i8 and i16 fill one.
	widths := []int{1, 4, 8, 16, 32, 64}
	nParams := 1 + rng.Intn(3)
	type val struct {
		name string
		w    int // 1 for i1
	}
	var vals []val
	var sb strings.Builder
	sb.WriteString("define i8 @fuzz(")
	for i := 0; i < nParams; i++ {
		w := widths[rng.Intn(len(widths))]
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "i%d %%p%d", w, i)
		vals = append(vals, val{fmt.Sprintf("%%p%d", i), w})
	}
	sb.WriteString(") {\n")
	pick := func(w int) string {
		var cands []val
		for _, v := range vals {
			if v.w == w {
				cands = append(cands, v)
			}
		}
		// Mix in literal constants (small, corner and random) half the time.
		if len(cands) == 0 || rng.Intn(2) == 0 {
			c := []uint64{0, 1, 2, 3, ir.MaskW(w), ir.MaskW(w) >> 1, rng.Uint64() & ir.MaskW(w)}[rng.Intn(7)]
			return fmt.Sprintf("%d", int64(ir.SignExt(c, w)))
		}
		return cands[rng.Intn(len(cands))].name
	}
	n := 3 + rng.Intn(9)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%%v%d", i)
		w := widths[rng.Intn(len(widths))]
		switch rng.Intn(11) {
		case 0, 1, 2, 3: // integer binary
			op := fuzzBinOps[rng.Intn(len(fuzzBinOps))]
			fl := ""
			if fs := fuzzFlags[op]; fs != nil {
				fl = fs[rng.Intn(len(fs))]
				if fl != "" {
					fl += " "
				}
			}
			fmt.Fprintf(&sb, "  %s = %s %si%d %s, %s\n", name, op, fl, w, pick(w), pick(w))
			vals = append(vals, val{name, w})
		case 4: // icmp
			fmt.Fprintf(&sb, "  %s = icmp %s i%d %s, %s\n",
				name, fuzzPreds[rng.Intn(len(fuzzPreds))], w, pick(w), pick(w))
			vals = append(vals, val{name, 1})
		case 5: // select over an i1 if one exists
			cond := ""
			for _, v := range vals {
				if v.w == 1 {
					cond = v.name
				}
			}
			if cond == "" {
				fmt.Fprintf(&sb, "  %s = xor i%d %s, %s\n", name, w, pick(w), pick(w))
			} else {
				fmt.Fprintf(&sb, "  %s = select i1 %s, i%d %s, i%d %s\n",
					name, cond, w, pick(w), w, pick(w))
			}
			vals = append(vals, val{name, w})
		case 6: // conversion
			from := widths[rng.Intn(len(widths))]
			switch {
			case from < w:
				op := []string{"zext", "sext", "zext nneg"}[rng.Intn(3)]
				fmt.Fprintf(&sb, "  %s = %s i%d %s to i%d\n", name, op, from, pick(from), w)
			case from > w:
				fl := []string{"", "nsw ", "nuw "}[rng.Intn(3)]
				fmt.Fprintf(&sb, "  %s = trunc %si%d %s to i%d\n", name, fl, from, pick(from), w)
			default:
				fmt.Fprintf(&sb, "  %s = add i%d %s, %s\n", name, w, pick(w), pick(w))
			}
			vals = append(vals, val{name, w})
		case 7: // freeze
			fmt.Fprintf(&sb, "  %s = freeze i%d %s\n", name, w, pick(w))
			vals = append(vals, val{name, w})
		case 8: // vector binary over dynamic vector constants
			fmt.Fprintf(&sb, "  %%x%d = %s <2 x i%d> %s, %s\n", i,
				fuzzBinOps[rng.Intn(len(fuzzBinOps))], w, fuzzDynVec(rng, w, pick), fuzzDynVec(rng, w, pick))
			fmt.Fprintf(&sb, "  %s = extractelement <2 x i%d> %%x%d, i32 %d\n", name, w, i, rng.Intn(2))
			vals = append(vals, val{name, w})
		default: // intrinsic, sometimes over a poison literal
			fmt.Fprintf(&sb, "  %s = %s\n", name, fuzzIntrinsic(rng, w, func() string {
				if rng.Intn(10) == 0 {
					return "poison"
				}
				return pick(w)
			}))
			vals = append(vals, val{name, w})
		}
	}
	// Return an i8 derived from the last value.
	last := vals[len(vals)-1]
	switch {
	case last.w == 8:
		fmt.Fprintf(&sb, "  ret i8 %s\n", last.name)
	case last.w < 8:
		fmt.Fprintf(&sb, "  %%rz = zext i%d %s to i8\n  ret i8 %%rz\n", last.w, last.name)
	default:
		fmt.Fprintf(&sb, "  %%rt = trunc i%d %s to i8\n  ret i8 %%rt\n", last.w, last.name)
	}
	sb.WriteString("}")
	return sb.String()
}

// fuzzDynVec returns a <2 x iw> splat or vector-constant operand whose
// elements come from elem (parameters, earlier values or literals) or are
// poison.
func fuzzDynVec(rng *rand.Rand, w int, elem func(w int) string) string {
	el := func() string {
		if rng.Intn(5) == 0 {
			return "poison"
		}
		return elem(w)
	}
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("splat (i%d %s)", w, el())
	}
	return fmt.Sprintf("<i%d %s, i%d %s>", w, el(), w, el())
}

// fuzzVector builds one input vector biased toward interesting values
// (zero divisors, shift overflows, sign boundaries) with occasional poison
// lanes.
func fuzzVector(f *ir.Func, rng *rand.Rand) []RVal {
	args := make([]RVal, len(f.Params))
	for i, p := range f.Params {
		w := ir.ScalarBits(p.Ty)
		if rng.Intn(12) == 0 {
			args[i] = PoisonRV(p.Ty)
			continue
		}
		var v uint64
		switch rng.Intn(5) {
		case 0:
			v = uint64(rng.Intn(4)) // small: zero divisors, in-range shifts
		case 1:
			v = ir.MaskW(w) >> 1 // max signed
		case 2:
			v = (ir.MaskW(w) >> 1) + 1 // min signed
		default:
			v = rng.Uint64() & ir.MaskW(w)
		}
		args[i] = Scalar(p.Ty, v)
	}
	return args
}

// TestRunBatchFuzzStraightLine is the randomized differential of the
// straight-line batch path: generated functions execute through the
// reference tree-walker and the lane-batched executor, and every vector's
// values, poison lanes, UB reason and step count must agree bit for bit. The seed is fixed so failures reproduce.
func TestRunBatchFuzzStraightLine(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	nFuncs := 150
	if testing.Short() {
		nFuncs = 30
	}
	for fi := 0; fi < nFuncs; fi++ {
		src := genStraightLine(rng)
		f, err := parser.ParseFunc(src)
		if err != nil {
			t.Fatalf("func %d: generated IR does not parse: %v\n%s", fi, err, src)
		}
		ev := NewEvaluator(Compile(f))
		var vectors [][]RVal
		for k := 0; k < BatchWidth+9; k++ {
			vectors = append(vectors, fuzzVector(f, rng))
		}
		envs := batchEnvs(f, vectors, 0)
		out := runColumns(ev, envs, 0)
		for i, env := range envs {
			if diff := sameResult(Exec(f, env), out[i]); diff != "" {
				t.Fatalf("func %d vector %d: batch vs Exec: %s\n%s", fi, i, diff, src)
			}
		}
	}
}

// sameMemory compares two final memories region by region (addresses, data
// bytes and poison shadows).
func sameMemory(a, b *Memory) string {
	if (a == nil) != (b == nil) {
		return "one memory is nil"
	}
	if a == nil {
		return ""
	}
	if len(a.Regions) != len(b.Regions) {
		return fmt.Sprintf("region count %d vs %d", len(a.Regions), len(b.Regions))
	}
	for ri := range a.Regions {
		ra, rb := a.Regions[ri], b.Regions[ri]
		if ra.Addr != rb.Addr || !bytes.Equal(ra.Data, rb.Data) {
			return fmt.Sprintf("region %s data mismatch:\n% x\n% x", ra.Name, ra.Data, rb.Data)
		}
		for i := range ra.Poison {
			if ra.Poison[i] != rb.Poison[i] {
				return fmt.Sprintf("region %s poison mismatch at byte %d", ra.Name, i)
			}
		}
	}
	return ""
}

// emitFuzzOps appends n random scalar integer ops of width w — binaries and
// intrinsic calls — drawing operands from pool (plus occasional literals),
// and returns the value names it defined. Names are prefixed so blocks
// never collide.
func emitFuzzOps(sb *strings.Builder, rng *rand.Rand, w int, pool []string, prefix string, n int) []string {
	ops := []string{"add", "sub", "mul", "xor", "and", "or", "udiv", "sdiv",
		"urem", "srem", "shl", "lshr", "add nsw", "sub nuw", "mul nsw"}
	cur := append([]string(nil), pool...)
	var defined []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%%%s%d", prefix, i)
		a := cur[rng.Intn(len(cur))]
		b := cur[rng.Intn(len(cur))]
		if rng.Intn(3) == 0 {
			b = fmt.Sprintf("%d", rng.Intn(8))
		}
		if rng.Intn(4) == 0 {
			fmt.Fprintf(sb, "  %s = %s\n", name, fuzzIntrinsic(rng, w, func() string {
				return cur[rng.Intn(len(cur))]
			}))
		} else {
			fmt.Fprintf(sb, "  %s = %s i%d %s, %s\n", name, ops[rng.Intn(len(ops))], w, a, b)
		}
		cur = append(cur, name)
		defined = append(defined, name)
	}
	return defined
}

// genMultiBlock emits a random multi-block scalar function: a diamond whose
// arms diverge per input, a phi join (sometimes against a literal), an
// occasional deliberate cross-block use of an arm-only value (unbound on
// the other path), occasional dynamic vector operands at the join (in a
// vector phi, and with an arm-only element), and half the time a counted loop whose trip count — and
// therefore DynInstrs — depends on the inputs. The loop body runs an
// intrinsic call whose result is sometimes read after the loop, so lanes
// that already exited must keep their values while the rest iterate.
func genMultiBlock(rng *rand.Rand) string {
	w := []int{8, 16, 32}[rng.Intn(3)]
	var sb strings.Builder
	fmt.Fprintf(&sb, "define i%d @mbfuzz(i%d %%p0, i%d %%p1) {\nentry:\n", w, w, w)
	vals := []string{"%p0", "%p1"}
	if ev := emitFuzzOps(&sb, rng, w, vals, "e", 1+rng.Intn(3)); len(ev) > 0 {
		vals = append(vals, ev...)
	}
	fmt.Fprintf(&sb, "  %%c = icmp %s i%d %s, %s\n",
		fuzzPreds[rng.Intn(len(fuzzPreds))], w, vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))])
	sb.WriteString("  br i1 %c, label %a, label %b\na:\n")
	av := emitFuzzOps(&sb, rng, w, vals, "a", 1+rng.Intn(3))
	sb.WriteString("  br label %join\nb:\n")
	bv := emitFuzzOps(&sb, rng, w, vals, "b", 1+rng.Intn(3))
	sb.WriteString("  br label %join\njoin:\n")
	aval, bval := av[len(av)-1], bv[len(bv)-1]
	if rng.Intn(4) == 0 {
		aval = fmt.Sprintf("%d", rng.Intn(16))
	}
	fmt.Fprintf(&sb, "  %%ph = phi i%d [ %s, %%a ], [ %s, %%b ]\n", w, aval, bval)
	pool := append(append([]string(nil), vals...), "%ph")
	if rng.Intn(3) == 0 {
		// A vector phi over dynamic vector operands whose elements may come
		// from either arm: an element from the other arm is unbound on the
		// taken edge.
		all := append(append(append([]string(nil), vals...), av...), bv...)
		elem := func(int) string { return all[rng.Intn(len(all))] }
		fmt.Fprintf(&sb, "  %%vph = phi <2 x i%d> [ %s, %%a ], [ %s, %%b ]\n",
			w, fuzzDynVec(rng, w, elem), fuzzDynVec(rng, w, elem))
		fmt.Fprintf(&sb, "  %%vx = extractelement <2 x i%d> %%vph, i32 %d\n", w, rng.Intn(2))
		pool = append(pool, "%vx")
	}
	if rng.Intn(3) == 0 {
		// A vector constant with an element defined on arm a only: lanes
		// arriving via %b must raise Exec's "use of unbound value" text.
		fmt.Fprintf(&sb, "  %%jd = add <2 x i%d> <i%d %s, i%d %s>, splat (i%d %s)\n",
			w, w, pool[rng.Intn(len(pool))], w, av[rng.Intn(len(av))], w, pool[rng.Intn(len(pool))])
		fmt.Fprintf(&sb, "  %%jx = extractelement <2 x i%d> %%jd, i32 %d\n", w, rng.Intn(2))
		pool = append(pool, "%jx")
	}
	if rng.Intn(4) == 0 {
		// Cross-block use of an arm-a-only value: lanes arriving via %b hit
		// "use of unbound value" at runtime.
		pool = append(pool, av[len(av)-1])
	}
	jv := emitFuzzOps(&sb, rng, w, pool, "j", 1+rng.Intn(2))
	last := jv[len(jv)-1]
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, "  %%bound = and i%d %s, 7\n", w, last)
		sb.WriteString("  br label %head\nhead:\n")
		fmt.Fprintf(&sb, "  %%i = phi i%d [ 0, %%join ], [ %%inext, %%body ]\n", w)
		fmt.Fprintf(&sb, "  %%acc = phi i%d [ %s, %%join ], [ %%accn, %%body ]\n", w, last)
		fmt.Fprintf(&sb, "  %%lc = icmp ult i%d %%i, %%bound\n", w)
		sb.WriteString("  br i1 %lc, label %body, label %exit\nbody:\n")
		fmt.Fprintf(&sb, "  %%acci = %s\n", fuzzIntrinsic(rng, w, func() string {
			return []string{"%acc", "%i", "%bound"}[rng.Intn(3)]
		}))
		fmt.Fprintf(&sb, "  %%accn = add i%d %%acci, %%i\n", w)
		fmt.Fprintf(&sb, "  %%inext = add i%d %%i, 1\n", w)
		sb.WriteString("  br label %head\nexit:\n")
		if rng.Intn(2) == 0 {
			// Read the body's intrinsic result after the loop: a kernel
			// that wrote lanes outside the wave would change it for lanes
			// that exited early (zero-trip lanes hit an unbound use).
			fmt.Fprintf(&sb, "  %%r = xor i%d %%acc, %%acci\n  ret i%d %%r\n}", w, w)
		} else {
			fmt.Fprintf(&sb, "  ret i%d %%acc\n}", w)
		}
	} else {
		fmt.Fprintf(&sb, "  ret i%d %s\n}", w, last)
	}
	return sb.String()
}

// genMemory emits a random straight-line memory-touching function over one
// pointer parameter: fixed and dynamic GEPs (some deliberately out of
// bounds of the 32-byte test region), mixed-width loads and stores, and
// arithmetic that can feed poison into stored bytes.
func genMemory(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("define i8 @memfuzz(ptr %p, i8 %x) {\n")
	vals := []string{"%x"}
	gi := 0
	dynGEP := ""
	if rng.Intn(2) == 0 {
		// A data-dependent address: poison %x poisons the whole chain.
		fmt.Fprintf(&sb, "  %%xm = and i8 %%x, 24\n  %%xi = zext i8 %%xm to i64\n")
		fmt.Fprintf(&sb, "  %%gd = getelementptr i8, ptr %%p, i64 %%xi\n")
		dynGEP = "%gd"
	}
	n := 2 + rng.Intn(5)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0, 1: // load (mixed widths, occasionally out of bounds)
			lw := []int{8, 16, 32}[rng.Intn(3)]
			ptr := dynGEP
			if ptr == "" || rng.Intn(2) == 0 {
				inb := ""
				if rng.Intn(2) == 0 {
					inb = "inbounds "
				}
				fmt.Fprintf(&sb, "  %%g%d = getelementptr %si8, ptr %%p, i64 %d\n", gi, inb, rng.Intn(36))
				ptr = fmt.Sprintf("%%g%d", gi)
				gi++
			}
			fmt.Fprintf(&sb, "  %%l%d = load i%d, ptr %s\n", i, lw, ptr)
			if lw > 8 {
				fmt.Fprintf(&sb, "  %%lt%d = trunc i%d %%l%d to i8\n", i, lw, i)
				vals = append(vals, fmt.Sprintf("%%lt%d", i))
			} else {
				vals = append(vals, fmt.Sprintf("%%l%d", i))
			}
		case 2, 3: // store a (possibly poison) value
			ptr := dynGEP
			if ptr == "" || rng.Intn(2) == 0 {
				fmt.Fprintf(&sb, "  %%g%d = getelementptr i8, ptr %%p, i64 %d\n", gi, rng.Intn(36))
				ptr = fmt.Sprintf("%%g%d", gi)
				gi++
			}
			fmt.Fprintf(&sb, "  store i8 %s, ptr %s\n", vals[rng.Intn(len(vals))], ptr)
		default: // arithmetic that can introduce poison or UB
			name := fmt.Sprintf("%%v%d", i)
			op := []string{"add nsw", "sub nuw", "udiv", "shl", "xor"}[rng.Intn(5)]
			a := vals[rng.Intn(len(vals))]
			b := vals[rng.Intn(len(vals))]
			if rng.Intn(2) == 0 {
				b = fmt.Sprintf("%d", rng.Intn(9))
			}
			fmt.Fprintf(&sb, "  %s = %s i8 %s, %s\n", name, op, a, b)
			vals = append(vals, name)
		}
	}
	fmt.Fprintf(&sb, "  ret i8 %s\n}", vals[len(vals)-1])
	return sb.String()
}

// TestRunBatchFuzzMultiBlock is the randomized differential of the masked
// multi-block scheduler: generated branchy functions (diamonds, loops,
// cross-block unbound uses, dynamic vector operands in phis and joins)
// execute through Exec and the batch engine under mixed step budgets (one
// batch run per budget), and every vector's values, poison, UB reason and
// per-lane DynInstrs must agree bit for bit.
func TestRunBatchFuzzMultiBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	nFuncs := 150
	if testing.Short() {
		nFuncs = 30
	}
	for fi := 0; fi < nFuncs; fi++ {
		src := genMultiBlock(rng)
		f, err := parser.ParseFunc(src)
		if err != nil {
			t.Fatalf("func %d: generated IR does not parse: %v\n%s", fi, err, src)
		}
		ev := NewEvaluator(Compile(f))
		var vectors [][]RVal
		for k := 0; k < BatchWidth+9; k++ {
			vectors = append(vectors, fuzzVector(f, rng))
		}
		// Vectors 3, 10, 17, ... get small budgets of their own; the rest
		// run under the default.
		byBudget := map[int][][]RVal{}
		var budgets []int
		for vi, v := range vectors {
			ms := 0
			if vi%7 == 3 {
				ms = 1 + vi%29
			}
			if byBudget[ms] == nil {
				budgets = append(budgets, ms)
			}
			byBudget[ms] = append(byBudget[ms], v)
		}
		for _, ms := range budgets {
			envs := batchEnvs(f, byBudget[ms], ms)
			out := runColumns(ev, envs, ms)
			for i, env := range envs {
				if diff := sameResult(Exec(f, env), out[i]); diff != "" {
					t.Fatalf("func %d budget %d vector %d: batch vs Exec: %s\n%s", fi, ms, i, diff, src)
				}
			}
		}
	}
}

// TestRunBatchFuzzMemory is the randomized differential of per-lane batch
// memories: generated load/store/GEP functions execute through Exec and
// the batch engine on per-vector memories, and every
// vector's results and final memory (data and poison shadows) must agree.
func TestRunBatchFuzzMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	nFuncs := 120
	if testing.Short() {
		nFuncs = 25
	}
	for fi := 0; fi < nFuncs; fi++ {
		src := genMemory(rng)
		f, err := parser.ParseFunc(src)
		if err != nil {
			t.Fatalf("func %d: generated IR does not parse: %v\n%s", fi, err, src)
		}
		ev := NewEvaluator(Compile(f))
		var vectors [][]RVal
		for k := 0; k < BatchWidth+9; k++ {
			vectors = append(vectors, fuzzVector(f, rng))
		}
		envs := batchEnvs(f, vectors, 0)
		refEnvs := batchEnvs(f, vectors, 0)
		out := runColumns(ev, envs, 0)
		for i := range envs {
			if diff := sameResult(Exec(f, refEnvs[i]), out[i]); diff != "" {
				t.Fatalf("func %d vector %d: batch vs Exec: %s\n%s", fi, i, diff, src)
			}
			if diff := sameMemory(refEnvs[i].Mem, envs[i].Mem); diff != "" {
				t.Fatalf("func %d vector %d: batch final memory vs Exec: %s\n%s", fi, i, diff, src)
			}
		}
	}
}

// TestRunBatchFilledMatchesExec pins the outcome columns of a partial
// batch: after writing the argument columns and calling RunBatchFilled, the
// three masks partition the run lanes, mark no lane past them, and agree
// with Exec's outcome per vector, and a returning lane's value is its run
// of the return column.
func TestRunBatchFilledMatchesExec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for fi := 0; fi < 25; fi++ {
		f := parser.MustParseFunc(genStraightLine(rng))
		evB := NewEvaluator(Compile(f))
		n := 1 + rng.Intn(BatchWidth)
		var vectors [][]RVal
		for k := 0; k < n; k++ {
			vectors = append(vectors, fuzzVector(f, rng))
		}
		outA := make([]Result, n)
		for i, env := range batchEnvs(f, vectors, 0) {
			outA[i] = Exec(f, env)
		}
		for i, prm := range f.Params {
			col := evB.ArgColumn(i)
			L := ir.Lanes(prm.Ty)
			for b := 0; b < n; b++ {
				copy(col[b*L:(b+1)*L], vectors[b][i].Lanes)
			}
		}
		evB.RunBatchFilled(n, nil, 0)
		m := evB.Masks()
		col, stride := evB.RetColumn()
		for i := range outA {
			if diff := sameResult(outA[i], evB.LaneResult(i)); diff != "" {
				t.Fatalf("func %d vector %d: filled vs Exec: %s", fi, i, diff)
			}
			// The masks partition the lanes, and a returning lane's value
			// is its run of the return column.
			bit := uint64(1) << uint(i)
			var got []string
			for _, c := range []struct {
				mask uint64
				name string
			}{{m.Returned, "returned"}, {m.UB, "ub"}, {m.OutOfBudget, "budget"}} {
				if c.mask&bit != 0 {
					got = append(got, c.name)
				}
			}
			want := "budget"
			switch {
			case outA[i].UB:
				want = "ub"
			case outA[i].Completed:
				want = "returned"
			}
			if len(got) != 1 || got[0] != want {
				t.Fatalf("func %d vector %d: lane in masks %v, want only %s", fi, i, got, want)
			}
			ret := want == "returned"
			if ret && !(RVal{Ty: outA[i].Ret.Ty, Lanes: col[i*stride : (i+1)*stride]}).Equal(outA[i].Ret) {
				t.Fatalf("func %d vector %d: return column %v, want %s", fi, i,
					col[i*stride:(i+1)*stride], outA[i].Ret.Format())
			}
		}
		if hi := uint64(1)<<uint(n) - 1; n < BatchWidth && (m.Returned|m.UB|m.OutOfBudget)&^hi != 0 {
			t.Fatalf("func %d: masks %+v mark lanes past %d", fi, m, n)
		}
	}
}

// TestRunBatchStepBudgets covers the straight-line budget edge: runs on
// one evaluator under the default budget and under budgets that end before,
// at and after the ret match Exec exactly, DynInstrs included.
func TestRunBatchStepBudgets(t *testing.T) {
	f := parser.MustParseFunc(`define i8 @f(i8 %x) {
  %a = add i8 %x, 1
  %b = add i8 %a, 2
  %c = add i8 %b, 3
  ret i8 %c
}`)
	ev := NewEvaluator(Compile(f))
	for _, ms := range []int{0, 2, 4, 1, 3, 5} {
		env := Env{Args: []RVal{Scalar(ir.I8, 5)}, MaxSteps: ms}
		if diff := sameResult(Exec(f, env), runColumns(ev, []Env{env}, ms)[0]); diff != "" {
			t.Fatalf("budget %d: %s", ms, diff)
		}
	}
}

// TestReleasedEvaluatorMatchesExec pins evaluator recycling: storage
// released after a batch that ran lanes out of budget, killed lanes with UB
// and wrote lane memories — whether taken again for the same Program or
// laid out for the next, differently shaped one — must run the next batch
// exactly like Exec, with no outcome, return value or memory carried over.
func TestReleasedEvaluatorMatchesExec(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	for fi := 0; fi < 40; fi++ {
		var src string
		switch fi % 3 {
		case 0:
			src = genStraightLine(rng)
		case 1:
			src = genMultiBlock(rng)
		default:
			src = genMemory(rng)
		}
		f := parser.MustParseFunc(src)
		p := Compile(f)
		batch := func(maxSteps int) ([]Env, []Env) {
			var vectors [][]RVal
			for k := 0; k < BatchWidth; k++ {
				vectors = append(vectors, fuzzVector(f, rng))
			}
			return batchEnvs(f, vectors, maxSteps), batchEnvs(f, vectors, maxSteps)
		}
		ev := NewEvaluator(p)
		dirty, _ := batch(1 + fi%5)
		runColumns(ev, dirty, 1+fi%5)
		ev.Release()

		ev = NewEvaluator(p)
		envs, refEnvs := batch(0)
		out := runColumns(ev, envs, 0)
		for i := range envs {
			if diff := sameResult(Exec(f, refEnvs[i]), out[i]); diff != "" {
				t.Fatalf("func %d vector %d: recycled evaluator vs Exec: %s\n%s", fi, i, diff, src)
			}
			if diff := sameMemory(refEnvs[i].Mem, envs[i].Mem); diff != "" {
				t.Fatalf("func %d vector %d: recycled evaluator final memory vs Exec: %s\n%s", fi, i, diff, src)
			}
		}
		ev.Release() // the next function's evaluator reuses this storage
	}
}

// TestRunBatchMultiBlockReturnKinds covers the multi-block return column
// with every kind of ret: a register, a constant and no value at all (a
// void function), matching Exec lane by lane.
func TestRunBatchMultiBlockReturnKinds(t *testing.T) {
	for _, src := range []string{
		`define i8 @f(i8 %x) {
entry:
  %c = icmp ult i8 %x, 10
  br i1 %c, label %a, label %b
a:
  ret i8 7
b:
  %y = add i8 %x, 1
  ret i8 %y
}`,
		`define void @f(ptr %p, i8 %x) {
entry:
  %c = icmp ult i8 %x, 10
  br i1 %c, label %a, label %b
a:
  store i8 %x, ptr %p
  ret void
b:
  ret void
}`,
	} {
		f := parser.MustParseFunc(src)
		var vectors [][]RVal
		for k := 0; k < BatchWidth+3; k++ {
			var args []RVal
			for _, p := range f.Params {
				args = append(args, Scalar(p.Ty, uint64(k*3)))
			}
			vectors = append(vectors, args)
		}
		envs, refEnvs := batchEnvs(f, vectors, 0), batchEnvs(f, vectors, 0)
		out := runColumns(NewEvaluator(Compile(f)), envs, 0)
		for i := range envs {
			if diff := sameResult(Exec(f, refEnvs[i]), out[i]); diff != "" {
				t.Fatalf("%s\nvector %d: batch vs Exec: %s", src, i, diff)
			}
			if diff := sameMemory(refEnvs[i].Mem, envs[i].Mem); diff != "" {
				t.Fatalf("%s\nvector %d: final memory: %s", src, i, diff)
			}
		}
	}
}
