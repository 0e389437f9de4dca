package interp

// The packed tier runs a packable Program over groups of 64 input vectors
// with several vectors' lanes side by side in each uint64 (SWAR: SIMD within
// a register). It exists for the counter phase of exhaustive verification,
// where a pointer-free straight-line pair is executed on every one of up to
// 65,536 input vectors: there the 16-byte Word per lane of the batch engine,
// and its per-lane loops, are the whole cost.
//
// A Program is packable when Compile finds it straight-line, free of
// pointer, memory, vector and floating-point values, free of runtime guards
// and gathers, with every instruction before its one final ret a
// specialized scalar-integer batch kind (bkIntBin, bkICmp, bkSelect,
// bkConvInt, bkIntrinsic, bkFreeze) at widths of 1 to 64 bits. Nothing else
// runs here, and nothing here reports why a lane failed: a caller that
// needs a Result (a counterexample) re-runs that group on the batch engine.
//
// Layout. A w-bit value is stored in lanes of PackedLaneBits(w) bits (8,
// 16, 32 or 64), zero above bit w. One group of 64 vectors therefore takes
// lb words of a register, vector v of the group in word v/(64/lb) at bit
// (v%(64/lb))*lb, and one poison mask (bit v: vector v's lane is poison).
// A run executes up to PackedGroups groups, back to back, through each
// instruction in turn. Poison lanes hold some w-bit value; only the mask
// says they are poison.
//
// Kernels. and/or/xor/add/sub/mul, shifts by a constant, icmp, select,
// freeze, integer casts, ctpop, abs, umin/umax/smin/smax and the funnel shifts
// (by a constant at any width, by a register at power-of-two widths) work
// on whole words, including the poison that nuw/nsw/exact/disjoint flags
// and out-of-range constant shift amounts produce. Every other
// specialized op runs lane by lane over the packed words through the same
// per-lane code the other engines use (intBinLane, icmpLane, convIntLane,
// intLane), which also raises the UB of division and remainder into a
// per-run UB lane mask.
//
// There is one way in and one way out, as for the batch engine: inputs are
// written into PackedArgColumn, RunPacked executes, and PackedRet returns
// the return words with the poison and UB lane masks.

import (
	"math/bits"

	"repro/internal/ir"
)

// PackedGroups is the most 64-vector groups one RunPacked call executes.
const PackedGroups = 8

// PackedLaneBits returns the lane width, in bits, in which the packed tier
// stores a w-bit integer (1 <= w <= 64): 8, 16, 32 or 64.
func PackedLaneBits(w int) int {
	switch {
	case w <= 8:
		return 8
	case w <= 16:
		return 16
	case w <= 32:
		return 32
	}
	return 64
}

// pkind is the packed kernel of one instruction.
type pkind uint8

const (
	pkLane      pkind = iota // lane by lane through the shared per-lane kernels
	pkAnd                    // and
	pkOr                     // or, disjoint
	pkXor                    // xor
	pkAdd                    // add, nuw/nsw
	pkSub                    // sub, nuw/nsw
	pkMul                    // mul without flags, lane by lane within each word
	pkShl                    // shl by the constant sh, nuw/nsw
	pkLShr                   // lshr by the constant sh, exact
	pkAShr                   // ashr by the constant sh, exact
	pkPoison                 // every lane poison (a constant amount out of range, or poison)
	pkICmp                   // icmp, every predicate
	pkSelect                 // select
	pkFreeze                 // freeze
	pkConv                   // zext/sext/trunc without flags
	pkCtpop                  // ctpop
	pkAbs                    // abs; sh is its int_min_is_poison flag
	pkMinMax                 // umin/umax/smin/smax
	pkFunnel                 // fshl/fshr by a constant: left amount sh; 0 picks operand pick
	pkFunnelVar              // fshl/fshr by a register, power-of-two widths
)

// pslot is one packed register or constant.
type pslot struct {
	lb  uint8 // lane bits
	w   uint8 // value bits
	off int32 // first value word in packedState.vals (PackedGroups*lb words)
}

// pinstr is one compiled instruction of the packed plan.
type pinstr struct {
	k    pkind
	dst  int32
	a    [3]int32 // operand slots, -1 when absent
	gi   int32    // index in Program.code (the per-lane fallback reads it)
	sh   uint8    // constant shift or funnel amount; abs: int_min_is_poison
	pick uint8    // pkFunnel with sh 0: the operand returned

	// Comparisons (icmp, min/max): operands are swapped, sign-flipped, and
	// the less-than result negated as a predicate needs; eq tests equality.
	swap, signed, neg, eq bool
	right                 bool // pkFunnelVar: fshr
}

// packedPlan is a Program's packed tier, fixed at Compile (nil: not
// packable). Slots number the registers first, then the constant pool.
type packedPlan struct {
	slots []pslot
	code  []pinstr
	ret   int32
	words int // value words across all slots, PackedGroups groups each
}

// Packable reports whether p runs on the packed tier (see packed.go).
func (p *Program) Packable() bool { return p.pk != nil }

// packedWidth returns the width of a scalar integer type of 1 to 64 bits,
// or 0.
func packedWidth(t ir.Type) int {
	if it, ok := t.(ir.IntType); ok && it.W >= 1 && it.W <= 64 {
		return it.W
	}
	return 0
}

// planPacked builds p's packed plan when p is packable.
func (p *Program) planPacked(fn *ir.Func) {
	if !p.straight || p.hasMem || len(p.code) == 0 || len(p.code) > defaultMaxSteps {
		return
	}
	nregs := int32(len(p.regLanes))
	slots := make([]pslot, int(nregs)+len(p.consts))
	slot := func(s int32) int32 {
		if s < 0 {
			return nregs + ^s
		}
		return s
	}
	for i, prm := range fn.Params {
		w := packedWidth(prm.Ty)
		if w == 0 {
			return
		}
		slots[p.paramReg[i]].w = uint8(w)
	}
	for c, rv := range p.consts {
		w := packedWidth(rv.Ty)
		if w == 0 || len(rv.Lanes) != 1 {
			return
		}
		slots[int(nregs)+c].w = uint8(w)
	}
	last := len(p.code) - 1
	ret := &p.code[last]
	if p.kinds[last] != bkRet || len(ret.args) != 1 {
		return
	}
	code := make([]pinstr, 0, last)
	for gi := 0; gi < last; gi++ {
		ci := &p.code[gi]
		if !p.kinds[gi].specialized() || len(ci.checks) > 0 || len(ci.gathers) > 0 {
			return
		}
		w := packedWidth(ci.in.Ty)
		if w == 0 {
			return
		}
		for _, a := range ci.in.Args {
			if packedWidth(a.Type()) == 0 {
				return
			}
		}
		// abs/ctlz/cttz read their flag's bits even when it is poison, so
		// a flag computed at run time is left to the batch engine.
		if ci.intr.hasFlag() && len(ci.args) > 1 && ci.args[1] >= 0 {
			return
		}
		slots[ci.dst].w = uint8(w)
		pi := pinstr{dst: ci.dst, gi: int32(gi), a: [3]int32{-1, -1, -1}}
		for k := 0; k < len(ci.args) && k < 3; k++ {
			pi.a[k] = slot(ci.args[k])
		}
		p.planKernel(&pi, ci, p.kinds[gi])
		code = append(code, pi)
	}
	if packedWidth(ret.in.Args[0].Type()) == 0 {
		return
	}
	pk := &packedPlan{slots: slots, code: code, ret: slot(ret.args[0])}
	for s := range slots {
		slots[s].lb = uint8(PackedLaneBits(int(slots[s].w)))
		slots[s].off = int32(pk.words)
		pk.words += PackedGroups * int(slots[s].lb)
	}
	p.pk = pk
}

// planKernel picks instruction ci's packed kernel (pkLane when it has no
// word-wide one) and its constant amounts.
func (p *Program) planKernel(pi *pinstr, ci *cinstr, kind batchKind) {
	in := ci.in
	w := ir.ScalarBits(in.Ty)
	// constAmount returns operand k's constant value when it is a
	// non-poison constant, reporting ok false for registers and poison
	// true for a poison constant.
	constAmount := func(k int) (v uint64, ok, poison bool) {
		if ci.args[k] >= 0 {
			return 0, false, false
		}
		c := p.consts[^ci.args[k]].Lanes[0]
		return c.V, !c.Poison, c.Poison
	}
	switch kind {
	case bkIntBin:
		flagsOnly := func(allowed ir.Flags) bool { return in.Flags&^allowed == 0 }
		switch {
		case in.Op == ir.OpAnd && flagsOnly(ir.NoFlags):
			pi.k = pkAnd
		case in.Op == ir.OpOr && flagsOnly(ir.Disjoint):
			pi.k = pkOr
		case in.Op == ir.OpXor && flagsOnly(ir.NoFlags):
			pi.k = pkXor
		case in.Op == ir.OpAdd && flagsOnly(ir.NUW|ir.NSW):
			pi.k = pkAdd
		case in.Op == ir.OpSub && flagsOnly(ir.NUW|ir.NSW):
			pi.k = pkSub
		case in.Op == ir.OpMul && flagsOnly(ir.NoFlags):
			pi.k = pkMul
		case in.Op == ir.OpShl && flagsOnly(ir.NUW|ir.NSW),
			in.Op == ir.OpLShr && flagsOnly(ir.Exact),
			in.Op == ir.OpAShr && flagsOnly(ir.Exact):
			v, ok, poison := constAmount(1)
			switch {
			case poison || ok && v >= uint64(w):
				pi.k = pkPoison
			case ok && in.Op == ir.OpShl:
				pi.k, pi.sh = pkShl, uint8(v)
			case ok && in.Op == ir.OpLShr:
				pi.k, pi.sh = pkLShr, uint8(v)
			case ok:
				pi.k, pi.sh = pkAShr, uint8(v)
			}
		}
	case bkICmp:
		pi.k = pkICmp
		switch in.IPredV {
		case ir.EQ:
			pi.eq = true
		case ir.NE:
			pi.eq, pi.neg = true, true
		case ir.ULT, ir.SLT:
		case ir.UGT, ir.SGT:
			pi.swap = true
		case ir.UGE, ir.SGE:
			pi.neg = true
		case ir.ULE, ir.SLE:
			pi.swap, pi.neg = true, true
		default:
			pi.k = pkLane
		}
		switch in.IPredV {
		case ir.SLT, ir.SGT, ir.SGE, ir.SLE:
			pi.signed = true
		}
	case bkSelect:
		pi.k = pkSelect
	case bkFreeze:
		pi.k = pkFreeze
	case bkConvInt:
		if in.Flags == ir.NoFlags {
			pi.k = pkConv
		}
	case bkIntrinsic:
		switch ci.intr {
		case intrCtpop:
			pi.k = pkCtpop
		case intrAbs:
			pi.k = pkAbs
			if len(ci.args) > 1 {
				pi.sh = uint8(p.consts[^ci.args[1]].Lanes[0].V & 1)
			}
		case intrUMin, intrUMax, intrSMin, intrSMax:
			pi.k = pkMinMax
			pi.signed = ci.intr == intrSMin || ci.intr == intrSMax
			// less-than(x, y) picks x for min; less-than(y, x) for max.
			pi.swap = ci.intr == intrUMax || ci.intr == intrSMax
		case intrFshl, intrFshr:
			v, ok, poison := constAmount(2)
			switch {
			case poison:
				pi.k = pkPoison
			case ok:
				pi.k = pkFunnel
				sh := v % uint64(w)
				if ci.intr == intrFshr && sh != 0 {
					sh = uint64(w) - sh // fshr by s is fshl by w-s
				}
				pi.sh = uint8(sh)
				if ci.intr == intrFshr {
					pi.pick = 1
				}
			case w&(w-1) == 0:
				pi.k, pi.right = pkFunnelVar, ci.intr == intrFshr
			}
		}
	}
}

// packedState is an Evaluator's packed scratch, laid out for one Program.
type packedState struct {
	p    *Program
	vals []uint64 // value words, per slot PackedGroups*lb at its off
	pois []uint64 // poison masks, per slot PackedGroups at slot*PackedGroups
	ub   [PackedGroups]uint64
	g    int // groups in the latest run
}

// packed returns ev's packed scratch laid out for its Program, reusing the
// storage a recycled evaluator holds. Constant slots are filled here once.
func (ev *Evaluator) packed() *packedState {
	if ev.ps == nil {
		ev.ps = &packedState{}
	}
	ps := ev.ps
	if ps.p == ev.p {
		return ps
	}
	pk := ev.p.pk
	if pk == nil {
		panic("interp: packed run of a program that is not packable")
	}
	ps.p = ev.p
	ps.vals = resize(ps.vals, pk.words)
	ps.pois = resize(ps.pois, len(pk.slots)*PackedGroups)
	nregs := len(ev.p.regLanes)
	for c, rv := range ev.p.consts {
		s := nregs + c
		v, pm := rv.Lanes[0].V*laneOnes(pk.slots[s].lb), uint64(0)
		if rv.Lanes[0].Poison {
			pm = ^uint64(0)
		}
		vals, pois := ps.slot(s, PackedGroups)
		for i := range vals {
			vals[i] = v
		}
		for i := range pois {
			pois[i] = pm
		}
	}
	return ps
}

// slot returns slot s's value words and poison masks for g groups.
func (ps *packedState) slot(s, g int) (vals, pois []uint64) {
	sl := &ps.p.pk.slots[s]
	off, n := int(sl.off), g*int(sl.lb)
	return ps.vals[off : off+n : off+n], ps.pois[s*PackedGroups : s*PackedGroups+g : s*PackedGroups+g]
}

// PackedArgColumn returns parameter i's packed input column: PackedGroups
// groups of value words in the layout described in packed.go (lanes of
// PackedLaneBits(w) bits, zero above bit w), and one poison mask per group.
// Callers fill the groups a run executes, then call RunPacked. The
// Evaluator's Program must be packable.
func (ev *Evaluator) PackedArgColumn(i int) (vals, pois []uint64) {
	return ev.packed().slot(int(ev.p.paramReg[i]), PackedGroups)
}

// RunPacked executes the first groups groups (at most PackedGroups) of the
// packed argument columns. Per lane, the outcome equals the batch engine's
// (and Exec's) on that vector: the returned value and its poison, or UB.
func (ev *Evaluator) RunPacked(groups int) {
	if groups < 1 || groups > PackedGroups {
		panic("interp: RunPacked bounds")
	}
	ps := ev.packed()
	ps.g = groups
	clear(ps.ub[:groups])
	for i := range ps.p.pk.code {
		ps.run(&ps.p.pk.code[i])
	}
}

// PackedRet returns the outcome of the latest RunPacked: the return words
// (layout of the return type's width), and per group the poison mask and
// the UB mask. A UB lane's value and poison bit mean nothing. The views
// alias the evaluator's scratch until its next run.
func (ev *Evaluator) PackedRet() (vals, pois, ub []uint64) {
	ps := ev.ps
	vals, pois = ps.slot(int(ps.p.pk.ret), ps.g)
	return vals, pois, ps.ub[:ps.g]
}

// PackedBroadcast returns the packed word holding v in every lane of lb
// bits.
func PackedBroadcast(v uint64, lb int) uint64 { return v * laneOnes(uint8(lb)) }

// PackedRamp writes one group's words for lanes of lb bits in which vector
// v holds (v >> shift) & mask: the low part of an exhaustive counter, to
// which a broadcast adds the high part.
func PackedRamp(dst []uint64, lb, shift int, mask uint64) {
	n := 64 / lb
	for k := 0; k < lb; k++ {
		var word uint64
		for j := 0; j < n; j++ {
			word |= ((uint64(k*n+j) >> uint(shift)) & mask) << uint(j*lb)
		}
		dst[k] = word
	}
}

// PackedDiff returns the mask of the vectors of one group (lb words each)
// whose lanes differ between a and b.
func PackedDiff(a, b []uint64, lb int) uint64 {
	l := uint8(lb)
	n := uint(64 / lb)
	var m uint64
	for k := range a[:lb] {
		if t := a[k] ^ b[k]; t != 0 {
			m |= nonzeroLanes(t, l) << (uint(k) * n)
		}
	}
	return m
}

// laneOnes returns the word with 1 in every lane of lb bits.
func laneOnes(lb uint8) uint64 {
	switch lb {
	case 8:
		return 0x0101010101010101
	case 16:
		return 0x0001000100010001
	case 32:
		return 0x0000000100000001
	}
	return 1
}

// laneAll returns the all-ones value of one lane of lb bits.
func laneAll(lb uint8) uint64 { return ir.MaskW(int(lb)) }

// laneBitsAt gathers bit b of every lane of lb bits into the low 64/lb bits
// of the result, lane j to bit j.
func laneBitsAt(t uint64, lb uint8, b uint) uint64 {
	t = (t >> b) & laneOnes(lb)
	switch lb {
	case 8:
		return (t * 0x0102040810204080) >> 56
	case 16:
		return (t | t>>15 | t>>30 | t>>45) & 0xF
	case 32:
		return (t | t>>31) & 3
	}
	return t
}

// nonzeroLanes gathers, one bit per lane of lb bits, which lanes of t are
// nonzero.
func nonzeroLanes(t uint64, lb uint8) uint64 {
	h := laneOnes(lb) << (lb - 1)
	return laneBitsAt((((t&^h)+(h-laneOnes(lb)))|t)&h, lb, uint(lb-1))
}

// spread8/16/32 map 64/lb lane bits to lane masks (all ones where set).
var spread8, spread16, spread32 = func() (t8 [256]uint64, t16 [16]uint64, t32 [4]uint64) {
	for m := range t8 {
		for j := 0; j < 8; j++ {
			if m>>j&1 == 1 {
				t8[m] |= 0xFF << (8 * j)
			}
		}
	}
	for m := range t16 {
		for j := 0; j < 4; j++ {
			if m>>j&1 == 1 {
				t16[m] |= 0xFFFF << (16 * j)
			}
		}
	}
	for m := range t32 {
		for j := 0; j < 2; j++ {
			if m>>j&1 == 1 {
				t32[m] |= 0xFFFFFFFF << (32 * j)
			}
		}
	}
	return
}()

// spreadLanes turns the low 64/lb bits of m into lane masks of lb bits.
func spreadLanes(m uint64, lb uint8) uint64 {
	switch lb {
	case 8:
		return spread8[m&0xFF]
	case 16:
		return spread16[m&0xF]
	case 32:
		return spread32[m&3]
	}
	return -(m & 1)
}

// swarAdd and swarSub add and subtract lane by lane, modulo 2^lb (h: the
// top bit of every lane).
func swarAdd(x, y, h uint64) uint64 { return ((x &^ h) + (y &^ h)) ^ ((x ^ y) & h) }
func swarSub(x, y, h uint64) uint64 { return ((x | h) - (y &^ h)) ^ ((x ^ ^y) & h) }

// run executes one instruction over the run's groups.
func (ps *packedState) run(pi *pinstr) {
	g := ps.g
	sl := &ps.p.pk.slots[pi.dst]
	lb, w := sl.lb, uint(sl.w)
	n := uint(64 / uint(lb))
	d, pd := ps.slot(int(pi.dst), g)
	var x, y, z, px, py, pz []uint64
	if pi.a[0] >= 0 {
		x, px = ps.slot(int(pi.a[0]), g)
	}
	if pi.a[1] >= 0 {
		y, py = ps.slot(int(pi.a[1]), g)
	}
	if pi.a[2] >= 0 {
		z, pz = ps.slot(int(pi.a[2]), g)
	}
	ones := laneOnes(lb)
	h := ones << (lb - 1)
	m := ir.MaskW(int(w)) * ones // every lane's w-bit mask
	// orPoison sets pd to the union of the operands' poison masks.
	orPoison := func(masks ...[]uint64) {
		copy(pd, masks[0])
		for _, q := range masks[1:] {
			for i := range pd {
				pd[i] |= q[i]
			}
		}
	}
	// poisonLanes marks poison the lanes of result word i set in lanes
	// (one bit per lane, as laneBitsAt and nonzeroLanes return them).
	poisonLanes := func(i int, lanes uint64) {
		pd[uint(i)/uint(lb)] |= lanes << ((uint(i) % uint(lb)) * n)
	}
	// flagLanes marks poison the lanes whose bit b of f(word index) is set.
	flagLanes := func(b uint, f func(i int) uint64) {
		for i := range d {
			if t := f(i); t != 0 {
				poisonLanes(i, laneBitsAt(t, lb, b))
			}
		}
	}
	// nonzeroFlag marks poison the lanes in which f(word index) is nonzero.
	nonzeroFlag := func(f func(i int) uint64) {
		for i := range d {
			if t := f(i); t != 0 {
				poisonLanes(i, nonzeroLanes(t, lb))
			}
		}
	}
	switch pi.k {
	case pkAnd:
		for i := range d {
			d[i] = x[i] & y[i]
		}
		orPoison(px, py)
	case pkOr:
		for i := range d {
			d[i] = x[i] | y[i]
		}
		orPoison(px, py)
		if ps.p.code[pi.gi].in.Flags.Has(ir.Disjoint) {
			nonzeroFlag(func(i int) uint64 { return x[i] & y[i] })
		}
	case pkXor:
		for i := range d {
			d[i] = x[i] ^ y[i]
		}
		orPoison(px, py)
	case pkAdd, pkSub:
		if pi.k == pkAdd {
			for i := range d {
				d[i] = swarAdd(x[i], y[i], h) & m
			}
		} else {
			for i := range d {
				d[i] = swarSub(x[i], y[i], h) & m
			}
		}
		orPoison(px, py)
		flags := ps.p.code[pi.gi].in.Flags
		switch {
		case pi.k == pkAdd && flags.Has(ir.NUW): // carry out of bit w-1
			flagLanes(w-1, func(i int) uint64 { return x[i]&y[i] | (x[i]|y[i])&^d[i] })
		case pi.k == pkSub && flags.Has(ir.NUW): // borrow out of bit w-1
			flagLanes(w-1, func(i int) uint64 { return ^x[i]&y[i] | ^(x[i]^y[i])&d[i] })
		}
		switch {
		case pi.k == pkAdd && flags.Has(ir.NSW):
			flagLanes(w-1, func(i int) uint64 { return (d[i] ^ x[i]) & (d[i] ^ y[i]) })
		case pi.k == pkSub && flags.Has(ir.NSW):
			flagLanes(w-1, func(i int) uint64 { return (x[i] ^ y[i]) & (x[i] ^ d[i]) })
		}
	case pkMul:
		mw := ir.MaskW(int(w))
		for i := range d {
			var r uint64
			for j := uint(0); j < 64; j += uint(lb) {
				r |= ((x[i] >> j) * (y[i] >> j) & mw) << j
			}
			d[i] = r
		}
		orPoison(px, py)
	case pkShl:
		s := uint(pi.sh)
		keep := ir.MaskW(int(w-s)) * ones
		for i := range d {
			d[i] = (x[i] & keep) << s
		}
		copy(pd, px)
		flags := ps.p.code[pi.gi].in.Flags
		if flags.Has(ir.NUW) { // a set bit shifted out
			out := m &^ keep
			nonzeroFlag(func(i int) uint64 { return x[i] & out })
		}
		if flags.Has(ir.NSW) { // the top s+1 bits not all equal
			top := m &^ (ir.MaskW(int(w-s-1)) * ones)
			for i := range d {
				if t := x[i] & top; t != 0 {
					poisonLanes(i, nonzeroLanes(t, lb)&nonzeroLanes(t^top, lb))
				}
			}
		}
	case pkLShr, pkAShr:
		s := uint(pi.sh)
		keep := ir.MaskW(int(w-s)) * ones
		for i := range d {
			d[i] = (x[i] >> s) & keep
		}
		if pi.k == pkAShr {
			fill := ir.MaskW(int(w)) &^ ir.MaskW(int(w-s))
			for i := range d {
				d[i] |= ((x[i] >> (w - 1)) & ones) * fill
			}
		}
		copy(pd, px)
		if ps.p.code[pi.gi].in.Flags.Has(ir.Exact) { // a set bit shifted out
			out := ir.MaskW(int(s)) * ones
			nonzeroFlag(func(i int) uint64 { return x[i] & out })
		}
	case pkPoison:
		clear(d)
		for i := range pd {
			pd[i] = ^uint64(0)
		}
	case pkICmp:
		ps.icmp(pi, d, x, y)
		orPoison(px, py)
	case pkSelect:
		c, pc := x, px
		t, f, pt, pf := y, z, py, pz
		for gr := 0; gr < g; gr++ {
			var cm uint64
			for j := 0; j < 8; j++ {
				cm |= laneBitsAt(c[gr*8+j], 8, 0) << (8 * j)
			}
			for k := 0; k < int(lb); k++ {
				i := gr*int(lb) + k
				sel := spreadLanes(cm>>(uint(k)*n), lb)
				d[i] = t[i]&sel | f[i]&^sel
			}
			pd[gr] = pc[gr] | cm&pt[gr] | ^cm&pf[gr]
		}
	case pkFreeze:
		for gr := 0; gr < g; gr++ {
			for k := 0; k < int(lb); k++ {
				i := gr*int(lb) + k
				d[i] = x[i] &^ spreadLanes(px[gr]>>(uint(k)*n), lb)
			}
			pd[gr] = 0
		}
	case pkConv:
		ps.conv(pi, d, x)
		copy(pd, px)
	case pkCtpop:
		for i := range d {
			v := x[i]
			v -= (v >> 1) & 0x5555555555555555
			v = v&0x3333333333333333 + (v>>2)&0x3333333333333333
			v = (v + v>>4) & 0x0F0F0F0F0F0F0F0F
			if lb >= 16 {
				v = (v + v>>8) & 0x00FF00FF00FF00FF
			}
			if lb >= 32 {
				v = (v + v>>16) & 0x0000FFFF0000FFFF
			}
			if lb == 64 {
				v = (v + v>>32) & 0xFFFFFFFF
			}
			d[i] = v
		}
		copy(pd, px)
	case pkAbs:
		all := laneAll(lb)
		for i := range d {
			neg := ((x[i] >> (w - 1)) & ones) * all
			d[i] = swarSub(x[i]^neg, neg, h) & m
		}
		copy(pd, px)
		if pi.sh == 1 { // int_min_is_poison: the lanes equal to the sign bit
			sign := (uint64(1) << (w - 1)) * ones
			for i := range d {
				poisonLanes(i, nonzeroLanes(x[i]^sign, lb)^ir.MaskW(int(n)))
			}
		}
	case pkMinMax:
		all := laneAll(lb)
		var flip uint64
		if pi.signed {
			flip = (uint64(1) << (w - 1)) * ones
		}
		for i := range d {
			a, b := x[i]^flip, y[i]^flip
			if pi.swap {
				a, b = b, a
			}
			lt := ((lessThan(a, b, h) >> (w - 1)) & ones) * all // a < b
			d[i] = x[i]&lt | y[i]&^lt
		}
		orPoison(px, py)
	case pkFunnel:
		s := uint(pi.sh)
		switch {
		case s != 0:
			keepX, keepY := ir.MaskW(int(w-s))*ones, ir.MaskW(int(s))*ones
			for i := range d {
				d[i] = (x[i]&keepX)<<s | (y[i]>>(w-s))&keepY
			}
		case pi.pick == 0:
			copy(d, x)
		default:
			copy(d, y)
		}
		orPoison(px, py)
	case pkFunnelVar:
		ps.funnelVar(pi, d, x, y, z)
		orPoison(px, py, pz)
	default:
		ps.lanes(pi)
	}
}

// lessThan returns, at bit w-1 of every lane, whether a < b unsigned as
// w-bit values (the borrow out of a - b); h is every lane's top bit.
func lessThan(a, b, h uint64) uint64 {
	return ^a&b | ^(a^b)&swarSub(a, b, h)
}

// icmp writes the i1 lanes of a comparison.
func (ps *packedState) icmp(pi *pinstr, d, x, y []uint64) {
	sl := &ps.p.pk.slots[pi.a[0]]
	lb, w := sl.lb, uint(sl.w)
	n := uint(64 / uint(lb))
	ones := laneOnes(lb)
	h := ones << (lb - 1)
	var flip uint64
	if pi.signed {
		flip = (uint64(1) << (w - 1)) * ones
	}
	for gr := 0; gr < ps.g; gr++ {
		var r uint64
		for k := 0; k < int(lb); k++ {
			i := gr*int(lb) + k
			a, b := x[i]^flip, y[i]^flip
			if pi.swap {
				a, b = b, a
			}
			var t uint64
			if pi.eq {
				t = nonzeroLanes(a^b, lb) ^ ir.MaskW(int(n)) // equal lanes
			} else {
				t = laneBitsAt(lessThan(a, b, h), lb, w-1)
			}
			r |= t << (uint(k) * n)
		}
		if pi.neg {
			r = ^r
		}
		for j := 0; j < 8; j++ {
			d[gr*8+j] = spread8[(r>>(8*j))&0xFF] & 0x0101010101010101
		}
	}
}

// conv repacks the lanes of a flagless integer cast. Casts between widths
// of the same lane size work on whole words.
func (ps *packedState) conv(pi *pinstr, d, x []uint64) {
	from, to := &ps.p.pk.slots[pi.a[0]], &ps.p.pk.slots[pi.dst]
	flb, tlb := uint(from.lb), uint(to.lb)
	fw := uint(from.w)
	fmask, tmask := ir.MaskW(int(fw)), ir.MaskW(int(to.w))
	sext := ps.p.code[pi.gi].in.Op == ir.OpSExt
	if flb == tlb {
		ones := laneOnes(from.lb)
		m := tmask * ones
		for i := range d {
			v := x[i]
			if sext {
				v |= ((v >> (fw - 1)) & ones) * (tmask &^ fmask)
			}
			d[i] = v & m
		}
		return
	}
	tn := 64 / tlb
	tshift := uint(bits.TrailingZeros(tn))
	fall := laneAll(from.lb)
	for gr := 0; gr < ps.g; gr++ {
		src, dst := x[gr*int(flb):(gr+1)*int(flb)], d[gr*int(tlb):(gr+1)*int(tlb)]
		clear(dst)
		v := uint(0)
		for _, word := range src {
			for j := uint(0); j < 64; j += flb {
				l := (word >> j) & fall
				if sext && l>>(fw-1) != 0 {
					l |= ^fmask
				}
				dst[v>>tshift] |= (l & tmask) << ((v & (tn - 1)) * tlb)
				v++
			}
		}
	}
}

// funnelVar runs fshl/fshr by a register amount at a power-of-two width as
// a barrel shifter of the 2w-bit value x:y: stage k shifts the lanes whose
// amount has bit k set by 2^k.
func (ps *packedState) funnelVar(pi *pinstr, d, x, y, z []uint64) {
	sl := &ps.p.pk.slots[pi.dst]
	lb, w := sl.lb, uint(sl.w)
	ones, all := laneOnes(lb), laneAll(lb)
	m := ir.MaskW(int(w)) * ones
	for i := range d {
		hi, lo, amt := x[i], y[i], z[i]
		for s := uint(1); s < w; s <<= 1 {
			sel := (amt & ones) * all
			amt >>= 1
			keepHi, keepLo := ir.MaskW(int(w-s))*ones, ir.MaskW(int(s))*ones
			if pi.right {
				nlo := (lo>>s)&keepHi | (hi&keepLo)<<(w-s)
				nhi := (hi >> s) & keepHi
				hi, lo = hi&^sel|nhi&sel, lo&^sel|nlo&sel
			} else {
				nhi := (hi&keepHi)<<s | (lo>>(w-s))&keepLo
				nlo := (lo & keepHi) << s
				hi, lo = hi&^sel|nhi&sel, lo&^sel|nlo&sel
			}
		}
		if pi.right {
			d[i] = lo & m
		} else {
			d[i] = hi & m
		}
	}
}

// lanes runs an instruction with no word-wide kernel lane by lane, through
// the per-lane kernels the other engines share, raising division UB into
// the run's UB masks.
func (ps *packedState) lanes(pi *pinstr) {
	p := ps.p
	ci := &p.code[pi.gi]
	in := ci.in
	kind := p.kinds[pi.gi]
	dsl := &p.pk.slots[pi.dst]
	dlb := uint(dsl.lb)
	dn := 64 / dlb
	w := int(dsl.w)
	mask := ir.MaskW(w)
	var opw, fw int
	if pi.a[0] >= 0 {
		opw = int(p.pk.slots[pi.a[0]].w)
		fw = opw
	}
	d, pd := ps.slot(int(pi.dst), ps.g)
	for gr := 0; gr < ps.g; gr++ {
		var pm, um uint64
		dst := d[gr*int(dlb) : (gr+1)*int(dlb)]
		clear(dst)
		for v := 0; v < 64; v++ {
			x, y, z := ps.lane(pi.a[0], gr, v), ps.lane(pi.a[1], gr, v), ps.lane(pi.a[2], gr, v)
			var r Word
			switch kind {
			case bkIntBin:
				var why string
				if r, why = intBinLane(in.Op, in.Flags, w, mask, x, y); why != "" {
					um |= 1 << uint(v)
					r = Word{}
				}
			case bkICmp:
				r = icmpLane(in.IPredV, opw, ir.MaskW(opw), x, y)
			case bkConvInt:
				r = convIntLane(in.Op, in.Flags, fw, w, x)
			case bkIntrinsic:
				r = intLane(ci.intr, w, mask, x, y, z)
			}
			if r.Poison {
				pm |= 1 << uint(v)
			}
			dst[uint(v)/dn] |= (r.V & mask) << ((uint(v) % dn) * dlb)
		}
		pd[gr] = pm
		ps.ub[gr] |= um
	}
}

// lane reads vector v of group gr of slot s as a Word (the zero Word for an
// absent operand, as batchIntrinsic reads one).
func (ps *packedState) lane(s int32, gr, v int) Word {
	if s < 0 {
		return Word{}
	}
	sl := &ps.p.pk.slots[s]
	lb := uint(sl.lb)
	n := 64 / lb
	word := ps.vals[int(sl.off)+gr*int(lb)+v/int(n)]
	return Word{
		V:      (word >> ((uint(v) % n) * lb)) & ir.MaskW(int(lb)),
		Poison: ps.pois[int(s)*PackedGroups+gr]>>uint(v)&1 == 1,
	}
}
