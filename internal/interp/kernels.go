package interp

// This file holds the per-opcode evaluation kernels shared by the reference
// tree-walking interpreter (Exec) and the compiled Evaluator. Each kernel
// writes the result lanes of one instruction into a caller-provided dst
// slice, so the two execution engines run the exact same semantics and can
// only differ in how they materialize operands and where result lanes live.
// Every kernel fully overwrites dst on success (the compiled evaluator
// reuses register storage across runs).

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/ir"
)

// scratch holds reusable byte/bool buffers for the store and bitcast
// kernels, so a steady-state evaluator performs no per-instruction
// allocations for them.
type scratch struct {
	data []byte
	pois []bool
	bits []bool
}

func (sc *scratch) byteBuf(n int) ([]byte, []bool) {
	if cap(sc.data) < n {
		sc.data = make([]byte, n)
		sc.pois = make([]bool, n)
	}
	return sc.data[:n], sc.pois[:n]
}

func (sc *scratch) bitBuf(n int) []bool {
	if cap(sc.bits) < n {
		sc.bits = make([]bool, n)
	}
	return sc.bits[:n]
}

// resultLanes returns how many result lanes in produces given its
// materialized operands, matching the historic allocation behaviour of the
// tree-walker (operand-derived where the original code derived it from
// operands, type-derived otherwise).
func resultLanes(in *ir.Instr, args []RVal) int {
	switch {
	case in.Op.IsIntBinary(),
		in.Op == ir.OpFAdd, in.Op == ir.OpFSub, in.Op == ir.OpFMul, in.Op == ir.OpFDiv,
		in.Op == ir.OpFNeg, in.Op == ir.OpICmp, in.Op == ir.OpFCmp, in.Op == ir.OpFreeze:
		return len(args[0].Lanes)
	case in.Op == ir.OpSelect:
		return len(args[1].Lanes)
	case in.Op == ir.OpBitcast:
		return ir.Lanes(in.Ty)
	case in.Op.IsConversion():
		return len(args[0].Lanes)
	case in.Op == ir.OpGEP, in.Op == ir.OpExtractElt:
		return 1
	case in.Op == ir.OpLoad, in.Op == ir.OpCall, in.Op == ir.OpShuffle:
		return ir.Lanes(in.Ty)
	case in.Op == ir.OpInsertElt:
		return len(args[0].Lanes)
	}
	return 0
}

// evalOp executes one non-control-flow, non-phi instruction: the result
// lanes are written into dst (len(dst) = resultLanes for the tree-walker,
// the register's static lane count for the compiled evaluator). intr is the
// resolved intrinsic of a call (lookupIntrinsic). It reports undefined
// behaviour exactly like the historic state.eval did.
func evalOp(in *ir.Instr, intr intrinsic, dst []Word, args []RVal, mem *Memory, sc *scratch) (bool, string) {
	switch {
	case in.Op.IsIntBinary():
		return evalIntBinary(in, dst, args[0], args[1])
	case in.Op == ir.OpFAdd, in.Op == ir.OpFSub, in.Op == ir.OpFMul, in.Op == ir.OpFDiv:
		evalFPBinary(in, dst, args[0], args[1])
		return false, ""
	case in.Op == ir.OpFNeg:
		w := ir.ScalarBits(ir.Elem(in.Ty))
		for i := range dst {
			x := args[0].Lanes[i]
			if x.Poison {
				dst[i] = x
				continue
			}
			dst[i] = Word{V: storeFloat(w, -loadFloat(w, x.V))}
		}
		return false, ""
	case in.Op == ir.OpICmp:
		evalICmp(in, dst, args[0], args[1])
		return false, ""
	case in.Op == ir.OpFCmp:
		evalFCmp(in, dst, args[0], args[1])
		return false, ""
	case in.Op == ir.OpSelect:
		evalSelect(dst, args[0], args[1], args[2])
		return false, ""
	case in.Op == ir.OpFreeze:
		for i := range dst {
			if l := args[0].Lanes[i]; l.Poison {
				dst[i] = Word{V: 0}
			} else {
				dst[i] = l
			}
		}
		return false, ""
	case in.Op == ir.OpBitcast:
		return evalBitcast(in.Ty, in.Args[0].Type(), dst, args[0], sc)
	case in.Op.IsConversion():
		evalConvert(in, dst, args[0])
		return false, ""
	case in.Op == ir.OpGEP:
		return evalGEP(in, dst, args, mem)
	case in.Op == ir.OpLoad:
		return evalLoad(in, dst, args[0], mem)
	case in.Op == ir.OpStore:
		return evalStore(in, args[0], args[1], mem, sc)
	case in.Op == ir.OpCall:
		return evalCall(intr, in, dst, args)
	case in.Op == ir.OpExtractElt:
		vec, idx := args[0], args[1].Lanes[0]
		if idx.Poison || idx.V >= uint64(len(vec.Lanes)) {
			dst[0] = Word{Poison: true}
		} else {
			dst[0] = vec.Lanes[idx.V]
		}
		return false, ""
	case in.Op == ir.OpInsertElt:
		vec, elem, idx := args[0], args[1], args[2].Lanes[0]
		if idx.Poison || idx.V >= uint64(len(vec.Lanes)) {
			for i := range dst {
				dst[i] = Word{Poison: true}
			}
			return false, ""
		}
		copy(dst, vec.Lanes)
		dst[idx.V] = elem.Lanes[0]
		return false, ""
	case in.Op == ir.OpShuffle:
		return evalShuffle(in, dst, args[0], args[1])
	}
	return true, "unsupported opcode " + in.Op.Name()
}

func evalIntBinary(in *ir.Instr, dst []Word, a, b RVal) (bool, string) {
	w := ir.ScalarBits(ir.Elem(in.Ty))
	mask := ir.MaskW(w)
	for i := range dst {
		r, why := intBinLane(in.Op, in.Flags, w, mask, a.Lanes[i], b.Lanes[i])
		if why != "" {
			return true, why
		}
		dst[i] = r
	}
	return false, ""
}

// intBinLane evaluates one lane of the integer binary op at width w (mask =
// ir.MaskW(w)). A non-empty why names the undefined behaviour the lane
// raises; the returned Word is then meaningless. Exec and both compiled
// engines evaluate integer binaries through this one function (the batch
// engine's flagless bitwise and additive loops and the packed tier's SWAR
// kernels are its specializations).
func intBinLane(op ir.Opcode, flags ir.Flags, w int, mask uint64, x, y Word) (r Word, why string) {
	// Division by a non-poison zero is UB even with poison dividends, so
	// check UB cases before poison short-circuiting.
	switch op {
	case ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem:
		if y.Poison {
			return Word{}, "division by poison"
		}
		if y.V&mask == 0 {
			return Word{}, "division by zero"
		}
		if (op == ir.OpSDiv || op == ir.OpSRem) && !x.Poison {
			if ir.SignExt(x.V, w) == minSigned(w) && ir.SignExt(y.V, w) == -1 {
				return Word{}, "signed division overflow"
			}
		}
	}
	if x.Poison || y.Poison {
		return Word{Poison: true}, ""
	}
	xv, yv := x.V&mask, y.V&mask
	var v uint64
	poison := false
	switch op {
	case ir.OpAdd:
		v = (xv + yv) & mask
		if flags.Has(ir.NUW) && v < xv {
			poison = true
		}
		if flags.Has(ir.NSW) && addNSWOverflow(xv, yv, v, w) {
			poison = true
		}
	case ir.OpSub:
		v = (xv - yv) & mask
		if flags.Has(ir.NUW) && yv > xv {
			poison = true
		}
		if flags.Has(ir.NSW) && subNSWOverflow(xv, yv, v, w) {
			poison = true
		}
	case ir.OpMul:
		hi, lo := bits.Mul64(xv, yv)
		v = lo & mask
		if flags.Has(ir.NUW) {
			if hi != 0 || lo&^mask != 0 {
				poison = true
			}
		}
		if flags.Has(ir.NSW) && mulNSWOverflow(xv, yv, w) {
			poison = true
		}
	case ir.OpUDiv:
		v = xv / yv
		if flags.Has(ir.Exact) && xv%yv != 0 {
			poison = true
		}
	case ir.OpSDiv:
		sr := ir.SignExt(xv, w) / ir.SignExt(yv, w)
		v = uint64(sr) & mask
		if flags.Has(ir.Exact) && ir.SignExt(xv, w)%ir.SignExt(yv, w) != 0 {
			poison = true
		}
	case ir.OpURem:
		v = xv % yv
	case ir.OpSRem:
		v = uint64(ir.SignExt(xv, w)%ir.SignExt(yv, w)) & mask
	case ir.OpShl:
		if yv >= uint64(w) {
			poison = true
			break
		}
		v = (xv << yv) & mask
		if flags.Has(ir.NUW) && (v>>yv) != xv {
			poison = true
		}
		if flags.Has(ir.NSW) {
			back := uint64(ir.SignExt(v, w)>>yv) & mask
			if back != xv {
				poison = true
			}
		}
	case ir.OpLShr:
		if yv >= uint64(w) {
			poison = true
			break
		}
		v = xv >> yv
		if flags.Has(ir.Exact) && (v<<yv)&mask != xv {
			poison = true
		}
	case ir.OpAShr:
		if yv >= uint64(w) {
			poison = true
			break
		}
		v = uint64(ir.SignExt(xv, w)>>yv) & mask
		// Exact ashr: poison if any shifted-out bit is non-zero.
		if flags.Has(ir.Exact) && xv&((uint64(1)<<yv)-1) != 0 {
			poison = true
		}
	case ir.OpAnd:
		v = xv & yv
	case ir.OpOr:
		v = xv | yv
		if flags.Has(ir.Disjoint) && xv&yv != 0 {
			poison = true
		}
	case ir.OpXor:
		v = xv ^ yv
	}
	return Word{V: v & mask, Poison: poison}, ""
}

func minSigned(w int) int64 {
	return -(int64(1) << uint(w-1))
}

func addNSWOverflow(x, y, r uint64, w int) bool {
	sx, sy, sr := ir.SignExt(x, w), ir.SignExt(y, w), ir.SignExt(r, w)
	return (sx >= 0) == (sy >= 0) && (sr >= 0) != (sx >= 0)
}

func subNSWOverflow(x, y, r uint64, w int) bool {
	sx, sy, sr := ir.SignExt(x, w), ir.SignExt(y, w), ir.SignExt(r, w)
	return (sx >= 0) != (sy >= 0) && (sr >= 0) != (sx >= 0)
}

func mulNSWOverflow(x, y uint64, w int) bool {
	sx, sy := ir.SignExt(x, w), ir.SignExt(y, w)
	if sx == 0 || sy == 0 {
		return false
	}
	p := sx * sy
	if sx != 0 && p/sx != sy {
		return true // 64-bit overflow
	}
	return p < minSigned(w) || p > -minSigned(w)-1
}

func evalFPBinary(in *ir.Instr, dst []Word, a, b RVal) {
	w := ir.ScalarBits(ir.Elem(in.Ty))
	for i := range dst {
		x, y := a.Lanes[i], b.Lanes[i]
		if x.Poison || y.Poison {
			dst[i] = Word{Poison: true}
			continue
		}
		fx, fy := loadFloat(w, x.V), loadFloat(w, y.V)
		var r float64
		switch in.Op {
		case ir.OpFAdd:
			r = fx + fy
		case ir.OpFSub:
			r = fx - fy
		case ir.OpFMul:
			r = fx * fy
		case ir.OpFDiv:
			r = fx / fy
		}
		dst[i] = Word{V: storeFloat(w, r)}
	}
}

func evalICmp(in *ir.Instr, dst []Word, a, b RVal) {
	w := ir.ScalarBits(ir.Elem(in.Args[0].Type()))
	mask := ir.MaskW(w)
	for i := range dst {
		dst[i] = icmpLane(in.IPredV, w, mask, a.Lanes[i], b.Lanes[i])
	}
}

// icmpLane evaluates one lane of an integer comparison of w-bit operands
// (mask = ir.MaskW(w)), shared by Exec and both compiled engines.
func icmpLane(pred ir.IPred, w int, mask uint64, x, y Word) Word {
	if x.Poison || y.Poison {
		return Word{Poison: true}
	}
	xv, yv := x.V&mask, y.V&mask
	sx, sy := ir.SignExt(xv, w), ir.SignExt(yv, w)
	var r bool
	switch pred {
	case ir.EQ:
		r = xv == yv
	case ir.NE:
		r = xv != yv
	case ir.UGT:
		r = xv > yv
	case ir.UGE:
		r = xv >= yv
	case ir.ULT:
		r = xv < yv
	case ir.ULE:
		r = xv <= yv
	case ir.SGT:
		r = sx > sy
	case ir.SGE:
		r = sx >= sy
	case ir.SLT:
		r = sx < sy
	case ir.SLE:
		r = sx <= sy
	}
	if r {
		return Word{V: 1}
	}
	return Word{V: 0}
}

func evalFCmp(in *ir.Instr, dst []Word, a, b RVal) {
	w := ir.ScalarBits(ir.Elem(in.Args[0].Type()))
	for i := range dst {
		x, y := a.Lanes[i], b.Lanes[i]
		if x.Poison || y.Poison {
			dst[i] = Word{Poison: true}
			continue
		}
		fx, fy := loadFloat(w, x.V), loadFloat(w, y.V)
		nan := math.IsNaN(fx) || math.IsNaN(fy)
		var r bool
		switch in.FPredV {
		case ir.FPredFalse:
			r = false
		case ir.FPredTrue:
			r = true
		case ir.ORD:
			r = !nan
		case ir.UNO:
			r = nan
		case ir.OEQ:
			r = !nan && fx == fy
		case ir.OGT:
			r = !nan && fx > fy
		case ir.OGE:
			r = !nan && fx >= fy
		case ir.OLT:
			r = !nan && fx < fy
		case ir.OLE:
			r = !nan && fx <= fy
		case ir.ONE:
			r = !nan && fx != fy
		case ir.UEQ:
			r = nan || fx == fy
		case ir.FUGT:
			r = nan || fx > fy
		case ir.FUGE:
			r = nan || fx >= fy
		case ir.FULT:
			r = nan || fx < fy
		case ir.FULE:
			r = nan || fx <= fy
		case ir.UNE:
			r = nan || fx != fy
		}
		if r {
			dst[i] = Word{V: 1}
		} else {
			dst[i] = Word{V: 0}
		}
	}
}

func evalSelect(dst []Word, cond, tv, fv RVal) {
	vectorCond := len(cond.Lanes) == len(dst) && len(dst) > 1
	for i := range dst {
		c := cond.Lanes[0]
		if vectorCond {
			c = cond.Lanes[i]
		}
		if c.Poison {
			dst[i] = Word{Poison: true}
			continue
		}
		if c.V&1 == 1 {
			dst[i] = tv.Lanes[i]
		} else {
			dst[i] = fv.Lanes[i]
		}
	}
}

func evalConvert(in *ir.Instr, dst []Word, a RVal) {
	fromTy := in.Args[0].Type()
	toElem := ir.Elem(in.Ty)
	fw := ir.ScalarBits(ir.Elem(fromTy))
	tw := ir.ScalarBits(toElem)
	if in.Op == ir.OpPtrToInt || in.Op == ir.OpIntToPtr {
		for i := range dst {
			if x := a.Lanes[i]; x.Poison {
				dst[i] = x
			} else {
				dst[i] = Word{V: x.V & ir.MaskW(tw)}
			}
		}
		return
	}
	for i := range dst {
		x := a.Lanes[i]
		if x.Poison {
			dst[i] = Word{Poison: true}
			continue
		}
		var r uint64
		poison := false
		switch in.Op {
		case ir.OpZExt, ir.OpSExt, ir.OpTrunc:
			dst[i] = convIntLane(in.Op, in.Flags, fw, tw, x)
			continue
		case ir.OpFPExt:
			r = storeFloat(tw, loadFloat(fw, x.V))
		case ir.OpFPTrunc:
			r = storeFloat(tw, loadFloat(fw, x.V))
		case ir.OpSIToFP:
			r = storeFloat(tw, float64(ir.SignExt(x.V, fw)))
		case ir.OpUIToFP:
			r = storeFloat(tw, float64(x.V&ir.MaskW(fw)))
		case ir.OpFPToSI:
			f := loadFloat(fw, x.V)
			if math.IsNaN(f) || f < float64(minSigned(tw)) || f > float64(-minSigned(tw)-1) {
				poison = true
				break
			}
			r = uint64(int64(f)) & ir.MaskW(tw)
		case ir.OpFPToUI:
			f := loadFloat(fw, x.V)
			if math.IsNaN(f) || f < 0 || f >= math.Ldexp(1, tw) {
				poison = true
				break
			}
			r = uint64(f) & ir.MaskW(tw)
		}
		dst[i] = Word{V: r, Poison: poison}
	}
}

// convIntLane evaluates one lane of an integer cast (zext, sext, trunc)
// from fw to tw bits, shared by Exec and both compiled engines.
func convIntLane(op ir.Opcode, flags ir.Flags, fw, tw int, x Word) Word {
	if x.Poison {
		return Word{Poison: true}
	}
	var r uint64
	poison := false
	switch op {
	case ir.OpZExt:
		r = x.V & ir.MaskW(fw)
		if flags.Has(ir.NNeg) && ir.SignExt(x.V, fw) < 0 {
			poison = true
		}
	case ir.OpSExt:
		r = uint64(ir.SignExt(x.V, fw)) & ir.MaskW(tw)
	case ir.OpTrunc:
		r = x.V & ir.MaskW(tw)
		if flags.Has(ir.NUW) && x.V&ir.MaskW(fw) != r {
			poison = true
		}
		if flags.Has(ir.NSW) && ir.SignExt(x.V, fw) != ir.SignExt(r, tw) {
			poison = true
		}
	}
	return Word{V: r, Poison: poison}
}

// evalBitcast reinterprets a value's bytes as another type of the same total
// width (little-endian lane packing). Any poison source lane poisons the
// whole result, matching LLVM's conservative semantics.
func evalBitcast(to ir.Type, from ir.Type, dst []Word, a RVal, sc *scratch) (bool, string) {
	if a.AnyPoison() {
		for i := range dst {
			dst[i] = Word{Poison: true}
		}
		return false, ""
	}
	fw := ir.ScalarBits(ir.Elem(from))
	tw := ir.ScalarBits(ir.Elem(to))
	totalFrom := fw * ir.Lanes(from)
	totalTo := tw * ir.Lanes(to)
	if totalFrom != totalTo {
		return true, fmt.Sprintf("bitcast width mismatch: %d vs %d bits", totalFrom, totalTo)
	}
	// Serialize to a bit buffer lane by lane, little endian within lanes.
	buf := sc.bitBuf(totalFrom)
	for i, l := range a.Lanes {
		for b := 0; b < fw; b++ {
			buf[i*fw+b] = (l.V>>uint(b))&1 == 1
		}
	}
	for i := range dst {
		var v uint64
		for b := 0; b < tw; b++ {
			if buf[i*tw+b] {
				v |= uint64(1) << uint(b)
			}
		}
		dst[i] = Word{V: v}
	}
	return false, ""
}

func evalGEP(in *ir.Instr, dst []Word, args []RVal, mem *Memory) (bool, string) {
	base := args[0].Lanes[0]
	if base.Poison {
		dst[0] = Word{Poison: true}
		return false, ""
	}
	addr := base.V
	elemBytes := uint64(ir.StoreBytes(in.ElemTy))
	for k := 1; k < len(args); k++ {
		idx := args[k].Lanes[0]
		if idx.Poison {
			dst[0] = Word{Poison: true}
			return false, ""
		}
		iw := ir.ScalarBits(in.Args[k].Type())
		off := uint64(ir.SignExt(idx.V, iw)) * elemBytes
		addr += off
	}
	if in.Flags.Has(ir.Inbounds) || in.Flags.Has(ir.NUW) {
		// Approximation: inbounds requires the result to stay within the
		// object containing the base address.
		r := mem.FindRegion(base.V)
		if r == nil || addr < r.Addr || addr > r.Addr+uint64(len(r.Data)) {
			dst[0] = Word{Poison: true}
			return false, ""
		}
	}
	dst[0] = Word{V: addr & ir.MaskW(64)}
	return false, ""
}

func evalLoad(in *ir.Instr, dst []Word, ptr RVal, mem *Memory) (bool, string) {
	p := ptr.Lanes[0]
	if p.Poison {
		return true, "load from poison pointer"
	}
	n := ir.StoreBytes(in.Ty)
	data, pois, ok := mem.LoadBytes(p.V, n)
	if !ok {
		return true, fmt.Sprintf("out-of-bounds load of %d bytes at 0x%X", n, p.V)
	}
	if in.Align > 1 && p.V%uint64(in.Align) != 0 {
		return true, fmt.Sprintf("misaligned load (align %d) at 0x%X", in.Align, p.V)
	}
	// Assemble lanes from little-endian bytes.
	elemBytes := ir.StoreBytes(ir.Elem(in.Ty))
	mask := ir.MaskW(ir.ScalarBits(ir.Elem(in.Ty)))
	for i := range dst {
		var v uint64
		poison := false
		for b := 0; b < elemBytes; b++ {
			idx := i*elemBytes + b
			v |= uint64(data[idx]) << uint(8*b)
			if pois[idx] {
				poison = true
			}
		}
		dst[i] = Word{V: v & mask, Poison: poison}
	}
	return false, ""
}

func evalStore(in *ir.Instr, v, ptr RVal, mem *Memory, sc *scratch) (bool, string) {
	p := ptr.Lanes[0]
	if p.Poison {
		return true, "store to poison pointer"
	}
	// Serialize the value into little-endian bytes plus poison marks.
	elemBytes := ir.StoreBytes(ir.Elem(in.Args[0].Type()))
	data, pois := sc.byteBuf(elemBytes * len(v.Lanes))
	for i, l := range v.Lanes {
		for b := 0; b < elemBytes; b++ {
			idx := i*elemBytes + b
			data[idx] = byte(l.V >> uint(8*b))
			pois[idx] = l.Poison
		}
	}
	if in.Align > 1 && p.V%uint64(in.Align) != 0 {
		return true, fmt.Sprintf("misaligned store (align %d) at 0x%X", in.Align, p.V)
	}
	if !mem.StoreBytes(p.V, data, pois) {
		return true, fmt.Sprintf("out-of-bounds store of %d bytes at 0x%X", len(data), p.V)
	}
	return false, ""
}

func evalShuffle(in *ir.Instr, dst []Word, a, b RVal) (bool, string) {
	mask, ok := in.Args[2].(*ir.ConstVec)
	if !ok {
		if _, isZero := in.Args[2].(*ir.Zero); isZero {
			for i := range dst {
				dst[i] = a.Lanes[0]
			}
			return false, ""
		}
		return true, "shufflevector requires a constant mask"
	}
	for i := range dst {
		switch c := mask.Elems[i].(type) {
		case *ir.ConstInt:
			k := int(ir.SignExt(c.V, c.Ty.W))
			switch {
			case k < 0 || k >= 2*len(a.Lanes):
				dst[i] = Word{Poison: true}
			case k < len(a.Lanes):
				dst[i] = a.Lanes[k]
			default:
				dst[i] = b.Lanes[k-len(a.Lanes)]
			}
		default:
			dst[i] = Word{Poison: true}
		}
	}
	return false, ""
}
