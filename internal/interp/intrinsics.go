package interp

import (
	"math"
	"math/bits"

	"repro/internal/ir"
)

// intrinsic identifies a supported intrinsic by its base name. Compile
// resolves every call's callee once, so the compiled engines never re-parse
// intrinsic names on the execution path.
type intrinsic uint8

const (
	intrNone intrinsic = iota

	// Integer intrinsics, evaluated lane by lane by intLane.
	intrUMin
	intrUMax
	intrSMin
	intrSMax
	intrAbs
	intrCtpop
	intrCtlz
	intrCttz
	intrBswap
	intrBitreverse
	intrUAddSat
	intrUSubSat
	intrSAddSat
	intrSSubSat
	intrFshl
	intrFshr

	// Floating-point intrinsics.
	intrFabs
	intrMinnum
	intrMaxnum
)

// lookupIntrinsic resolves a callee name, intrNone if unsupported.
func lookupIntrinsic(callee string) intrinsic {
	switch ir.IntrinsicBase(callee) {
	case "umin":
		return intrUMin
	case "umax":
		return intrUMax
	case "smin":
		return intrSMin
	case "smax":
		return intrSMax
	case "abs":
		return intrAbs
	case "ctpop":
		return intrCtpop
	case "ctlz":
		return intrCtlz
	case "cttz":
		return intrCttz
	case "bswap":
		return intrBswap
	case "bitreverse":
		return intrBitreverse
	case "uadd.sat":
		return intrUAddSat
	case "usub.sat":
		return intrUSubSat
	case "sadd.sat":
		return intrSAddSat
	case "ssub.sat":
		return intrSSubSat
	case "fshl":
		return intrFshl
	case "fshr":
		return intrFshr
	case "fabs":
		return intrFabs
	case "minnum":
		return intrMinnum
	case "maxnum":
		return intrMaxnum
	}
	return intrNone
}

// isInt reports whether id is an integer intrinsic (evaluated by intLane).
func (id intrinsic) isInt() bool { return id >= intrUMin && id <= intrFshr }

// hasFlag reports whether id takes a trailing i1 immediate (abs's
// int_min_is_poison, ctlz/cttz's is_zero_poison) as its optional second
// operand.
func (id intrinsic) hasFlag() bool { return id == intrAbs || id == intrCtlz || id == intrCttz }

// binaryIntrinsics is the set of two-operand integer intrinsics.
const binaryIntrinsics = 1<<intrUMin | 1<<intrUMax | 1<<intrSMin | 1<<intrSMax |
	1<<intrUAddSat | 1<<intrUSubSat | 1<<intrSAddSat | 1<<intrSSubSat

// minArgs is the number of value operands the integer intrinsic id reads.
func (id intrinsic) minArgs() int {
	switch {
	case id == intrFshl || id == intrFshr:
		return 3
	case binaryIntrinsics>>id&1 == 1:
		return 2
	}
	return 1
}

// intLane evaluates one lane of the integer intrinsic id at width w (mask =
// ir.MaskW(w)). x, y, z are the lane's operands in order; for the flagged
// intrinsics y is the i1 immediate (the zero Word when absent). Operands
// id does not take are ignored. Exec, Run and RunBatch all evaluate integer
// intrinsics through this one function.
func intLane(id intrinsic, w int, mask uint64, x, y, z Word) Word {
	switch id {
	case intrFshl, intrFshr:
		if x.Poison || y.Poison || z.Poison {
			return Word{Poison: true}
		}
		// Conceptual 2w-bit value hi:lo, shifted by the amount modulo w.
		hi, lo := x.V&mask, y.V&mask
		sh := z.V % uint64(w)
		switch {
		case sh == 0 && id == intrFshl:
			return Word{V: hi}
		case sh == 0:
			return Word{V: lo}
		case id == intrFshl:
			return Word{V: ((hi << sh) | (lo >> uint(uint64(w)-sh))) & mask}
		}
		return Word{V: ((lo >> sh) | (hi << uint(uint64(w)-sh))) & mask}
	}
	if x.Poison || y.Poison && binaryIntrinsics>>id&1 == 1 {
		return Word{Poison: true}
	}
	xv, yv := x.V&mask, y.V&mask
	var v uint64
	poison := false
	switch id {
	case intrUMin:
		v = yv
		if xv < yv {
			v = xv
		}
	case intrUMax:
		v = yv
		if xv > yv {
			v = xv
		}
	case intrSMin:
		v = yv
		if ir.SignExt(xv, w) < ir.SignExt(yv, w) {
			v = xv
		}
	case intrSMax:
		v = yv
		if ir.SignExt(xv, w) > ir.SignExt(yv, w) {
			v = xv
		}
	case intrAbs:
		switch sign := mask>>1 + 1; {
		case xv == sign: // the minimum signed value
			v, poison = xv, y.V&1 == 1
		case xv&sign != 0:
			v = -xv
		default:
			v = xv
		}
	case intrCtpop:
		v = uint64(bits.OnesCount64(xv))
	case intrCtlz:
		if xv == 0 {
			v, poison = uint64(w), y.V&1 == 1
		} else {
			v = uint64(bits.LeadingZeros64(xv) - (64 - w))
		}
	case intrCttz:
		if xv == 0 {
			v, poison = uint64(w), y.V&1 == 1
		} else {
			v = uint64(bits.TrailingZeros64(xv))
		}
	case intrBswap:
		v = bits.ReverseBytes64(xv) >> uint(64-w)
	case intrBitreverse:
		v = bits.Reverse64(xv) >> uint(64-w)
	case intrUAddSat:
		v = (xv + yv) & mask
		if v < xv {
			v = mask
		}
	case intrUSubSat:
		if yv <= xv {
			v = xv - yv
		}
	case intrSAddSat:
		v = clampSigned(ir.SignExt(xv, w)+ir.SignExt(yv, w), w)
	case intrSSubSat:
		v = clampSigned(ir.SignExt(xv, w)-ir.SignExt(yv, w), w)
	}
	return Word{V: v & mask, Poison: poison}
}

// evalCall evaluates a call of the resolved intrinsic id, writing result
// lanes into dst. All supported intrinsics are pure. Shared by Exec and the
// compiled Evaluator like the other kernels.
func evalCall(id intrinsic, in *ir.Instr, dst []Word, args []RVal) (bool, string) {
	w := ir.ScalarBits(ir.Elem(in.Ty))
	switch id {
	case intrNone:
		return true, "unsupported intrinsic @" + in.Callee
	case intrFabs:
		for i := range dst {
			x := args[0].Lanes[i]
			if x.Poison {
				dst[i] = Word{Poison: true}
				continue
			}
			dst[i] = Word{V: storeFloat(w, math.Abs(loadFloat(w, x.V)))}
		}
		return false, ""
	case intrMinnum, intrMaxnum:
		for i := range dst {
			x, y := args[0].Lanes[i], args[1].Lanes[i]
			if x.Poison || y.Poison {
				dst[i] = Word{Poison: true}
				continue
			}
			fx, fy := loadFloat(w, x.V), loadFloat(w, y.V)
			var r float64
			switch {
			case math.IsNaN(fx):
				r = fy
			case math.IsNaN(fy):
				r = fx
			case id == intrMinnum:
				r = math.Min(fx, fy)
			default:
				r = math.Max(fx, fy)
			}
			dst[i] = Word{V: storeFloat(w, r)}
		}
		return false, ""
	}
	// Integer intrinsics: the flag immediate is read once, from lane 0;
	// value operands lane by lane.
	mask := ir.MaskW(w)
	var flag Word
	if id.hasFlag() && len(args) > 1 {
		flag = args[1].Lanes[0]
	}
	n := id.minArgs()
	for i := range dst {
		x, y, z := args[0].Lanes[i], flag, Word{}
		if n >= 2 {
			y = args[1].Lanes[i]
		}
		if n == 3 {
			z = args[2].Lanes[i]
		}
		dst[i] = intLane(id, w, mask, x, y, z)
	}
	return false, ""
}

func clampSigned(s int64, w int) uint64 {
	lo, hi := minSigned(w), -minSigned(w)-1
	if s < lo {
		s = lo
	}
	if s > hi {
		s = hi
	}
	return uint64(s) & ir.MaskW(w)
}

// SupportedIntrinsic reports whether the interpreter can evaluate calls to
// the given callee.
func SupportedIntrinsic(callee string) bool {
	return lookupIntrinsic(callee) != intrNone
}
