package ir

import "strconv"

// Hash computes a structural 64-bit digest of f that is independent of value
// names: parameters and instruction results are numbered canonically in
// definition order, so two functions that differ only in naming hash equal.
// The paper's extractor (Alg. 2 line 9) uses exactly such an opcode+operand
// hash for deduplication.
//
// The digest is 64-bit FNV-1a over a textual key: "p:<type>;" per
// parameter, "r:<type>;", then per block "b;" and per instruction its
// opcode, "/<flags hex>", "/<type>", the predicate, "/@<callee>" and
// "/e<elem type>" where present, ",v<n>" per numbered operand and
// ",c:<type> <ident>" per other operand, ",%<label>" per label, and ";".
// Hash values are persisted as store keys, so the key must never change;
// the bytes are streamed into the hash without building strings.
func Hash(f *Func) uint64 {
	h := hasher(fnvOffset64)
	var num numbering
	for _, p := range f.Params {
		num.add(p)
		h.str("p:")
		h.typ(p.Ty)
		h.byte(';')
	}
	h.str("r:")
	h.typ(f.Ret)
	h.byte(';')
	for _, b := range f.Blocks {
		h.str("b;")
		for _, in := range b.Instrs {
			h.str(in.Op.Name())
			h.byte('/')
			h.uint(uint64(in.Flags), 16)
			h.byte('/')
			h.typ(in.Ty)
			if in.Op == OpICmp {
				h.byte('/')
				h.str(in.IPredV.Name())
			}
			if in.Op == OpFCmp {
				h.byte('/')
				h.str(in.FPredV.Name())
			}
			if in.Callee != "" {
				h.str("/@")
				h.str(in.Callee)
			}
			if in.ElemTy != nil {
				h.str("/e")
				h.typ(in.ElemTy)
			}
			for _, a := range in.Args {
				if i, ok := num.index(a); ok {
					h.str(",v")
					h.uint(uint64(i), 10)
				} else {
					h.str(",c:")
					h.typ(a.Type())
					h.byte(' ')
					h.ident(a)
				}
			}
			for _, l := range in.Labels {
				h.str(",%")
				h.str(l)
			}
			h.byte(';')
			if in.HasResult() {
				num.add(in)
			}
		}
	}
	return uint64(h)
}

// StructurallyEqual reports whether two functions are identical up to value
// naming.
func StructurallyEqual(a, b *Func) bool {
	return Hash(a) == Hash(b) && a.NumInstrs(false) == b.NumInstrs(false)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hasher is a 64-bit FNV-1a state (hash/fnv's New64a, without the
// interface) fed byte by byte.
type hasher uint64

func (h *hasher) byte(c byte) {
	*h ^= hasher(c)
	*h *= fnvPrime64
}

func (h *hasher) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *hasher) uint(v uint64, base int) {
	var buf [20]byte
	for _, c := range strconv.AppendUint(buf[:0], v, base) {
		h.byte(c)
	}
}

func (h *hasher) int(v int64) {
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], v, 10) {
		h.byte(c)
	}
}

// typ streams t.String().
func (h *hasher) typ(t Type) {
	switch t := t.(type) {
	case IntType:
		h.byte('i')
		h.int(int64(t.W))
	case VecType:
		if t.Elem == nil {
			h.str(t.String())
			return
		}
		h.byte('<')
		h.int(int64(t.N))
		h.str(" x ")
		h.typ(t.Elem)
		h.byte('>')
	default:
		h.str(t.String())
	}
}

// ident streams v.Ident().
func (h *hasher) ident(v Value) {
	switch c := v.(type) {
	case *Param:
		h.byte('%')
		h.str(c.Nm)
	case *Instr:
		h.byte('%')
		h.str(c.Nm)
	case *ConstInt:
		switch {
		case c.Ty.W != 1:
			h.int(SignExt(c.V, c.Ty.W))
		case c.V&1 == 1:
			h.str("true")
		default:
			h.str("false")
		}
	case *Splat:
		h.str("splat (")
		h.typ(c.Elem.Type())
		h.byte(' ')
		h.ident(c.Elem)
		h.byte(')')
	case *ConstVec:
		h.byte('<')
		for i, e := range c.Elems {
			if i > 0 {
				h.str(", ")
			}
			h.typ(e.Type())
			h.byte(' ')
			h.ident(e)
		}
		h.byte('>')
	default:
		h.str(v.Ident())
	}
}

// numbering assigns parameters and instruction results their canonical
// indices. Windows are small, so lookups scan an inline array; large
// functions spill into a map.
type numbering struct {
	small [32]Value
	n     int
	big   map[Value]int
}

func (nb *numbering) add(v Value) {
	if nb.n < len(nb.small) {
		nb.small[nb.n] = v
	} else {
		if nb.big == nil {
			nb.big = make(map[Value]int)
		}
		nb.big[v] = nb.n
	}
	nb.n++
}

// index returns v's number. A value added twice keeps its latest number,
// as a map assignment would.
func (nb *numbering) index(v Value) (int, bool) {
	if i, ok := nb.big[v]; ok {
		return i, true
	}
	for i := min(nb.n, len(nb.small)) - 1; i >= 0; i-- {
		if nb.small[i] == v {
			return i, true
		}
	}
	return 0, false
}
