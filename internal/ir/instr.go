package ir

// Opcode enumerates the instruction set subset modelled by this package.
type Opcode int

// Instruction opcodes.
const (
	OpInvalid Opcode = iota

	// Integer binary operators.
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpSDiv
	OpURem
	OpSRem
	OpShl
	OpLShr
	OpAShr
	OpAnd
	OpOr
	OpXor

	// Floating point operators.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg

	// Comparisons and selection.
	OpICmp
	OpFCmp
	OpSelect
	OpFreeze

	// Conversions.
	OpZExt
	OpSExt
	OpTrunc
	OpFPExt
	OpFPTrunc
	OpSIToFP
	OpUIToFP
	OpFPToSI
	OpFPToUI
	OpBitcast
	OpPtrToInt
	OpIntToPtr

	// Memory.
	OpGEP
	OpLoad
	OpStore

	// Calls (intrinsics only in this subset).
	OpCall

	// Vector element manipulation.
	OpExtractElt
	OpInsertElt
	OpShuffle

	// Control flow.
	OpPhi
	OpBr
	OpRet
	OpUnreachable
)

var opcodeNames = map[Opcode]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpUDiv: "udiv", OpSDiv: "sdiv",
	OpURem: "urem", OpSRem: "srem", OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv", OpFNeg: "fneg",
	OpICmp: "icmp", OpFCmp: "fcmp", OpSelect: "select", OpFreeze: "freeze",
	OpZExt: "zext", OpSExt: "sext", OpTrunc: "trunc", OpFPExt: "fpext",
	OpFPTrunc: "fptrunc", OpSIToFP: "sitofp", OpUIToFP: "uitofp",
	OpFPToSI: "fptosi", OpFPToUI: "fptoui", OpBitcast: "bitcast",
	OpPtrToInt: "ptrtoint", OpIntToPtr: "inttoptr",
	OpGEP: "getelementptr", OpLoad: "load", OpStore: "store", OpCall: "call",
	OpExtractElt: "extractelement", OpInsertElt: "insertelement", OpShuffle: "shufflevector",
	OpPhi: "phi", OpBr: "br", OpRet: "ret", OpUnreachable: "unreachable",
}

// Name returns the .ll mnemonic of the opcode.
func (o Opcode) Name() string { return opcodeNames[o] }

// OpcodeByName maps .ll mnemonics back to opcodes; absent names map to OpInvalid.
func OpcodeByName(s string) Opcode {
	for op, n := range opcodeNames {
		if n == s {
			return op
		}
	}
	return OpInvalid
}

// IsBinary reports whether o is an integer or FP binary operator.
func (o Opcode) IsBinary() bool {
	return (o >= OpAdd && o <= OpXor) || (o >= OpFAdd && o <= OpFDiv)
}

// IsIntBinary reports whether o is an integer binary operator.
func (o Opcode) IsIntBinary() bool { return o >= OpAdd && o <= OpXor }

// IsConversion reports whether o is a conversion (cast) operator.
func (o Opcode) IsConversion() bool { return o >= OpZExt && o <= OpIntToPtr }

// IsTerminator reports whether o terminates a basic block.
func (o Opcode) IsTerminator() bool { return o == OpBr || o == OpRet || o == OpUnreachable }

// IsCommutative reports whether the operands of o may be swapped.
func (o Opcode) IsCommutative() bool {
	switch o {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpFAdd, OpFMul:
		return true
	}
	return false
}

// IPred is an integer comparison predicate.
type IPred int

// Integer comparison predicates.
const (
	IPredInvalid IPred = iota
	EQ
	NE
	UGT
	UGE
	ULT
	ULE
	SGT
	SGE
	SLT
	SLE
)

var ipredNames = map[IPred]string{
	EQ: "eq", NE: "ne", UGT: "ugt", UGE: "uge", ULT: "ult", ULE: "ule",
	SGT: "sgt", SGE: "sge", SLT: "slt", SLE: "sle",
}

// Name returns the .ll spelling of the predicate.
func (p IPred) Name() string { return ipredNames[p] }

// IPredByName maps spellings to predicates; absent names map to IPredInvalid.
func IPredByName(s string) IPred {
	for p, n := range ipredNames {
		if n == s {
			return p
		}
	}
	return IPredInvalid
}

// Swapped returns the predicate with operands exchanged (e.g. slt -> sgt).
func (p IPred) Swapped() IPred {
	switch p {
	case UGT:
		return ULT
	case UGE:
		return ULE
	case ULT:
		return UGT
	case ULE:
		return UGE
	case SGT:
		return SLT
	case SGE:
		return SLE
	case SLT:
		return SGT
	case SLE:
		return SGE
	}
	return p
}

// Inverse returns the logical negation of the predicate.
func (p IPred) Inverse() IPred {
	switch p {
	case EQ:
		return NE
	case NE:
		return EQ
	case UGT:
		return ULE
	case UGE:
		return ULT
	case ULT:
		return UGE
	case ULE:
		return UGT
	case SGT:
		return SLE
	case SGE:
		return SLT
	case SLT:
		return SGE
	case SLE:
		return SGT
	}
	return IPredInvalid
}

// IsSigned reports whether the predicate compares signed values.
func (p IPred) IsSigned() bool { return p >= SGT && p <= SLE }

// FPred is a floating point comparison predicate.
type FPred int

// Floating point comparison predicates.
const (
	FPredInvalid FPred = iota
	FPredFalse
	OEQ
	OGT
	OGE
	OLT
	OLE
	ONE
	ORD
	UEQ
	FUGT
	FUGE
	FULT
	FULE
	UNE
	UNO
	FPredTrue
)

var fpredNames = map[FPred]string{
	FPredFalse: "false", OEQ: "oeq", OGT: "ogt", OGE: "oge", OLT: "olt",
	OLE: "ole", ONE: "one", ORD: "ord", UEQ: "ueq", FUGT: "ugt", FUGE: "uge",
	FULT: "ult", FULE: "ule", UNE: "une", UNO: "uno", FPredTrue: "true",
}

// Name returns the .ll spelling of the predicate.
func (p FPred) Name() string { return fpredNames[p] }

// FPredByName maps spellings to predicates; absent names map to FPredInvalid.
func FPredByName(s string) FPred {
	for p, n := range fpredNames {
		if n == s {
			return p
		}
	}
	return FPredInvalid
}

// Flags is the set of instruction attributes that refine poison semantics or
// call/GEP behaviour.
type Flags uint32

// Instruction flags.
const (
	NUW      Flags = 1 << iota // no unsigned wrap (add/sub/mul/shl/trunc/GEP)
	NSW                        // no signed wrap (add/sub/mul/shl/trunc)
	Exact                      // exact division / shift right
	Disjoint                   // or with provably disjoint bits
	Inbounds                   // GEP stays within its object
	NNeg                       // zext of a non-negative value
	Tail                       // tail call marker
	NoFlags  Flags = 0
)

// Has reports whether all bits of q are set in f.
func (f Flags) Has(q Flags) bool { return f&q == q }

// Instr is a single SSA instruction. An Instr that produces a value is itself
// the Value representing its result.
type Instr struct {
	Op     Opcode
	Nm     string  // result name without the leading %; "" for void-valued
	Ty     Type    // result type; Void for store/br/unreachable and void ret
	Args   []Value // operands (for phi: incoming values)
	IPredV IPred   // valid when Op == OpICmp
	FPredV FPred   // valid when Op == OpFCmp
	Flags  Flags
	Callee string   // intrinsic name, e.g. "llvm.umin.i32", when Op == OpCall
	ElemTy Type     // GEP source element type
	Align  int      // load/store alignment (0 = unspecified)
	Labels []string // br successors; phi incoming block names
}

func (i *Instr) Type() Type    { return i.Ty }
func (i *Instr) Ident() string { return "%" + i.Nm }

// HasResult reports whether the instruction defines an SSA value.
func (i *Instr) HasResult() bool { return !IsVoid(i.Ty) }

// IsTerminator reports whether the instruction ends a basic block.
func (i *Instr) IsTerminator() bool { return i.Op.IsTerminator() }

// HasSideEffects reports whether the instruction may not be removed even
// when its result is unused. Dead loads and divisions ARE removable: deleting
// an instruction that could only have triggered UB makes the function more
// defined, which is a legal refinement (and matches LLVM's trivially-dead
// rules for non-volatile loads).
func (i *Instr) HasSideEffects() bool {
	switch i.Op {
	case OpStore, OpBr, OpRet, OpUnreachable:
		return true
	}
	return false
}

// DependsOn reports whether any operand of i is exactly the value v.
func (i *Instr) DependsOn(v Value) bool {
	for _, a := range i.Args {
		if a == v {
			return true
		}
	}
	return false
}
