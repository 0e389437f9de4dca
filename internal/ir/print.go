package ir

import (
	"fmt"
	"strings"
)

// TypedOperand renders "type ident", e.g. "i32 %x".
func TypedOperand(v Value) string { return v.Type().String() + " " + v.Ident() }

// flagNames spells each instruction flag as .ll prints it.
var flagNames = map[Flags]string{
	NUW: "nuw", NSW: "nsw", Exact: "exact", Disjoint: "disjoint",
	Inbounds: "inbounds", NNeg: "nneg",
}

// flagStr renders the flags of f that appear in order, each with a leading
// space.
func flagStr(f Flags, order ...Flags) string {
	var sb strings.Builder
	for _, q := range order {
		if f.Has(q) {
			sb.WriteString(" ")
			sb.WriteString(flagNames[q])
		}
	}
	return sb.String()
}

// String renders the instruction in .ll syntax (one line, no indentation).
func (i *Instr) String() string {
	var sb strings.Builder
	if i.HasResult() {
		sb.WriteString("%" + i.Nm + " = ")
	}
	switch {
	case i.Op.IsIntBinary():
		sb.WriteString(i.Op.Name())
		switch i.Op {
		case OpAdd, OpSub, OpMul, OpShl:
			sb.WriteString(flagStr(i.Flags, NUW, NSW))
		case OpUDiv, OpSDiv, OpLShr, OpAShr:
			sb.WriteString(flagStr(i.Flags, Exact))
		case OpOr:
			sb.WriteString(flagStr(i.Flags, Disjoint))
		}
		fmt.Fprintf(&sb, " %s %s, %s", i.Ty, i.Args[0].Ident(), i.Args[1].Ident())

	case i.Op == OpFAdd || i.Op == OpFSub || i.Op == OpFMul || i.Op == OpFDiv:
		fmt.Fprintf(&sb, "%s %s %s, %s", i.Op.Name(), i.Ty, i.Args[0].Ident(), i.Args[1].Ident())

	case i.Op == OpFNeg:
		fmt.Fprintf(&sb, "fneg %s %s", i.Ty, i.Args[0].Ident())

	case i.Op == OpICmp:
		fmt.Fprintf(&sb, "icmp %s %s %s, %s", i.IPredV.Name(), i.Args[0].Type(), i.Args[0].Ident(), i.Args[1].Ident())

	case i.Op == OpFCmp:
		fmt.Fprintf(&sb, "fcmp %s %s %s, %s", i.FPredV.Name(), i.Args[0].Type(), i.Args[0].Ident(), i.Args[1].Ident())

	case i.Op == OpSelect:
		fmt.Fprintf(&sb, "select %s, %s, %s",
			TypedOperand(i.Args[0]), TypedOperand(i.Args[1]), TypedOperand(i.Args[2]))

	case i.Op == OpFreeze:
		fmt.Fprintf(&sb, "freeze %s", TypedOperand(i.Args[0]))

	case i.Op.IsConversion():
		sb.WriteString(i.Op.Name())
		switch i.Op {
		case OpTrunc:
			sb.WriteString(flagStr(i.Flags, NUW, NSW))
		case OpZExt:
			sb.WriteString(flagStr(i.Flags, NNeg))
		}
		fmt.Fprintf(&sb, " %s to %s", TypedOperand(i.Args[0]), i.Ty)

	case i.Op == OpGEP:
		sb.WriteString("getelementptr")
		sb.WriteString(flagStr(i.Flags, Inbounds, NUW))
		fmt.Fprintf(&sb, " %s, %s", i.ElemTy, TypedOperand(i.Args[0]))
		for _, idx := range i.Args[1:] {
			fmt.Fprintf(&sb, ", %s", TypedOperand(idx))
		}

	case i.Op == OpLoad:
		fmt.Fprintf(&sb, "load %s, %s", i.Ty, TypedOperand(i.Args[0]))
		if i.Align > 0 {
			fmt.Fprintf(&sb, ", align %d", i.Align)
		}

	case i.Op == OpStore:
		fmt.Fprintf(&sb, "store %s, %s", TypedOperand(i.Args[0]), TypedOperand(i.Args[1]))
		if i.Align > 0 {
			fmt.Fprintf(&sb, ", align %d", i.Align)
		}

	case i.Op == OpCall:
		if i.Flags.Has(Tail) {
			sb.WriteString("tail ")
		}
		fmt.Fprintf(&sb, "call %s @%s(", i.Ty, i.Callee)
		for k, a := range i.Args {
			if k > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(TypedOperand(a))
		}
		sb.WriteString(")")

	case i.Op == OpExtractElt:
		fmt.Fprintf(&sb, "extractelement %s, %s", TypedOperand(i.Args[0]), TypedOperand(i.Args[1]))

	case i.Op == OpInsertElt:
		fmt.Fprintf(&sb, "insertelement %s, %s, %s",
			TypedOperand(i.Args[0]), TypedOperand(i.Args[1]), TypedOperand(i.Args[2]))

	case i.Op == OpShuffle:
		fmt.Fprintf(&sb, "shufflevector %s, %s, %s",
			TypedOperand(i.Args[0]), TypedOperand(i.Args[1]), TypedOperand(i.Args[2]))

	case i.Op == OpPhi:
		fmt.Fprintf(&sb, "phi %s ", i.Ty)
		for k := range i.Args {
			if k > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "[ %s, %%%s ]", i.Args[k].Ident(), i.Labels[k])
		}

	case i.Op == OpBr:
		if len(i.Args) == 0 {
			fmt.Fprintf(&sb, "br label %%%s", i.Labels[0])
		} else {
			fmt.Fprintf(&sb, "br %s, label %%%s, label %%%s",
				TypedOperand(i.Args[0]), i.Labels[0], i.Labels[1])
		}

	case i.Op == OpRet:
		if len(i.Args) == 0 {
			sb.WriteString("ret void")
		} else {
			fmt.Fprintf(&sb, "ret %s", TypedOperand(i.Args[0]))
		}

	case i.Op == OpUnreachable:
		sb.WriteString("unreachable")

	default:
		fmt.Fprintf(&sb, "<invalid op %d>", i.Op)
	}
	return sb.String()
}

// String renders the function definition in .ll syntax.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "define %s @%s(", f.Ret, f.Name)
	for k, p := range f.Params {
		if k > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %%%s", p.Ty, p.Nm)
	}
	sb.WriteString(") {\n")
	for bi, b := range f.Blocks {
		if bi > 0 || len(f.Blocks) > 1 {
			sb.WriteString(b.Name + ":\n")
		}
		for _, in := range b.Instrs {
			sb.WriteString("  " + in.String() + "\n")
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// String renders the whole module.
func (m *Module) String() string {
	var sb strings.Builder
	for k, f := range m.Funcs {
		if k > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(f.String())
	}
	return sb.String()
}
