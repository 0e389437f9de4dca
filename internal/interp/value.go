// Package interp is a concrete evaluator for the IR subset: it executes
// functions on explicit inputs with Alive2-compatible poison and undefined
// behaviour semantics. It backs the refinement verifier (internal/alive),
// the superoptimizer baselines' counterexample-guided search, and the SPEC
// performance simulation.
//
// Three engines share the per-opcode and per-lane kernels. Exec walks the
// IR tree on one input vector and is the oracle. Compile lowers a function
// into a Program that an Evaluator runs lane-batched (batch.go): every
// program, 64 vectors per run, with a full Result per lane on request. A
// Program that is packable — straight-line scalar integers of at most 64
// bits, every instruction a specialized batch kind (packed.go) — also runs
// on the packed tier, several vectors per uint64 word, which reports only
// each lane's value, poison and UB; callers that need a reason or a Result
// for a lane re-run it on the batch engine.
package interp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ir"
)

// Word is one scalar lane: a bit pattern plus a poison marker. Floating
// point lanes store IEEE bits at the lane's width.
type Word struct {
	V      uint64
	Poison bool
}

// RVal is a runtime value: one lane for scalars, N lanes for vectors.
type RVal struct {
	Ty    ir.Type
	Lanes []Word
}

// Scalar builds a single-lane runtime value, masking to the type's width.
func Scalar(ty ir.Type, v uint64) RVal {
	return RVal{Ty: ty, Lanes: []Word{{V: v & ir.MaskW(ir.ScalarBits(ty))}}}
}

// PoisonRV builds an all-poison value of the given type.
func PoisonRV(ty ir.Type) RVal {
	n := ir.Lanes(ty)
	lanes := make([]Word, n)
	for i := range lanes {
		lanes[i].Poison = true
	}
	return RVal{Ty: ty, Lanes: lanes}
}

// VecOf builds a vector value from raw lane patterns.
func VecOf(ty ir.VecType, vals ...uint64) RVal {
	mask := ir.MaskW(ir.ScalarBits(ty.Elem))
	lanes := make([]Word, len(vals))
	for i, v := range vals {
		lanes[i] = Word{V: v & mask}
	}
	return RVal{Ty: ty, Lanes: lanes}
}

// Clone returns a deep copy of v. Use it to retain values that alias an
// Evaluator's scratch storage beyond its next run.
func (v RVal) Clone() RVal {
	if v.Lanes == nil {
		return v
	}
	return RVal{Ty: v.Ty, Lanes: append([]Word(nil), v.Lanes...)}
}

// AnyPoison reports whether any lane of v is poison.
func (v RVal) AnyPoison() bool {
	for _, l := range v.Lanes {
		if l.Poison {
			return true
		}
	}
	return false
}

// Format renders the value for counterexample messages, e.g.
// "i32 -1 (0xFFFFFFFF)" or "<4 x i8> { 0, poison, 3, 0 }".
func (v RVal) Format() string {
	if v.Ty == nil {
		return "void"
	}
	elem := ir.Elem(v.Ty)
	w := ir.ScalarBits(elem)
	one := func(l Word) string {
		if l.Poison {
			return "poison"
		}
		if ir.IsFloat(elem) {
			return fmt.Sprintf("%g", loadFloat(w, l.V))
		}
		return fmt.Sprintf("%d (0x%0*X)", ir.SignExt(l.V, w), (w+3)/4, l.V)
	}
	if !ir.IsVector(v.Ty) {
		return v.Ty.String() + " " + one(v.Lanes[0])
	}
	parts := make([]string, len(v.Lanes))
	for i, l := range v.Lanes {
		parts[i] = one(l)
	}
	return v.Ty.String() + " { " + strings.Join(parts, ", ") + " }"
}

// Equal reports lane-wise bit equality (poison lanes compare equal only to
// poison lanes). It is used by tests, not by refinement (which has
// asymmetric rules).
func (v RVal) Equal(o RVal) bool {
	if len(v.Lanes) != len(o.Lanes) {
		return false
	}
	for i := range v.Lanes {
		if v.Lanes[i].Poison != o.Lanes[i].Poison {
			return false
		}
		if !v.Lanes[i].Poison && v.Lanes[i].V != o.Lanes[i].V {
			return false
		}
	}
	return true
}

// loadFloat decodes IEEE bits at width w (32 or 64) into a float64.
func loadFloat(w int, bits uint64) float64 {
	if w == 32 {
		return float64(math.Float32frombits(uint32(bits)))
	}
	return math.Float64frombits(bits)
}

// storeFloat encodes f into IEEE bits at width w.
func storeFloat(w int, f float64) uint64 {
	if w == 32 {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}
