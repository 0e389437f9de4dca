package ir

// Block is a basic block: a label and a sequence of instructions, the last
// of which is a terminator in well-formed functions.
type Block struct {
	Name   string
	Instrs []*Instr
}

// Terminator returns the block's final instruction if it is a terminator,
// else nil.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if last.IsTerminator() {
		return last
	}
	return nil
}

// Func is an IR function definition.
type Func struct {
	Name   string
	Ret    Type
	Params []*Param
	Blocks []*Block
}

// Entry returns the function's entry block, or nil for declarations.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// BlockByName returns the block with the given label, or nil.
func (f *Func) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// NumInstrs counts the instructions in the function, excluding terminators
// when excludeTerminators is set (the paper's instruction-count metric
// ignores the ret appended by wrapping).
func (f *Func) NumInstrs(excludeTerminators bool) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if excludeTerminators && in.IsTerminator() {
				continue
			}
			n++
		}
	}
	return n
}

// Instrs returns all instructions in block order.
func (f *Func) Instrs() []*Instr {
	var out []*Instr
	for _, b := range f.Blocks {
		out = append(out, b.Instrs...)
	}
	return out
}

// Module is a translation unit: an ordered list of function definitions.
type Module struct {
	Name  string
	Funcs []*Func
}

// FuncByName returns the function with the given name, or nil.
func (m *Module) FuncByName(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// NewFunc builds a single-block function with the given instructions.
// The block is named "entry" implicitly (printed only when referenced).
func NewFunc(name string, ret Type, params []*Param, instrs []*Instr) *Func {
	return &Func{
		Name:   name,
		Ret:    ret,
		Params: params,
		Blocks: []*Block{{Name: "entry", Instrs: instrs}},
	}
}
