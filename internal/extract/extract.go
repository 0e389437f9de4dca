// Package extract implements the paper's Algorithm 2: harvesting all unique
// dependent instruction sequences from the basic blocks of LLVM IR modules,
// wrapping each sequence as a standalone function, filtering out sequences
// the baseline optimizer can already improve, and deduplicating by structural
// hash.
package extract

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/ir"
	"repro/internal/opt"
)

// Options configures an Extractor.
type Options struct {
	// MinLen drops sequences shorter than this many instructions
	// (default 2 — single instructions rarely manifest missed peepholes and
	// dominate the sequence count otherwise).
	MinLen int
	// Opt configures the "can LLVM already optimize this?" filter.
	Opt opt.Options
}

// Sequence is one wrapped instruction sequence with its provenance.
type Sequence struct {
	Fn     *ir.Func // the wrapped function (canonicalized)
	Module string
	Func   string
	Block  string
	Len    int // original sequence length (before wrapping)
}

// Stats counts the fate of extracted sequences across an Extractor's
// lifetime (paper: ~800 K unique sequences, ~8.7 M duplicates eliminated).
type Stats struct {
	Sequences   int // raw dependent sequences found
	TooShort    int // dropped: shorter than MinLen
	Optimizable int // dropped: baseline opt already improves them
	Duplicates  int // dropped: structural hash already seen
	Kept        int
	Unsupported int // dropped: not wrappable (phi/label operands, void mid-results)
}

// Extractor holds the cross-module dedup set. The dedup set, the memo and
// the counters are guarded by a mutex, so one Extractor may be shared
// across concurrent extraction workers (the engine's streaming sources do
// exactly that); deduplication stays global across all of them.
type Extractor struct {
	opts  Options
	mu    sync.Mutex
	dedup map[uint64]bool
	stats Stats
	// memo holds the tally of each function extracted to its end, keyed by
	// ir.Hash of the function; see (*Extractor).function.
	memo map[uint64]Stats
}

// New returns an Extractor with an empty dedup set.
func New(opts Options) *Extractor {
	if opts.MinLen == 0 {
		opts.MinLen = 2
	}
	return &Extractor{opts: opts, dedup: make(map[uint64]bool), memo: make(map[uint64]Stats)}
}

// Stats returns a copy of the running counters. Counts are added once per
// function, when its extraction ends or stops.
func (e *Extractor) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// claim atomically tests-and-inserts a structural hash into the dedup set,
// reporting whether the caller owns the first sighting.
func (e *Extractor) claim(digest uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dedup[digest] {
		return false
	}
	e.dedup[digest] = true
	return true
}

// Module extracts all unique, not-already-optimizable sequences from m.
func (e *Extractor) Module(m *ir.Module) []*Sequence {
	var out []*Sequence
	e.Stream(m, func(s *Sequence) bool {
		out = append(out, s)
		return true
	})
	return out
}

// Stream extracts sequences from m and hands each kept one to yield as soon
// as it is found, without materializing the whole slice. Extraction stops
// early when yield returns false. Stream is safe to call concurrently on
// different modules of the same Extractor.
//
// A function structurally equal to one already extracted to its end (the
// corpus repeats a few templates across hundreds of functions) is not
// extracted again: its counts are replayed from the memo and it yields
// nothing, which is what extracting it would give.
func (e *Extractor) Stream(m *ir.Module, yield func(*Sequence) bool) {
	for _, f := range m.Funcs {
		if !e.function(m, f, yield) {
			return
		}
	}
}

// function extracts f's sequences, reporting false when yield stopped it.
//
// The memo is exact. Extraction reads what ir.Hash covers (opcodes, flags,
// types, predicates, callees, element types and operand structure) plus
// value names and Align. No opt rule tests Align; one only copies it into
// the instruction it builds. Names matter only where WrapAsFunc's verify
// rejects a repeated one, so the memo is used only for functions whose
// result names are distinct and none of the a<N> form parameters take
// (namesSafe). Two such functions with one hash therefore give equal
// counts, and every sequence of the later one that reaches claim hashes
// like one the earlier one claimed, which is in the dedup set: each is a
// duplicate, and nothing is yielded. A function stopped by yield records
// nothing, since its later sequences were never claimed.
func (e *Extractor) function(m *ir.Module, f *ir.Func, yield func(*Sequence) bool) bool {
	memoize := namesSafe(f)
	var key uint64
	if memoize {
		key = ir.Hash(f)
		e.mu.Lock()
		t, seen := e.memo[key]
		if seen {
			t.Duplicates += t.Kept
			t.Kept = 0
			e.stats.add(t)
		}
		e.mu.Unlock()
		if seen {
			return true
		}
	}
	t, done := e.sequences(m, f, yield)
	e.mu.Lock()
	e.stats.add(t)
	if done && memoize {
		e.memo[key] = t
	}
	e.mu.Unlock()
	return done
}

// sequences runs Algorithm 2 over f's blocks and returns f's tally,
// reporting false when yield stopped it.
func (e *Extractor) sequences(m *ir.Module, f *ir.Func, yield func(*Sequence) bool) (t Stats, done bool) {
	for _, bb := range f.Blocks {
		for _, seq := range SeqsFromBlock(bb) {
			t.Sequences++
			if len(seq) < e.opts.MinLen {
				t.TooShort++
				continue
			}
			wrapped, err := WrapAsFunc(seq, "src")
			if err != nil {
				t.Unsupported++
				continue
			}
			// Line 7-8 of Alg. 2: if LLVM can further optimize the
			// isolated sequence, skip it — the missed-optimization
			// search should only see code the compiler thinks is final.
			optimized := opt.Run(wrapped, e.opts.Opt)
			if optimized.NumInstrs(true) < wrapped.NumInstrs(true) {
				t.Optimizable++
				continue
			}
			// Pure canonicalization (same size, different shape) is
			// folded into the kept sequence so every consumer sees the
			// canonical form.
			if !ir.StructurallyEqual(optimized, wrapped) {
				wrapped = optimized
			}
			if !e.claim(ir.Hash(wrapped)) {
				t.Duplicates++
				continue
			}
			t.Kept++
			if !yield(&Sequence{
				Fn: wrapped, Module: m.Name, Func: f.Name, Block: bb.Name, Len: len(seq),
			}) {
				return t, false
			}
		}
	}
	return t, true
}

func (s *Stats) add(t Stats) {
	s.Sequences += t.Sequences
	s.TooShort += t.TooShort
	s.Optimizable += t.Optimizable
	s.Duplicates += t.Duplicates
	s.Kept += t.Kept
	s.Unsupported += t.Unsupported
}

// namesSafe reports whether no sequence of f can fail WrapAsFunc's verify
// on a name: f's result names are distinct and none has the form a<digits>
// that WrapAsFunc gives parameters.
func namesSafe(f *ir.Func) bool {
	var buf [32]string
	names := buf[:0]
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !in.HasResult() {
				continue
			}
			if len(in.Nm) > 1 && in.Nm[0] == 'a' && strings.Trim(in.Nm[1:], "0123456789") == "" {
				return false
			}
			names = append(names, in.Nm)
		}
	}
	slices.Sort(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			return false
		}
	}
	return true
}

// SeqsFromBlock is the paper's ExtractSeqsFromBB: it walks the block's
// instructions in reverse order and grows every dependent sequence that uses
// the current instruction's result, creating a fresh sequence when nothing
// does. Terminators and phis are skipped (LPO targets straight-line windows;
// phi inputs become function arguments when wrapping).
func SeqsFromBlock(bb *ir.Block) [][]*ir.Instr {
	var seqSet [][]*ir.Instr
	for i := len(bb.Instrs) - 1; i >= 0; i-- {
		inst := bb.Instrs[i]
		if inst.IsTerminator() || inst.Op == ir.OpPhi {
			continue
		}
		added := false
		newSet := make([][]*ir.Instr, 0, len(seqSet)+1)
		for _, seq := range seqSet {
			if dependsOn(seq, inst) {
				grown := make([]*ir.Instr, 0, len(seq)+1)
				grown = append(grown, inst)
				grown = append(grown, seq...)
				newSet = append(newSet, grown)
				added = true
			} else {
				newSet = append(newSet, seq)
			}
		}
		if !added {
			newSet = append(newSet, []*ir.Instr{inst})
		}
		seqSet = newSet
	}
	return seqSet
}

// dependsOn reports whether any instruction in seq uses inst's result.
func dependsOn(seq []*ir.Instr, inst *ir.Instr) bool {
	for _, s := range seq {
		if s.DependsOn(inst) {
			return true
		}
	}
	return false
}

// WrapAsFunc turns a dependent instruction sequence into a standalone
// function: operands not defined inside the sequence become parameters
// (named a0, a1, ... in order of first use), and a return of the last
// value-producing instruction is appended (ret void if the sequence ends in
// a store).
func WrapAsFunc(seq []*ir.Instr, name string) (*ir.Func, error) {
	inSeq := make(map[*ir.Instr]bool, len(seq))
	for _, in := range seq {
		inSeq[in] = true
	}
	vmap := make(map[ir.Value]ir.Value)
	var params []*ir.Param
	paramFor := func(v ir.Value) (ir.Value, error) {
		if m, ok := vmap[v]; ok {
			return m, nil
		}
		if _, isLabel := v.Type().(ir.LabelType); isLabel {
			return nil, fmt.Errorf("extract: label operand cannot become a parameter")
		}
		if ir.IsVoid(v.Type()) {
			return nil, fmt.Errorf("extract: void operand cannot become a parameter")
		}
		p := &ir.Param{Nm: "a" + itoa(len(params)), Ty: v.Type()}
		params = append(params, p)
		vmap[v] = p
		return p, nil
	}
	var instrs []*ir.Instr
	for _, in := range seq {
		ni := &ir.Instr{
			Op: in.Op, Nm: in.Nm, Ty: in.Ty, IPredV: in.IPredV, FPredV: in.FPredV,
			Flags: in.Flags, Callee: in.Callee, ElemTy: in.ElemTy, Align: in.Align,
		}
		for _, a := range in.Args {
			switch {
			case ir.IsConst(a):
				ni.Args = append(ni.Args, a)
			default:
				if def, ok := a.(*ir.Instr); ok && inSeq[def] {
					ni.Args = append(ni.Args, vmap[def])
					continue
				}
				p, err := paramFor(a)
				if err != nil {
					return nil, err
				}
				ni.Args = append(ni.Args, p)
			}
		}
		vmap[in] = ni
		instrs = append(instrs, ni)
	}
	last := instrs[len(instrs)-1]
	var ret ir.Type = ir.Void
	if last.HasResult() {
		ret = last.Ty
		instrs = append(instrs, ir.RetI(last))
	} else {
		instrs = append(instrs, ir.RetVoid())
	}
	f := &ir.Func{Name: name, Ret: ret, Params: params,
		Blocks: []*ir.Block{{Name: "entry", Instrs: instrs}}}
	if err := ir.VerifyFunc(f); err != nil {
		return nil, err
	}
	return f, nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
