package extract

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/parser"
)

// streamCorpus extracts every module of the synthetic corpus for seed, in
// order, and returns the hashes of the kept sequences in yield order.
func streamCorpus(e *Extractor, seed uint64) []uint64 {
	var kept []uint64
	for _, p := range corpus.Generate(corpus.Options{Seed: seed}) {
		for _, m := range p.Modules {
			e.Stream(m, func(s *Sequence) bool {
				kept = append(kept, ir.Hash(s.Fn))
				return true
			})
		}
	}
	return kept
}

// hashListDigest is the FNV-1a digest of the hashes, in order.
func hashListDigest(hs []uint64) uint64 {
	f := fnv.New64a()
	for _, h := range hs {
		f.Write(binary.LittleEndian.AppendUint64(nil, h))
	}
	return f.Sum64()
}

// TestStreamStatsGolden pins what extracting the campaign corpora gives:
// the counters and the ordered list of kept sequences, measured before
// the memo existed.
func TestStreamStatsGolden(t *testing.T) {
	golden := []struct {
		seed   uint64
		stats  Stats
		digest uint64
	}{
		{501, Stats{Sequences: 2160, TooShort: 938, Optimizable: 203, Duplicates: 901, Kept: 118}, 0xd0de64d8eadb7c1d},
		{502, Stats{Sequences: 2135, TooShort: 930, Optimizable: 189, Duplicates: 898, Kept: 118}, 0x06d096941cc092fd},
		{503, Stats{Sequences: 2106, TooShort: 953, Optimizable: 189, Duplicates: 846, Kept: 118}, 0x24e0569398916b65},
	}
	for _, g := range golden {
		e := New(Options{})
		kept := streamCorpus(e, g.seed)
		if st := e.Stats(); st != g.stats {
			t.Errorf("seed %d: stats %+v, want %+v", g.seed, st, g.stats)
		}
		if len(kept) != g.stats.Kept {
			t.Errorf("seed %d: %d sequences yielded, want %d", g.seed, len(kept), g.stats.Kept)
		}
		if d := hashListDigest(kept); d != g.digest {
			t.Errorf("seed %d: kept-hash list digest %#x, want %#x", g.seed, d, g.digest)
		}
	}
}

// unmemoized is the extraction loop without the memo: every sequence of
// every function is wrapped, optimized and claimed. The memo must give
// what it gives, count for count and sequence for sequence.
type unmemoized struct {
	opts  Options
	dedup map[uint64]bool
	stats Stats
}

func newUnmemoized() *unmemoized {
	return &unmemoized{opts: Options{MinLen: 2}, dedup: make(map[uint64]bool)}
}

func (u *unmemoized) stream(m *ir.Module, yield func(*Sequence) bool) {
	for _, f := range m.Funcs {
		for _, bb := range f.Blocks {
			for _, seq := range SeqsFromBlock(bb) {
				u.stats.Sequences++
				if len(seq) < u.opts.MinLen {
					u.stats.TooShort++
					continue
				}
				wrapped, err := WrapAsFunc(seq, "src")
				if err != nil {
					u.stats.Unsupported++
					continue
				}
				optimized := opt.Run(wrapped, u.opts.Opt)
				if optimized.NumInstrs(true) < wrapped.NumInstrs(true) {
					u.stats.Optimizable++
					continue
				}
				if !ir.StructurallyEqual(optimized, wrapped) {
					wrapped = optimized
				}
				h := ir.Hash(wrapped)
				if u.dedup[h] {
					u.stats.Duplicates++
					continue
				}
				u.dedup[h] = true
				u.stats.Kept++
				if !yield(&Sequence{Fn: wrapped, Module: m.Name, Func: f.Name, Block: bb.Name, Len: len(seq)}) {
					return
				}
			}
		}
	}
}

func mustParse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// seqKey is what a consumer sees of a yielded sequence.
type seqKey struct {
	text, module, fn, block string
	n                       int
}

func keyOf(s *Sequence) seqKey { return seqKey{s.Fn.String(), s.Module, s.Func, s.Block, s.Len} }

// collect streams the modules through stream and returns what it yields.
func collect(stream func(*ir.Module, func(*Sequence) bool), mods ...*ir.Module) []seqKey {
	var out []seqKey
	for _, m := range mods {
		stream(m, func(s *Sequence) bool {
			out = append(out, keyOf(s))
			return true
		})
	}
	return out
}

func sameSeqs(t *testing.T, what string, got, want []seqKey) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sequences yielded, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: sequence %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func TestMemoMatchesUnmemoizedOnCorpus(t *testing.T) {
	for _, seed := range []uint64{4, 501, 777} {
		var mods []*ir.Module
		for _, p := range corpus.Generate(corpus.Options{Seed: seed}) {
			mods = append(mods, p.Modules...)
		}
		e, u := New(Options{}), newUnmemoized()
		sameSeqs(t, "corpus", collect(e.Stream, mods...), collect(u.stream, mods...))
		if e.Stats() != u.stats {
			t.Fatalf("seed %d: stats %+v, unmemoized %+v", seed, e.Stats(), u.stats)
		}
		if len(e.memo) == 0 {
			t.Fatalf("seed %d: nothing memoized", seed)
		}
	}
}

const memoModule = `define i32 @f(i32 %x, i32 %y) {
  %s = add i32 7, %x
  %m = mul i32 %s, %y
  %n = xor i32 %m, %x
  %d = add i32 %x, 10
  %e = add i32 %d, 20
  %z = or i32 %y, %e
  %u = shl i32 %y, 3
  %v = sub i32 %u, %x
  ret i32 %n
}
`

// renamedCopy is memoModule's function under other function, parameter
// and value names: structurally equal, so it shares its memo entry.
const renamedCopy = `define i32 @g(i32 %p, i32 %q) {
  %t0 = add i32 7, %p
  %t1 = mul i32 %t0, %q
  %t2 = xor i32 %t1, %p
  %t3 = add i32 %p, 10
  %t4 = add i32 %t3, 20
  %t5 = or i32 %q, %t4
  %t6 = shl i32 %q, 3
  %t7 = sub i32 %t6, %p
  ret i32 %t2
}
`

// TestStreamTwiceYieldsNothing streams one module twice, then a renamed
// copy of its function: the repeats yield nothing, hit the memo, and
// leave the counts the unmemoized loop gives.
func TestStreamTwiceYieldsNothing(t *testing.T) {
	m := mustParse(t, memoModule)
	c := mustParse(t, renamedCopy)
	e, u := New(Options{}), newUnmemoized()
	first := collect(e.Stream, m)
	sameSeqs(t, "first stream", first, collect(u.stream, m))
	if len(first) == 0 {
		t.Fatal("test module yields no sequences")
	}
	for _, mod := range []*ir.Module{m, c} {
		if got := collect(e.Stream, mod); len(got) != 0 {
			t.Fatalf("repeat of @%s yielded %+v", mod.Funcs[0].Name, got)
		}
		collect(u.stream, mod)
		if e.Stats() != u.stats {
			t.Fatalf("after @%s: stats %+v, unmemoized %+v", mod.Funcs[0].Name, e.Stats(), u.stats)
		}
	}
	if len(e.memo) != 1 {
		t.Fatalf("the renamed copy should share the memo entry; memo has %d", len(e.memo))
	}
	st := e.Stats()
	if st.Kept != len(first) || st.Optimizable != 3 || st.Duplicates != 2*len(first) {
		t.Fatalf("stats %+v after three passes over %d kept sequences", st, len(first))
	}
}

// TestMemoSkipsNameDependentFunctions covers the one place names reach
// extraction: a result named like a wrapped parameter, or two results
// sharing a name, fail WrapAsFunc's verify, so such a function neither
// reads nor writes the memo.
func TestMemoSkipsNameDependentFunctions(t *testing.T) {
	clash := mustParse(t, `define i32 @h(i32 %p, i32 %q) {
  %a1 = add i32 7, %p
  %t1 = mul i32 %a1, %q
  %t2 = xor i32 %t1, %p
  %t3 = add i32 %p, 10
  %t4 = add i32 %t3, 20
  %t5 = or i32 %q, %t4
  %t6 = shl i32 %q, 3
  %t7 = sub i32 %t6, %p
  ret i32 %t2
}
`)
	// The parser rejects a repeated name, so build one: %m renamed to %s.
	dup := mustParse(t, memoModule)
	dup.Funcs[0].Blocks[0].Instrs[1].Nm = "s"
	if namesSafe(clash.Funcs[0]) || namesSafe(dup.Funcs[0]) || !namesSafe(mustParse(t, renamedCopy).Funcs[0]) {
		t.Fatal("namesSafe misjudges a name clash")
	}
	if ir.Hash(clash.Funcs[0]) != ir.Hash(mustParse(t, memoModule).Funcs[0]) {
		t.Fatal("the clash must be structurally equal to memoModule")
	}
	mods := []*ir.Module{mustParse(t, memoModule), clash, dup, clash, dup, mustParse(t, memoModule)}
	e, u := New(Options{}), newUnmemoized()
	sameSeqs(t, "clash", collect(e.Stream, mods...), collect(u.stream, mods...))
	if e.Stats() != u.stats || u.stats.Unsupported == 0 {
		t.Fatalf("stats %+v, unmemoized %+v (want an Unsupported clash)", e.Stats(), u.stats)
	}
}

// TestStoppedStreamRecordsNoTally stops a Stream at its first kept
// sequence: the function is not memoized, so streaming it again extracts
// the sequences the stop left unclaimed.
func TestStoppedStreamRecordsNoTally(t *testing.T) {
	m := mustParse(t, memoModule)
	e, u := New(Options{}), newUnmemoized()
	stop := func(stream func(*ir.Module, func(*Sequence) bool)) []seqKey {
		var out []seqKey
		stream(m, func(s *Sequence) bool {
			out = append(out, keyOf(s))
			return false
		})
		return out
	}
	sameSeqs(t, "stopped", stop(e.Stream), stop(u.stream))
	if len(e.memo) != 0 {
		t.Fatalf("a stopped function was memoized: %+v", e.memo)
	}
	rest := collect(e.Stream, m)
	sameSeqs(t, "rest", rest, collect(u.stream, m))
	if len(rest) == 0 {
		t.Fatal("the rerun should yield the sequences the stop left unclaimed")
	}
	if e.Stats() != u.stats {
		t.Fatalf("stats %+v, unmemoized %+v", e.Stats(), u.stats)
	}
}
