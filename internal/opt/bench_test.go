package opt

import (
	"sort"
	"testing"

	"repro/internal/parser"
)

// dispatchSrc is a straight-line function chosen so that no rule fires: the
// benchmark then measures pure dispatch cost (guard checks and rule lookup),
// which is what the registry refactor changed. Every instruction still has
// candidate rules rooted at its opcode, so both strategies do real work.
const dispatchSrc = `define i32 @f(i32 %x, i32 %y) {
  %a = add i32 %x, %y
  %b = xor i32 %a, %y
  %c = or i32 %b, %x
  %d = and i32 %c, %y
  %e = shl i32 %d, %x
  %s = sub i32 %e, %x
  %g = icmp ult i32 %s, %y
  %h = select i1 %g, i32 %s, i32 %x
  %m = call i32 @llvm.umin.i32(i32 %h, i32 %y)
  ret i32 %m
}`

// BenchmarkRewriteDispatch compares the seed dispatch strategy (re-sort the
// enabled rule names and scan every optional rule, per instruction) against
// the registry's opcode-indexed tables, with all patches and the full
// knowledge base enabled. The acceptance bar of the registry refactor is
// that opcode-index is no slower than seed-linear-scan.
func BenchmarkRewriteDispatch(b *testing.B) {
	f := parser.MustParseFunc(dispatchSrc)
	all := AllRuleNames()
	rs := NewRuleSet(all...)
	tr := &transform{src: f, fn: f, rs: rs}
	instrs := f.Instrs()

	b.Run("opcode-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, in := range instrs {
				if _, _, ok := tr.applyRules(in, nil); ok {
					b.Fatal("benchmark function must be a dispatch no-op")
				}
			}
		}
	})

	// The seed path: the hardcoded baseline rewrite chain, then the enabled
	// optional names re-sorted per instruction and every one of their rules
	// scanned regardless of root opcode (rewrite.go:33-48 at the seed).
	enabled := make(map[string]bool, len(all))
	for _, n := range all {
		enabled[n] = true
	}
	baselineChain := []ruleFn{
		rewriteSelectToMinMax, rewriteSelectBoolInvert, rewriteZextOfTrunc,
		rewriteAndOfZextCover, rewriteUdivUremPow2,
	}
	b.Run("seed-linear-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, in := range instrs {
				fired := false
				for _, fn := range baselineChain {
					if _, _, ok := fn(tr, in, nil); ok {
						fired = true
						break
					}
				}
				if !fired && len(enabled) > 0 {
					names := make([]string, 0, len(enabled))
					for n := range enabled {
						names = append(names, n)
					}
					sort.Strings(names)
				scan:
					for _, n := range names {
						for _, r := range optionalByName[n] {
							if _, _, ok := r.apply(tr, in, nil); ok {
								fired = true
								break scan
							}
						}
					}
				}
				if fired {
					b.Fatal("benchmark function must be a dispatch no-op")
				}
			}
		}
	})
}

// BenchmarkRuleSetBuild measures the once-per-Run cost of resolving Options
// into an opcode-indexed RuleSet with everything enabled.
func BenchmarkRuleSetBuild(b *testing.B) {
	all := AllRuleNames()
	for i := 0; i < b.N; i++ {
		NewRuleSet(all...)
	}
}
