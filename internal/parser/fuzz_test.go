package parser

import (
	"sort"
	"testing"

	"repro/internal/benchdata"
)

// FuzzParse feeds arbitrary text to the .ll parser, the front door of both
// lpo and lpod's POST /v1/windows: malformed input must come back as an
// error, never a panic, and every function of a module that does parse
// must print. testdata/fuzz/FuzzParse holds the crashers found so far.
func FuzzParse(f *testing.F) {
	for _, src := range fuzzParseSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		if err != nil {
			return
		}
		for _, fn := range m.Funcs {
			_ = fn.String()
		}
	})
}

// fuzzParseSeeds is FuzzParse's seed corpus, in a fixed order (the paper
// figures sorted by name).
func fuzzParseSeeds() []string {
	seeds := []string{
		"",
		"define <2 x i8> @f(<2 x i8> %x) {\n %s = shufflevector <2 x i8> %x, <2 x i8> %x, <2 x i32> <i32 1, i32 0>\n ret <2 x i8> %s\n}",
	}
	names := make([]string, 0, len(paperFuncs))
	for name := range paperFuncs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		seeds = append(seeds, paperFuncs[name])
	}
	for i, c := range benchdata.RQ1Cases() {
		if i%8 == 0 {
			seeds = append(seeds, c.Pair.Src, c.Pair.Tgt)
		}
	}
	return seeds
}
