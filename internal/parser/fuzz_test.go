package parser

import (
	"testing"

	"repro/internal/benchdata"
)

// FuzzParse feeds arbitrary text to the .ll parser, the front door of both
// lpo and lpod's POST /v1/windows: malformed input must come back as an
// error, never a panic, and every function of a module that does parse
// must print. testdata/fuzz/FuzzParse holds the crashers found so far.
func FuzzParse(f *testing.F) {
	f.Add("")
	f.Add("define <2 x i8> @f(<2 x i8> %x) {\n %s = shufflevector <2 x i8> %x, <2 x i8> %x, <2 x i32> <i32 1, i32 0>\n ret <2 x i8> %s\n}")
	for _, fig := range paperFuncs {
		f.Add(fig)
	}
	for i, c := range benchdata.RQ1Cases() {
		if i%8 == 0 {
			f.Add(c.Pair.Src)
			f.Add(c.Pair.Tgt)
		}
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
