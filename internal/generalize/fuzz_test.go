package generalize

import (
	"slices"
	"testing"

	"repro/internal/parser"
)

// ciRulebook is the book `lpo -rounds 8 -seed 1 -learn` learns from the
// and/or/xor window of the CI rulebook smoke.
const ciRulebook = `{
  "version": 1,
  "rules": [
    {
      "id": "learned:2641985be8f04aef",
      "doc": "xor(and(%a0, %a1), or(%a0, %a1)) -> xor(%a0, %a1)",
      "witness_width": 16,
      "verified_widths": [
        8,
        16,
        32,
        64
      ],
      "src": "define i16 @src(i16 %a0, i16 %a1) {\n  %a = and i16 %a0, %a1\n  %o = or i16 %a0, %a1\n  %r = xor i16 %a, %o\n  ret i16 %r\n}\n",
      "tgt": "define i16 @src(i16 %a0, i16 %a1) {\n  %t0 = xor i16 %a0, %a1\n  ret i16 %t0\n}\n",
      "slots": null,
      "side_conditions": [
        "w in {8,16,32,64}"
      ]
    }
  ]
}
`

// FuzzRulebook feeds arbitrary bytes through the load path lpo-opt
// -rulebook takes (DecodeRulebook, Compile, OptRules): each step must
// return an error or its result, never panic. A book that compiles must
// re-encode to bytes that decode and compile to the same entries.
func FuzzRulebook(f *testing.F) {
	f.Add([]byte(ciRulebook))
	// A rule with a width-derived mask slot, so the slot checks are seeded.
	res := Generalize(parser.MustParseFunc(`define i8 @src(i8 %x) {
  %a = shl i8 %x, 3
  %b = lshr i8 %a, 3
  ret i8 %b
}`), parser.MustParseFunc(`define i8 @tgt(i8 %x) {
  %r = and i8 %x, 31
  ret i8 %r
}`), Options{})
	if res.Rule == nil {
		f.Fatalf("seed rule rejected: %s", res.Reason)
	}
	data, err := NewRulebook([]*Rule{res.Rule}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	f.Fuzz(func(t *testing.T, data []byte) {
		book, err := DecodeRulebook(data)
		if err != nil {
			return
		}
		rules, err := book.Compile()
		if err != nil {
			return
		}
		if _, err := OptRules(rules); err != nil {
			return
		}
		enc, err := NewRulebook(rules).Encode()
		if err != nil {
			t.Fatalf("encode a compiled book: %v", err)
		}
		back, err := DecodeRulebook(enc)
		if err != nil {
			t.Fatalf("decode a re-encoded book: %v", err)
		}
		again, err := back.Compile()
		if err != nil {
			t.Fatalf("compile a re-encoded book: %v", err)
		}
		enc2, err := NewRulebook(again).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("re-encoded book does not round-trip:\n%s\n--vs--\n%s", enc, enc2)
		}
		ids := func(es []Entry) []string {
			var out []string
			for _, e := range es {
				out = append(out, e.ID)
			}
			slices.Sort(out)
			return out
		}
		if got, want := ids(back.Rules), ids(book.Rules); !slices.Equal(got, want) {
			t.Fatalf("re-encoded book holds rules %v, want %v", got, want)
		}
	})
}
