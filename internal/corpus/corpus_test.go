package corpus

import (
	"testing"

	"repro/internal/benchdata"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/parser"
)

func TestGenerateIsDeterministic(t *testing.T) {
	a := Generate(Options{Seed: 7})
	b := Generate(Options{Seed: 7})
	sa, sb := Summarize(a), Summarize(b)
	if sa != sb {
		t.Fatalf("same seed, different corpus: %+v vs %+v", sa, sb)
	}
	if ha, hb := corpusHash(a), corpusHash(b); ha != hb {
		t.Fatal("same seed must produce identical IR")
	}
	c := Generate(Options{Seed: 8})
	if corpusHash(a) == corpusHash(c) {
		t.Fatal("different seeds should differ")
	}
}

// TestGenerateGoldenHashes pins the generated IR of two seeds, so a change
// to how the corpus is built (such as sharing the filler templates) cannot
// silently change what a seeded campaign sees.
func TestGenerateGoldenHashes(t *testing.T) {
	for _, g := range []struct {
		seed uint64
		hash uint64
	}{
		{7, 0x12a3ad53e01842f3},
		{8, 0xc207f3806cb5f247},
	} {
		if h := corpusHash(Generate(Options{Seed: g.seed})); h != g.hash {
			t.Errorf("seed %d: corpus hash %#x, want %#x", g.seed, h, g.hash)
		}
	}
}

func corpusHash(ps []*Project) uint64 {
	var h uint64 = 1469598103934665603
	for _, p := range ps {
		for _, m := range p.Modules {
			for _, f := range m.Funcs {
				h = h*1099511628211 ^ ir.Hash(f)
			}
		}
	}
	return h
}

func TestFourteenProjectsWithLanguages(t *testing.T) {
	ps := Generate(Options{Seed: 1})
	if len(ps) != 14 {
		t.Fatalf("expected the paper's 14 projects, got %d", len(ps))
	}
	langs := map[string]int{}
	for _, p := range ps {
		langs[p.Language]++
	}
	if langs["C"] != 5 || langs["C++"] != 4 || langs["Rust"] != 5 {
		t.Fatalf("language mix wrong: %v", langs)
	}
}

func TestAllFunctionsVerify(t *testing.T) {
	for _, p := range Generate(Options{Seed: 2, ModulesPerProject: 2}) {
		for _, m := range p.Modules {
			if err := ir.VerifyModule(m); err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
		}
	}
}

func TestEveryFindingIsPlanted(t *testing.T) {
	ps := Generate(Options{Seed: 3})
	// Every RQ2 finding must appear at least once (its patch-impact scan
	// depends on that), matched by the canonicalized structural hash.
	want := map[uint64]string{}
	for _, f := range benchdata.RQ2Findings() {
		want[ir.Hash(opt.RunO3(parser.MustParseFunc(f.Pair.Src)))] = f.IssueID
	}
	seen := map[string]bool{}
	for _, p := range ps {
		for _, m := range p.Modules {
			for _, f := range m.Funcs {
				if id, ok := want[ir.Hash(opt.RunO3(f))]; ok {
					seen[id] = true
				}
			}
		}
	}
	for _, f := range benchdata.RQ2Findings() {
		if !seen[f.IssueID] {
			t.Errorf("finding %s never planted", f.IssueID)
		}
	}
}

func TestExtractionDuplicatesDominate(t *testing.T) {
	ps := Generate(Options{Seed: 4})
	ex := extract.New(extract.Options{})
	for _, p := range ps {
		for _, m := range p.Modules {
			ex.Module(m)
		}
	}
	st := ex.Stats()
	if st.Duplicates <= st.Kept {
		t.Fatalf("real optimized IR is highly repetitive; expected duplicates > kept, got %+v", st)
	}
}

func TestPrevalenceOrdering(t *testing.T) {
	// The clamp (143636) family must be planted more often than a
	// weight-one family, mirroring Table 5's prevalence shape.
	ps := Generate(Options{Seed: 5})
	count := func(issue string) int {
		pair := benchdata.FindingByID(issue).Pair
		h := ir.Hash(parser.MustParseFunc(pair.Src))
		n := 0
		for _, p := range ps {
			for _, m := range p.Modules {
				for _, f := range m.Funcs {
					if ir.Hash(f) == h {
						n++
					}
				}
			}
		}
		return n
	}
	if count("143636") < count("143649") {
		t.Fatalf("clamp should be more prevalent: %d vs %d", count("143636"), count("143649"))
	}
}
