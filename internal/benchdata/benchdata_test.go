package benchdata

import (
	"testing"

	"repro/internal/alive"
	"repro/internal/ir"
	"repro/internal/mca"
	"repro/internal/opt"
	"repro/internal/parser"
)

// checkPair validates the core contract of every registry entry: both sides
// parse, the target refines the source, the baseline optimizer cannot already
// shrink the source (otherwise it would not be a *missed* optimization), and
// the target is "interesting" (fewer instructions, fewer estimated cycles,
// or at least syntactically different at equal size).
func checkPair(t *testing.T, id string, p Pair) {
	t.Helper()
	src, err := parser.ParseFunc(p.Src)
	if err != nil {
		t.Fatalf("%s: src does not parse: %v\n%s", id, err, p.Src)
	}
	tgt, err := parser.ParseFunc(p.Tgt)
	if err != nil {
		t.Fatalf("%s: tgt does not parse: %v\n%s", id, err, p.Tgt)
	}
	optimized := opt.RunO3(src)
	if optimized.NumInstrs(true) < src.NumInstrs(true) {
		t.Fatalf("%s: baseline optimizer already improves the source:\n%s\n->\n%s",
			id, src, optimized)
	}
	r := alive.Verify(src, tgt, alive.Options{Seed: 42, Samples: 1024})
	if r.Verdict != alive.Correct {
		msg := r.Err
		if r.CE != nil {
			msg = r.CE.Format()
		}
		t.Fatalf("%s: target does not refine source:\n%s", id, msg)
	}
	model := mca.BTVer2()
	sr, tr := mca.Analyze(src, model), mca.Analyze(tgt, model)
	interesting := tr.Instructions < sr.Instructions ||
		tr.TotalCycles < sr.TotalCycles ||
		(tr.Instructions == sr.Instructions && tr.TotalCycles == sr.TotalCycles &&
			ir.Hash(src) != ir.Hash(tgt))
	if !interesting {
		t.Fatalf("%s: target is not interesting: src %d instrs/%d cycles, tgt %d instrs/%d cycles",
			id, sr.Instructions, sr.TotalCycles, tr.Instructions, tr.TotalCycles)
	}
}

func TestRQ1PairsAreValid(t *testing.T) {
	cases := RQ1Cases()
	if len(cases) != 25 {
		t.Fatalf("expected 25 RQ1 cases, got %d", len(cases))
	}
	seen := make(map[string]bool)
	for _, c := range cases {
		if seen[c.IssueID] {
			t.Fatalf("duplicate issue ID %s", c.IssueID)
		}
		seen[c.IssueID] = true
		t.Run(c.IssueID, func(t *testing.T) { checkPair(t, c.IssueID, c.Pair) })
	}
}

func TestRQ1CalibrationMatchesPaperTotals(t *testing.T) {
	totals := make(map[string]Cell)
	sums := make(map[string][2]int)
	for _, c := range RQ1Cases() {
		for model, cell := range c.Cal {
			if cell.Minus > cell.Plus {
				t.Fatalf("%s/%s: LPO- count %d exceeds LPO count %d",
					c.IssueID, model, cell.Minus, cell.Plus)
			}
			if cell.Plus > 5 || cell.Minus < 0 {
				t.Fatalf("%s/%s: counts out of range", c.IssueID, model)
			}
			tot := totals[model]
			if cell.Minus > 0 {
				tot.Minus++
			}
			if cell.Plus > 0 {
				tot.Plus++
			}
			totals[model] = tot
			s := sums[model]
			s[0] += cell.Minus
			s[1] += cell.Plus
			sums[model] = s
		}
	}
	for model, want := range PaperRQ1Totals {
		if totals[model] != want {
			t.Errorf("%s: totals = %+v, paper says %+v", model, totals[model], want)
		}
	}
	for model, want := range PaperRQ1Averages {
		// Average per round x10 = sum * 10 / 5 = sum * 2.
		got := [2]int{sums[model][0] * 2, sums[model][1] * 2}
		if got != want {
			t.Errorf("%s: averages x10 = %v, paper says %v", model, got, want)
		}
	}
}

func TestRQ2FindingsAreValid(t *testing.T) {
	findings := RQ2Findings()
	if len(findings) != 62 {
		t.Fatalf("expected 62 findings, got %d", len(findings))
	}
	seen := make(map[string]bool)
	for _, f := range findings {
		if seen[f.IssueID] {
			t.Fatalf("duplicate issue ID %s", f.IssueID)
		}
		seen[f.IssueID] = true
		t.Run(f.IssueID, func(t *testing.T) { checkPair(t, f.IssueID, f.Pair) })
	}
}

func TestRQ2StatusCountsMatchPaper(t *testing.T) {
	counts := make(map[Status]int)
	for _, f := range RQ2Findings() {
		counts[f.Status]++
	}
	want := PaperRQ2Counts
	if counts[Confirmed] != want.Confirmed || counts[Fixed] != want.Fixed ||
		counts[Duplicate] != want.Duplicate || counts[Wontfix] != want.Wontfix ||
		counts[Unconfirmed] != want.Unconfirmed {
		t.Fatalf("status counts %v do not match the paper's 28/13/4/3/14", counts)
	}
}

func TestTable5ReferencesRealPatches(t *testing.T) {
	known := make(map[string]bool)
	for _, id := range opt.PatchIDs() {
		known[id] = true
	}
	rows := Table5()
	if len(rows) != 15 {
		t.Fatalf("Table 5 should have 15 patch rows, got %d", len(rows))
	}
	for _, row := range rows {
		if !known[row.IssueID] {
			t.Errorf("Table 5 row %s references unknown patch %s", row.PatchID, row.IssueID)
		}
		if FindingByID(row.IssueID) == nil {
			t.Errorf("Table 5 row %s has no RQ2 finding", row.PatchID)
		}
		if FindingByID(row.IssueID).Status != Fixed {
			t.Errorf("Table 5 row %s should reference a Fixed issue", row.PatchID)
		}
	}
}

// The full knowledge base (patch rules + kb rules) must rewrite every
// registry source into something that refines it — this is what the
// simulated LLM emits as a candidate when it "finds" an optimization.
func TestKnowledgeBaseCoversAllCases(t *testing.T) {
	all := opt.AllRuleNames()
	check := func(t *testing.T, id string, p Pair) {
		t.Helper()
		src := parser.MustParseFunc(p.Src)
		ideal := opt.Run(src, opt.Options{Rules: opt.NewRuleSet(all...)})
		if ir.Hash(ideal) == ir.Hash(src) {
			t.Fatalf("%s: knowledge base has no rewrite for:\n%s", id, src)
		}
		r := alive.Verify(src, ideal, alive.Options{Seed: 11, Samples: 1024})
		if r.Verdict != alive.Correct {
			t.Fatalf("%s: knowledge base rewrite does not refine:\n%s\n%s", id, ideal, r.CE.Format())
		}
	}
	for _, c := range RQ1Cases() {
		t.Run("rq1-"+c.IssueID, func(t *testing.T) { check(t, c.IssueID, c.Pair) })
	}
	for _, f := range RQ2Findings() {
		t.Run("rq2-"+f.IssueID, func(t *testing.T) { check(t, f.IssueID, f.Pair) })
	}
}

// Every fixed RQ2 finding must be optimized by its own patch rule: enabling
// the patch must make the baseline optimizer rewrite the source.
func TestPatchesCoverFixedFindings(t *testing.T) {
	for _, f := range RQ2Findings() {
		if f.Status != Fixed {
			continue
		}
		t.Run(f.IssueID, func(t *testing.T) {
			src := parser.MustParseFunc(f.Pair.Src)
			patched := opt.Run(src, opt.Options{Rules: opt.NewRuleSet(f.IssueID)})
			if ir.Hash(patched) == ir.Hash(src) {
				t.Fatalf("patch %s does not fire on its own finding:\n%s", f.IssueID, src)
			}
			r := alive.Verify(src, patched, alive.Options{Seed: 9, Samples: 1024})
			if r.Verdict != alive.Correct {
				t.Fatalf("patch %s output does not refine:\n%s\n%s", f.IssueID, patched, r.CE.Format())
			}
		})
	}
}
