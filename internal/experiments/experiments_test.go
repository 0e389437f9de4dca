package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/benchdata"
)

// The headline RQ1 reproduction: measured totals must match the paper's
// Table 2 Total row for every model, and the baselines must land exactly on
// the paper's counts.
func TestRQ1TotalsMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full RQ1 run is not short")
	}
	rep := RunRQ1(RQ1Options{Rounds: 5, Seed: 1})
	totals := rep.Totals()
	for model, want := range benchdata.PaperRQ1Totals {
		got := totals[model]
		// The simulator is stochastic per round; totals may wobble by one
		// benchmark around the calibration target.
		if absDiff(got.Minus, want.Minus) > 2 || absDiff(got.Plus, want.Plus) > 2 {
			t.Errorf("%s: measured totals %d/%d, paper %d/%d",
				model, got.Minus, got.Plus, want.Minus, want.Plus)
		}
		if got.Plus < got.Minus {
			t.Errorf("%s: LPO must dominate LPO-: %d/%d", model, got.Minus, got.Plus)
		}
	}
	d, e, tot, m := rep.BaselineTotals()
	want := benchdata.PaperRQ1Baselines
	if d != want.SouperDefault || e != want.SouperEnum || tot != want.SouperTotal || m != want.Minotaur {
		t.Errorf("baselines: measured %d/%d/%d/%d, paper %d/%d/%d/%d",
			d, e, tot, m, want.SouperDefault, want.SouperEnum, want.SouperTotal, want.Minotaur)
	}
	// Shape: reasoning models beat base models beat small open models.
	if !(totals["Gemini2.0T"].Plus > totals["Gemini2.0"].Plus &&
		totals["o4-mini"].Plus > totals["GPT-4.1"].Plus &&
		totals["Llama3.3"].Plus > totals["Gemma3"].Plus) {
		t.Errorf("model ordering broken: %+v", totals)
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "Table 2") {
		t.Error("report rendering broken")
	}
}

// raceEnabled is set by race_enabled_test.go when built with -race.
var raceEnabled bool

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

func TestRQ2AggregatesMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full RQ2 run is not short")
	}
	rep := RunRQ2(RQ2Options{Seed: 2})
	total, confirmed, fixed, dup, wontfix, sd, sdcf, se, secf, mn, mncf := rep.Counts()
	p := benchdata.PaperRQ2Counts
	if total != p.Total || confirmed != p.Confirmed || fixed != p.Fixed ||
		dup != p.Duplicate || wontfix != p.Wontfix {
		t.Errorf("status counts: got %d/%d/%d/%d/%d", total, confirmed, fixed, dup, wontfix)
	}
	if sd != p.SouperDefault || sdcf != p.SouperDefaultCF {
		t.Errorf("souper default: got %d (%d c/f), paper %d (%d c/f)", sd, sdcf, p.SouperDefault, p.SouperDefaultCF)
	}
	if se != p.SouperEnum || secf != p.SouperEnumCF {
		t.Errorf("souper enum: got %d (%d c/f), paper %d (%d c/f)", se, secf, p.SouperEnum, p.SouperEnumCF)
	}
	if mn != p.Minotaur || mncf != p.MinotaurCF {
		t.Errorf("minotaur: got %d (%d c/f), paper %d (%d c/f)", mn, mncf, p.Minotaur, p.MinotaurCF)
	}
	// Discovery must find the overwhelming majority of the 62 (the paper's
	// run was open-ended; ours is bounded by DiscoverRounds).
	if rep.Discovered < 55 {
		t.Errorf("discovery found only %d of 62", rep.Discovered)
	}
	// The corpus must exhibit heavy duplication like the real one.
	if rep.Extracted.Duplicates <= rep.Extracted.Kept {
		t.Errorf("expected duplicates to dominate: %+v", rep.Extracted)
	}
}

func TestRQ3ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full RQ3 run is not short")
	}
	rep := RunRQ3(RQ3Options{Sequences: 120, Seed: 3})
	byTool := map[string]RQ3Row{}
	for _, row := range rep.Rows {
		byTool[row.Tool] = row
	}
	llama := byTool["LPO/Llama3.3"].SecPerCase
	gemini := byTool["LPO/Gemini2.5"].SecPerCase
	sd := byTool["Souper/Default"].SecPerCase
	s1 := byTool["Souper/Enum=1"].SecPerCase
	s2 := byTool["Souper/Enum=2"].SecPerCase
	s3 := byTool["Souper/Enum=3"].SecPerCase
	// The paper's ordering: default < gemini < llama < enum1 < enum2 < enum3.
	if !(sd < gemini && gemini < llama && llama < s1 && s1 < s2 && s2 < s3) {
		t.Errorf("throughput ordering broken: default=%.1f gemini=%.1f llama=%.1f e1=%.1f e2=%.1f e3=%.1f",
			sd, gemini, llama, s1, s2, s3)
	}
	// Timeouts must grow with Enum.
	if !(byTool["Souper/Enum=1"].Timeouts <= byTool["Souper/Enum=2"].Timeouts &&
		byTool["Souper/Enum=2"].Timeouts <= byTool["Souper/Enum=3"].Timeouts) {
		t.Errorf("timeout ordering broken")
	}
	if byTool["LPO/Llama3.3"].Timeouts != 0 || byTool["LPO/Gemini2.5"].Timeouts != 0 {
		t.Error("LPO should not time out")
	}
}

func TestTable5ImpactShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table 5 run is not short")
	}
	rep := RunTable5(4)
	if len(rep.Rows) != 15 {
		t.Fatalf("expected 15 rows, got %d", len(rep.Rows))
	}
	byID := map[string]Table5Row{}
	for _, row := range rep.Rows {
		byID[row.PatchID] = row
	}
	// Shape: the clamp (143636) and absorption (163108 (1)) patches touch
	// the most files, as in the paper.
	big := byID["143636"].IRFiles
	for _, row := range rep.Rows {
		if row.PatchID == "143636" || row.PatchID == "163108 (1)" || row.PatchID == "163108 (2)" {
			continue
		}
		if row.IRFiles > big*3 {
			t.Errorf("unexpectedly large impact for %s: %d vs clamp %d", row.PatchID, row.IRFiles, big)
		}
	}
	for _, row := range rep.Rows {
		if row.IRFiles == 0 {
			t.Errorf("patch %s touches no corpus file — planting broken", row.PatchID)
		}
		if !raceEnabled && math.Abs(row.DeltaPct) > 50 {
			// Wall-clock deltas are meaningless under the race detector's
			// instrumentation overhead; only assert them in normal builds.
			t.Errorf("compile-time delta implausible for %s: %+.1f%%", row.PatchID, row.DeltaPct)
		}
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	header := strings.Split(buf.String(), "\n")[1]
	if want := "Patch             files   projects          dT%   paper-files  paper-prj    paper-dT%"; header != want {
		t.Errorf("table 5 header:\n got %q\nwant %q", header, want)
	}
}

func TestFigure5WithinNoise(t *testing.T) {
	rep, err := RunFigure5(300)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row.Speedup < 0.98 {
			t.Errorf("patch %s slows the suite down: %.3f", row.PatchID, row.Speedup)
		}
		if row.Speedup > 1.10 {
			t.Errorf("patch %s speedup implausibly large: %.3f", row.PatchID, row.Speedup)
		}
	}
	if rep.Yearly < 1.0 || rep.Yearly > 1.15 {
		t.Errorf("yearly comparison out of range: %.3f", rep.Yearly)
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "yearly") {
		t.Error("figure rendering broken")
	}
}

func TestFigure4CaseStudies(t *testing.T) {
	var buf bytes.Buffer
	if err := PrintFigure4(&buf, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"souper: unsupported (memory",
		"souper: unsupported (intrinsic @llvm.umax.i8 is not supported)",
		"souper: unsupported (floating point is not supported)",
		"minotaur: crashed",
		"minotaur: not found",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 4 output missing %q\n%s", want, out)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	PrintTable1(&buf)
	for _, m := range benchdata.ModelNames {
		if !strings.Contains(buf.String(), m) {
			t.Errorf("table 1 missing %s", m)
		}
	}
}
