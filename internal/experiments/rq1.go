// Package experiments regenerates every table and figure of the paper's
// evaluation section from the substrate implementations: Table 1 (models),
// Table 2 (RQ1), Table 3 (RQ2), Table 4 (RQ3), Table 5 (patch impact) and
// Figure 5 (SPEC runtime), plus the Figure 3/4 walkthroughs used by the
// examples.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/alive"
	"repro/internal/benchdata"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/llm"
	"repro/internal/minotaur"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/souper"
)

// RQ1Options sizes the Table 2 run.
type RQ1Options struct {
	Rounds  int    // paper: 5
	Seed    uint64 // provider seed
	Workers int    // engine worker pool (default GOMAXPROCS)
}

func (o RQ1Options) withDefaults() RQ1Options {
	if o.Rounds == 0 {
		o.Rounds = 5
	}
	return o
}

// RQ1Cell is the measured (LPO-, LPO) detection count for one benchmark and
// model.
type RQ1Cell struct{ Minus, Plus int }

// RQ1Report is the measured Table 2.
type RQ1Report struct {
	Rounds   int
	Models   []string
	Cases    []string
	Cells    map[string]map[string]RQ1Cell // issue -> model -> cell
	SouperD  map[string]bool
	SouperE  map[string]bool
	Minotaur map[string]bool
	// Attribution maps each benchmark to the registry rules (sorted IDs)
	// that close it — the rule-level answer to "which missed optimization
	// is this".
	Attribution map[string][]string
}

// RunRQ1 reproduces Table 2: every benchmark is run Rounds times per model
// with the full loop (LPO) and without feedback (LPO-), and each baseline is
// run once per benchmark.
func RunRQ1(opts RQ1Options) *RQ1Report {
	opts = opts.withDefaults()
	cases := benchdata.RQ1Cases()
	rep := &RQ1Report{
		Rounds: opts.Rounds, Models: benchdata.ModelNames,
		Cells:   make(map[string]map[string]RQ1Cell),
		SouperD: make(map[string]bool), SouperE: make(map[string]bool),
		Minotaur: make(map[string]bool),
	}
	verify := alive.Options{Samples: 512, Seed: opts.Seed}
	// Benchmarks enter the pipeline in canonical form, exactly like
	// extracted sequences do (the extractor folds opt's canonicalization
	// into the kept window).
	canon := make(map[string]*ir.Func, len(cases))
	kb := opt.FullRuleSet()
	rep.Attribution = make(map[string][]string, len(cases))
	for _, c := range cases {
		canon[c.IssueID] = opt.RunO3(parser.MustParseFunc(c.Pair.Src))
		rep.Attribution[c.IssueID] = opt.AttributedIDs(canon[c.IssueID], kb)
	}
	for _, c := range cases {
		rep.Cases = append(rep.Cases, c.IssueID)
		rep.Cells[c.IssueID] = make(map[string]RQ1Cell)
		src := canon[c.IssueID]
		// Baselines.
		if souper.Optimize(src, souper.Options{Enum: 0, Seed: opts.Seed}).Found {
			rep.SouperD[c.IssueID] = true
		}
		for e := 1; e <= 3; e++ {
			if souper.Optimize(src, souper.Options{Enum: e, Seed: opts.Seed}).Found {
				rep.SouperE[c.IssueID] = true
				break
			}
		}
		if minotaur.Optimize(src, minotaur.Options{Seed: opts.Seed}).Found {
			rep.Minotaur[c.IssueID] = true
		}
	}
	// Per-round detection counts. Each (case, round, variant) trip through
	// the loop is independent, so both engine variants fan the cases out
	// across their worker pool with AllRounds recording every round's
	// outcome; ordered reassembly keeps cells aligned with the case list.
	ctx := context.Background()
	srcs := make([]*ir.Func, len(cases))
	for i, c := range cases {
		srcs[i] = canon[c.IssueID]
	}
	for _, model := range rep.Models {
		sim := llm.NewSim(model, opts.Seed)
		for _, c := range cases {
			src := canon[c.IssueID]
			if cell, ok := c.Cal[model]; ok {
				sim.Calibrate(ir.Hash(src), llm.Calibration{Minus: cell.Minus, Plus: cell.Plus})
			} else {
				sim.Calibrate(ir.Hash(src), llm.Calibration{})
			}
		}
		base := engine.Config{Verify: verify, Workers: opts.Workers,
			Rounds: opts.Rounds, AllRounds: true}
		fullCfg, minusCfg := base, base
		fullCfg.AttemptLimit = 2
		minusCfg.AttemptLimit = 1
		full, _ := engine.New(sim, fullCfg).RunAll(ctx, engine.Funcs(srcs...))
		minus, _ := engine.New(sim, minusCfg).RunAll(ctx, engine.Funcs(srcs...))
		for i, c := range cases {
			cell := RQ1Cell{}
			for _, o := range minus[i].RoundOutcomes {
				if o == engine.Found {
					cell.Minus++
				}
			}
			for _, o := range full[i].RoundOutcomes {
				if o == engine.Found {
					cell.Plus++
				}
			}
			rep.Cells[c.IssueID][model] = cell
		}
	}
	return rep
}

// Totals returns (LPO-, LPO) benchmarks detected at least once, per model.
func (r *RQ1Report) Totals() map[string]RQ1Cell {
	out := make(map[string]RQ1Cell)
	for _, model := range r.Models {
		var t RQ1Cell
		for _, id := range r.Cases {
			c := r.Cells[id][model]
			if c.Minus > 0 {
				t.Minus++
			}
			if c.Plus > 0 {
				t.Plus++
			}
		}
		out[model] = t
	}
	return out
}

// Averages returns average successes per round x100, per model.
func (r *RQ1Report) Averages() map[string][2]int {
	out := make(map[string][2]int)
	for _, model := range r.Models {
		sm, sp := 0, 0
		for _, id := range r.Cases {
			c := r.Cells[id][model]
			sm += c.Minus
			sp += c.Plus
		}
		out[model] = [2]int{sm * 100 / r.Rounds, sp * 100 / r.Rounds}
	}
	return out
}

// BaselineTotals returns (souper default, souper enum, souper total,
// minotaur) detections.
func (r *RQ1Report) BaselineTotals() (int, int, int, int) {
	total := map[string]bool{}
	for id := range r.SouperD {
		total[id] = true
	}
	for id := range r.SouperE {
		total[id] = true
	}
	return len(r.SouperD), len(r.SouperE), len(total), len(r.Minotaur)
}

// Print renders the measured Table 2 next to the paper's summary rows.
func (r *RQ1Report) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 2: detection of 25 previously reported missed optimizations (%d rounds)\n", r.Rounds)
	fmt.Fprintf(w, "%-8s", "Issue")
	for _, m := range r.Models {
		fmt.Fprintf(w, " %14s", m+" (-/+)")
	}
	fmt.Fprintf(w, " %8s %8s %8s\n", "SouperD", "SouperE", "Minotaur")
	ids := append([]string(nil), r.Cases...)
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "%-8s", id)
		for _, m := range r.Models {
			c := r.Cells[id][m]
			if c.Minus == 0 && c.Plus == 0 {
				fmt.Fprintf(w, " %14s", "")
			} else {
				fmt.Fprintf(w, " %14s", fmt.Sprintf("%d/%d", c.Minus, c.Plus))
			}
		}
		mark := func(b bool) string {
			if b {
				return "yes"
			}
			return ""
		}
		fmt.Fprintf(w, " %8s %8s %8s\n", mark(r.SouperD[id]), mark(r.SouperE[id]), mark(r.Minotaur[id]))
	}
	fmt.Fprintf(w, "%-8s", "Total")
	totals := r.Totals()
	for _, m := range r.Models {
		t := totals[m]
		fmt.Fprintf(w, " %14s", fmt.Sprintf("%d/%d", t.Minus, t.Plus))
	}
	d, e, tot, mino := r.BaselineTotals()
	fmt.Fprintf(w, " %8d %8d %8d\n", d, e, mino)
	fmt.Fprintf(w, "(souper total incl. default-only: %d)\n", tot)
	fmt.Fprintf(w, "%-8s", "Avg")
	avgs := r.Averages()
	for _, m := range r.Models {
		a := avgs[m]
		fmt.Fprintf(w, " %14s", fmt.Sprintf("%.1f/%.1f", float64(a[0])/100, float64(a[1])/100))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Paper totals: Gemma3 2/3, Llama3.3 6/7, Gemini2.0 7/11, Gemini2.0T 14/21, GPT-4.1 7/12, o4-mini 14/18; Souper 3/14 (15 total), Minotaur 3")
	header := false
	for _, id := range ids {
		if len(r.Attribution[id]) == 0 {
			continue // no registry rule closes this benchmark
		}
		if !header {
			fmt.Fprintln(w, "Rule attribution (registry rule closing each benchmark):")
			header = true
		}
		fmt.Fprintf(w, "  %-8s %s\n", id, strings.Join(r.Attribution[id], ", "))
	}
}
