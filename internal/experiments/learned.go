package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/alive"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/extract"
	"repro/internal/generalize"
	"repro/internal/llm"
	"repro/internal/opt"
)

// LearnedClosureOptions sizes the discovery→learn→re-optimize experiment.
type LearnedClosureOptions struct {
	Seed       uint64
	Rounds     int // discovery rounds per sequence (default 8)
	Workers    int
	CorpusOpts corpus.Options
}

func (o LearnedClosureOptions) withDefaults() LearnedClosureOptions {
	if o.Rounds == 0 {
		o.Rounds = 8
	}
	return o
}

// LearnedClosureRow is one learned rule's corpus impact.
type LearnedClosureRow struct {
	RuleID  string
	Doc     string
	Widths  []int
	Windows int // corpus windows the rule closes that baseline+patches miss
}

// LearnedClosureReport is the learned-rule closure table: how much stronger
// the optimizer is after one discovery campaign feeds its rulebook back.
type LearnedClosureReport struct {
	Rows    []LearnedClosureRow
	Learned int // distinct rules learned
	Found   int // verified findings during discovery

	Windows     int // unique corpus windows scanned
	BaseClosed  int // windows the baseline+patch rule set already improves
	ExtraClosed int // windows additionally improved only with the rulebook
}

// RunLearnedClosure closes the loop end to end on the synthetic corpus:
// a discovery run with the generalize hook learns a rulebook, then every
// extracted corpus window is re-optimized twice — once with the full
// baseline+patch rule set and once with the learned rules loaded on top —
// and the windows only the learned rules close are counted per rule. It is
// the experiment backing the ROADMAP's "learned rules must compound across
// runs" goal.
func RunLearnedClosure(opts LearnedClosureOptions) (*LearnedClosureReport, error) {
	opts = opts.withDefaults()
	rep := &LearnedClosureReport{}

	// Extract every unique window from the corpus once; discovery and the
	// closure scan share the list so the numbers line up.
	projects := corpus.Generate(opts.CorpusOpts)
	ex := extract.New(extract.Options{})
	var seqs []*extract.Sequence
	for _, p := range projects {
		for _, m := range p.Modules {
			seqs = append(seqs, ex.Module(m)...)
		}
	}
	rep.Windows = len(seqs)

	// Discovery with the learn hook.
	eng := engine.New(llm.NewSim("Gemini2.0T", opts.Seed), engine.Config{
		Workers: opts.Workers,
		Rounds:  opts.Rounds,
		Learn:   true,
		Verify:  alive.Options{Samples: 512, Seed: opts.Seed},
	})
	results, _ := eng.RunAll(context.Background(), engine.Sequences(seqs...))
	for _, r := range results {
		if r.Outcome == engine.Found {
			rep.Found++
		}
	}
	learned := eng.Learned()
	rep.Learned = len(learned)

	// Load the rulebook back (through the serialized form, so the scan
	// exercises exactly what a later run would load).
	data, err := eng.Rulebook().Encode()
	if err != nil {
		return nil, err
	}
	book, err := generalize.DecodeRulebook(data)
	if err != nil {
		return nil, err
	}
	compiled, err := book.Compile()
	if err != nil {
		return nil, err
	}
	ors, err := generalize.OptRules(compiled)
	if err != nil {
		return nil, err
	}
	baseSet := opt.NewRuleSet(opt.PatchIDs()...)
	learnedSet := baseSet.WithRules(ors...)

	perRule := make(map[string]int)
	for _, s := range seqs {
		base := opt.Run(s.Fn, opt.Options{Rules: baseSet})
		if base.NumInstrs(true) < s.Fn.NumInstrs(true) {
			rep.BaseClosed++
		}
		with, stats := opt.RunWithStats(s.Fn, opt.Options{Rules: learnedSet})
		if with.NumInstrs(true) >= base.NumInstrs(true) {
			continue
		}
		rep.ExtraClosed++
		for id := range stats.RuleHits {
			if r := learnedSet.RuleByID(id); r != nil && r.Provenance == opt.ProvLearned {
				perRule[id]++
			}
		}
	}
	for _, r := range compiled {
		rep.Rows = append(rep.Rows, LearnedClosureRow{
			RuleID: r.ID, Doc: r.Doc, Widths: r.Widths, Windows: perRule[r.ID],
		})
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].Windows != rep.Rows[j].Windows {
			return rep.Rows[i].Windows > rep.Rows[j].Windows
		}
		return rep.Rows[i].RuleID < rep.Rows[j].RuleID
	})
	return rep, nil
}

// Print renders the closure table.
func (r *LearnedClosureReport) Print(w io.Writer) {
	fmt.Fprintln(w, "Learned-rule closure: corpus windows closed by the rulebook that baseline+patches miss")
	fmt.Fprintf(w, "discovery: %d windows, %d verified findings, %d distinct rules learned\n",
		r.Windows, r.Found, r.Learned)
	fmt.Fprintf(w, "closure:   %d windows closed by baseline+patches, +%d more with the rulebook loaded\n",
		r.BaseClosed, r.ExtraClosed)
	fmt.Fprintf(w, "%-24s %-12s %8s   %s\n", "Rule", "Widths", "Windows", "Pattern")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s %-12s %8d   %s\n",
			row.RuleID, joinInts(row.Widths), row.Windows, row.Doc)
	}
}

func joinInts(xs []int) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", x)
	}
	return s
}
