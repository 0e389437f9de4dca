package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/alive"
	"repro/internal/benchdata"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/llm"
	"repro/internal/minotaur"
	"repro/internal/parser"
	"repro/internal/souper"
)

// RQ2Options sizes the Table 3 run.
type RQ2Options struct {
	Seed           uint64
	DiscoverRounds int // LPO rounds per sequence during discovery (default 25)
	Workers        int // engine worker pool (default GOMAXPROCS)
}

func (o RQ2Options) withDefaults() RQ2Options {
	if o.DiscoverRounds == 0 {
		o.DiscoverRounds = 25
	}
	return o
}

// RQ2Row is one measured Table 3 row.
type RQ2Row struct {
	IssueID       string
	Status        benchdata.Status
	Family        string
	Discovered    bool     // found by the LPO discovery run over the corpus
	Rules         []string // registry rules (sorted IDs) that closed the finding
	SouperDefault bool
	SouperEnum    bool
	SouperTimeout bool // enum timed out at every level
	Minotaur      bool
	MinotaurCrash bool
}

// RQ2Report is the measured Table 3 plus corpus statistics.
type RQ2Report struct {
	Rows        []RQ2Row
	Extracted   extract.Stats
	CorpusStats corpus.Stats
	Discovered  int
}

// RunRQ2 reproduces Table 3: generate the corpus, extract unique sequences,
// run LPO discovery over the sequences that correspond to registry findings,
// and run the baselines on every finding.
func RunRQ2(opts RQ2Options) *RQ2Report {
	opts = opts.withDefaults()
	rep := &RQ2Report{}

	projects := corpus.Generate(corpus.Options{})
	rep.CorpusStats = corpus.Summarize(projects)
	ex := extract.New(extract.Options{})
	byHash := make(map[uint64]*extract.Sequence)
	for _, p := range projects {
		for _, m := range p.Modules {
			for _, s := range ex.Module(m) {
				byHash[ir.Hash(s.Fn)] = s
			}
		}
	}
	rep.Extracted = ex.Stats()

	sim := llm.NewSim("Llama3.3", opts.Seed) // the paper's long-running local model
	eng := engine.New(sim, engine.Config{
		Verify:  alive.Options{Samples: 512, Seed: opts.Seed},
		Workers: opts.Workers,
		Rounds:  opts.DiscoverRounds,
	})

	// Discovery: the registry instance must be present in the corpus
	// extraction (possibly canonicalized); then the engine must find it
	// within the round budget. Findings fan out across the worker pool;
	// ordered reassembly keeps results aligned with the findings list.
	findings := benchdata.RQ2Findings()
	srcs := make([]*ir.Func, len(findings))
	targets := make([]*ir.Func, len(findings))
	for i, f := range findings {
		srcs[i] = parser.MustParseFunc(f.Pair.Src)
		targets[i] = srcs[i]
		if s, ok := byHash[ir.Hash(srcs[i])]; ok {
			targets[i] = s.Fn
		}
	}
	discovered, _ := eng.RunAll(context.Background(), engine.Funcs(targets...))

	for i, f := range findings {
		row := RQ2Row{IssueID: f.IssueID, Status: f.Status, Family: f.Family}
		src := srcs[i]
		if discovered[i].Outcome == engine.Found {
			row.Discovered = true
			rep.Discovered++
			for id := range discovered[i].RuleHits {
				row.Rules = append(row.Rules, id)
			}
			sort.Strings(row.Rules)
		}

		// Baselines.
		if souper.Optimize(src, souper.Options{Enum: 0, Seed: opts.Seed}).Found {
			row.SouperDefault = true
		}
		timeouts := 0
		for e := 1; e <= 3; e++ {
			r := souper.Optimize(src, souper.Options{Enum: e, Seed: opts.Seed})
			if r.Found {
				row.SouperEnum = true
				break
			}
			if r.TimedOut {
				timeouts++
			}
		}
		row.SouperTimeout = !row.SouperEnum && timeouts == 3
		mr := minotaur.Optimize(src, minotaur.Options{Seed: opts.Seed})
		row.Minotaur = mr.Found
		row.MinotaurCrash = mr.Crashed
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// Counts aggregates the measured Table 3 statistics the paper reports.
func (r *RQ2Report) Counts() (total, confirmed, fixed, dup, wontfix int,
	souperD, souperDCF, souperE, souperECF, mino, minoCF int) {
	cf := func(s benchdata.Status) bool {
		return s == benchdata.Confirmed || s == benchdata.Fixed
	}
	for _, row := range r.Rows {
		total++
		switch row.Status {
		case benchdata.Confirmed:
			confirmed++
		case benchdata.Fixed:
			fixed++
		case benchdata.Duplicate:
			dup++
		case benchdata.Wontfix:
			wontfix++
		}
		if row.SouperDefault {
			souperD++
			if cf(row.Status) {
				souperDCF++
			}
		}
		if row.SouperEnum {
			souperE++
			if cf(row.Status) {
				souperECF++
			}
		}
		if row.Minotaur {
			mino++
			if cf(row.Status) {
				minoCF++
			}
		}
	}
	return
}

// Print renders the measured Table 3.
func (r *RQ2Report) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 3: %d missed optimizations found by LPO and reported to LLVM\n", len(r.Rows))
	fmt.Fprintf(w, "corpus: %d projects, %d modules, %d functions; extraction: %d raw sequences, %d duplicates eliminated, %d unique kept\n",
		r.CorpusStats.Projects, r.CorpusStats.Modules, r.CorpusStats.Funcs,
		r.Extracted.Sequences, r.Extracted.Duplicates, r.Extracted.Kept)
	fmt.Fprintf(w, "%-8s %-12s %-20s %-10s %-8s %-10s %-10s %s\n",
		"Issue", "Status", "Family", "LPO", "SouperD", "SouperE", "Minotaur", "Rule(s)")
	for _, row := range r.Rows {
		mark := func(b bool) string {
			if b {
				return "yes"
			}
			return ""
		}
		enum := mark(row.SouperEnum)
		if row.SouperTimeout {
			enum = "timeout"
		}
		mino := mark(row.Minotaur)
		if row.MinotaurCrash {
			mino = "crash"
		}
		fmt.Fprintf(w, "%-8s %-12s %-20s %-10s %-8s %-10s %-10s %s\n",
			row.IssueID, row.Status, row.Family, mark(row.Discovered),
			mark(row.SouperDefault), enum, mino, strings.Join(row.Rules, ","))
	}
	total, confirmed, fixed, dup, wontfix, sd, sdcf, se, secf, mn, mncf := r.Counts()
	fmt.Fprintf(w, "Measured: total %d, confirmed %d, fixed %d, duplicates %d, wontfix %d, discovered %d\n",
		total, confirmed, fixed, dup, wontfix, r.Discovered)
	fmt.Fprintf(w, "Baselines: SouperDefault %d (%d c/f), SouperEnum %d (%d c/f), Minotaur %d (%d c/f)\n",
		sd, sdcf, se, secf, mn, mncf)
	p := benchdata.PaperRQ2Counts
	fmt.Fprintf(w, "Paper:     SouperDefault %d (%d c/f), SouperEnum %d (%d c/f), Minotaur %d (%d c/f)\n",
		p.SouperDefault, p.SouperDefaultCF, p.SouperEnum, p.SouperEnumCF, p.Minotaur, p.MinotaurCF)
}
