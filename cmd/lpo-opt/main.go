// Command lpo-opt is the reproduction's `opt`: it parses .ll from a file or
// stdin, runs the baseline peephole pipeline (optionally with patch,
// knowledge-base or learned rules enabled), and prints the optimized module.
//
// The -rules flag lists the rule registry instead of optimizing: one line
// per rule with its ID, enable name, provenance (baseline rules are always
// on; patch and kb rules are enabled via -patches / -all-rules; learned
// rules come from -rulebook), the root opcodes it dispatches on, and the
// pattern it implements. -json renders the same listing machine-readably.
//
// The -rulebook flag loads rules learned by `lpo -learn` (see
// internal/generalize): the optimizer then closes every window the learned
// rules cover, which is how a discovery campaign's findings compound into
// later compiles.
//
// Usage:
//
//	lpo-opt [-patches 143636,163108] [-all-rules] [-rulebook book.json] [-workers N] [file.ll]
//	lpo-opt -rules [-json] [-rulebook book.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/generalize"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/parser"
)

func main() {
	patches := flag.String("patches", "", "comma-separated patch/rule names to enable")
	allRules := flag.Bool("all-rules", false, "enable every patch and knowledge-base rule")
	workers := flag.Int("workers", 0, "optimize functions in parallel (0 = one per CPU)")
	listRules := flag.Bool("rules", false, "list the rule registry with provenance and exit")
	jsonOut := flag.Bool("json", false, "with -rules: emit the registry as JSON")
	rulebook := flag.String("rulebook", "", "load learned rules from a rulebook file")
	flag.Parse()

	var learned []*opt.Rule
	if *rulebook != "" {
		var err error
		if learned, err = generalize.LoadOptRules(*rulebook); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *listRules {
		all := append(opt.Rules(), learned...)
		if *jsonOut {
			if err := printRulesJSON(os.Stdout, all); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		printRules(os.Stdout, all)
		return
	}

	var src []byte
	var err error
	if flag.NArg() > 0 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m, perr := parser.Parse(string(src))
	if perr != nil {
		fmt.Fprintln(os.Stderr, perr)
		os.Exit(1)
	}
	var rules []string
	if *allRules {
		rules = opt.AllRuleNames()
	} else if *patches != "" {
		rules = strings.Split(*patches, ",")
	}
	// The rule selection and its opcode-indexed dispatch table are built
	// once and shared by every worker; RuleSet is immutable after creation,
	// and learned rules join it through a copy-on-extend.
	rs := opt.NewRuleSet(rules...).WithRules(learned...)
	// Functions are optimized independently; ParMap fans them out and keeps
	// module order, so output is identical at every worker count.
	out := &ir.Module{Name: m.Name}
	out.Funcs = engine.ParMap(context.Background(), *workers, m.Funcs,
		func(_ context.Context, _ int, f *ir.Func) *ir.Func {
			return opt.Run(f, opt.Options{Rules: rs})
		})
	fmt.Print(out.String())
}

// printRules renders the registry, one rule per line, in dispatch order.
func printRules(w io.Writer, rules []*opt.Rule) {
	fmt.Fprintf(w, "%d registered rules (baseline always on; enable others with -patches or -all-rules; learned rules via -rulebook)\n",
		len(rules))
	fmt.Fprintf(w, "%-28s %-10s %-10s %-18s %s\n", "ID", "ENABLE", "PROV", "ROOTS", "PATTERN")
	for _, r := range rules {
		enable := r.Name
		if r.Provenance == opt.ProvBaseline {
			enable = "-"
		}
		fmt.Fprintf(w, "%-28s %-10s %-10s %-18s %s\n",
			r.ID, enable, r.Provenance, strings.Join(rootNames(r), ","), r.Doc)
	}
}

// ruleJSON is the machine-readable registry row (-rules -json).
type ruleJSON struct {
	ID         string   `json:"id"`
	Name       string   `json:"name"`
	Provenance string   `json:"provenance"`
	Roots      []string `json:"roots"`
	Doc        string   `json:"doc"`
}

// printRulesJSON emits the registry for tooling, same order as the listing.
func printRulesJSON(w io.Writer, rules []*opt.Rule) error {
	out := make([]ruleJSON, 0, len(rules))
	for _, r := range rules {
		out = append(out, ruleJSON{
			ID: r.ID, Name: r.Name, Provenance: string(r.Provenance),
			Roots: rootNames(r), Doc: r.Doc,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func rootNames(r *opt.Rule) []string {
	roots := make([]string, len(r.Roots))
	for i, op := range r.Roots {
		roots[i] = op.Name()
	}
	return roots
}
