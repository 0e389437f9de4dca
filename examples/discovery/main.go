// Discovery runs a miniature RQ2 on the concurrent engine: the synthetic
// corpus is extracted as a stream, the worker pool hunts for missed
// optimizations over several rounds per window, and verified finds are
// printed in deterministic (source) order as they are reassembled.
package main

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/alive"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/extract"
	"repro/internal/llm"
)

func main() {
	ex := extract.New(extract.Options{})
	src := engine.Corpus(corpus.Options{Seed: 11, ModulesPerProject: 2, FuncsPerModule: 4}, ex)

	sim := llm.NewSim("Llama3.3", 11)
	eng := engine.New(sim, engine.Config{
		Workers: 4,
		Rounds:  8,
		Verify:  alive.Options{Samples: 512, Seed: 11},
	})

	results, stats := eng.Run(context.Background(), src)
	found := 0
	for res := range results {
		if res.Outcome == engine.Found {
			found++
			fmt.Printf("missed optimization in %s (@%s): %d->%d instrs (round %d)\n",
				res.Seq.Module, res.Seq.Func, res.InstrsBefore, res.InstrsAfter, res.Round)
		}
	}

	st := ex.Stats()
	fmt.Printf("\nextraction: %d raw, %d duplicates removed, %d already optimizable, %d kept\n",
		st.Sequences, st.Duplicates, st.Optimizable, st.Kept)
	// The run's counters without the stage seconds, which are wall time
	// (lpo -stats prints them), so same-seed runs print the same bytes.
	snap := stats.Snapshot()
	fmt.Printf("sequences: %d\n", snap.Sequences)
	outcomes := make([]string, 0, len(snap.Outcomes))
	for o := range snap.Outcomes {
		outcomes = append(outcomes, string(o))
	}
	sort.Strings(outcomes)
	for _, o := range outcomes {
		fmt.Printf("  %-14s %d\n", o, snap.Outcomes[engine.Outcome(o)])
	}
	fmt.Printf("usage: %d in / %d out tokens, %.1f virtual s\n",
		snap.Usage.InputTokens, snap.Usage.OutputTokens, snap.Usage.VirtualSeconds)
	for _, name := range engine.StageNames() {
		if m, ok := snap.Stages[name]; ok {
			fmt.Printf("stage %-11s %6d calls\n", name, m.Invocations)
		}
	}
	fmt.Printf("\n%d verified missed optimizations discovered\n", found)
}
