// Command lpo-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lpo-bench -table 1|2|3|4|5      regenerate one table
//	lpo-bench -figure 4|5           regenerate one figure
//	lpo-bench -learned              learned-rule closure table (beyond the
//	                                paper: discovery learns a rulebook, then
//	                                the corpus is re-optimized with it)
//	lpo-bench -all                  everything (default)
//	lpo-bench -rounds N -n N -seed N  sizing knobs
//	lpo-bench -workers N            engine worker pool for the RQ runs
//	                                (0 = one per CPU; results are
//	                                deterministic for a fixed seed
//	                                regardless of N)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/corpus"
	"repro/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "regenerate table N (1-5)")
	figure := flag.Int("figure", 0, "regenerate figure N (4 or 5)")
	learned := flag.Bool("learned", false, "run the learned-rule closure experiment")
	all := flag.Bool("all", false, "regenerate everything")
	rounds := flag.Int("rounds", 5, "discovery rounds (RQ1: per model; -learned: per sequence)")
	n := flag.Int("n", 250, "RQ3 sampled sequences (paper: 5000)")
	seed := flag.Uint64("seed", 1, "experiment seed")
	workers := flag.Int("workers", 0, "engine worker pool size (0 = one per CPU)")
	flag.Parse()

	if *learned {
		rep, err := experiments.RunLearnedClosure(experiments.LearnedClosureOptions{
			Seed:       *seed,
			Rounds:     *rounds,
			Workers:    *workers,
			CorpusOpts: corpus.Options{Seed: *seed},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rep.Print(os.Stdout)
		return
	}
	if *table == 0 && *figure == 0 {
		*all = true
	}
	w := os.Stdout
	runTable := func(k int) {
		switch k {
		case 1:
			experiments.PrintTable1(w)
		case 2:
			experiments.RunRQ1(experiments.RQ1Options{Rounds: *rounds, Seed: *seed, Workers: *workers}).Print(w)
		case 3:
			experiments.RunRQ2(experiments.RQ2Options{Seed: *seed, Workers: *workers}).Print(w)
		case 4:
			experiments.RunRQ3(experiments.RQ3Options{Sequences: *n, Seed: *seed, Workers: *workers}).Print(w)
		case 5:
			experiments.RunTable5(*seed).Print(w)
		default:
			fmt.Fprintf(os.Stderr, "unknown table %d\n", k)
			os.Exit(2)
		}
	}
	runFigure := func(k int) {
		switch k {
		case 4:
			if err := experiments.PrintFigure4(w, *seed); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		case 5:
			rep, err := experiments.RunFigure5(500)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			rep.Print(w)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %d\n", k)
			os.Exit(2)
		}
	}
	if *all {
		for _, k := range []int{1, 2, 3, 4, 5} {
			runTable(k)
			fmt.Fprintln(w)
		}
		runFigure(4)
		runFigure(5)
		return
	}
	if *table != 0 {
		runTable(*table)
	}
	if *figure != 0 {
		runFigure(*figure)
	}
}
