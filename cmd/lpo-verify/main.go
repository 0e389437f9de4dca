// Command lpo-verify is the reproduction's Alive2: given a file containing
// two functions (source first, target second — or @src/@tgt by name), it
// checks refinement and prints either the verdict or a counterexample.
//
// The -widths flag re-checks the rewrite at alternate bit widths: both
// functions are re-instantiated at each width under the literal constant
// policy (internal/generalize.Rewidth) and re-verified with the multi-width
// alive helper — a quick probe for whether a concrete finding is
// width-generic before learning it properly with `lpo -learn`.
//
// The -stats flag prints the tiered scheduler's behaviour for each check:
// how many input vectors every tier executed (pool replays / special values
// / random samples), which tier found the counterexample, and the pool's
// deposit counters — so the scheduler is observable from the CLI.
//
// Usage:
//
//	lpo-verify [-samples N] [-gain] [-stats] [-widths 8,16,32,64] pair.ll
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/alive"
	"repro/internal/engine"
	"repro/internal/generalize"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mca"
	"repro/internal/parser"
)

func main() {
	samples := flag.Int("samples", 4096, "random samples when not exhaustive")
	seed := flag.Uint64("seed", 1, "sampling seed")
	gain := flag.Bool("gain", false, "also report the engine's filter-stage verdict (instrs/cycles gain)")
	stats := flag.Bool("stats", false, "print the tier breakdown of each check (pool/special/random executions and kills)")
	widthsFlag := flag.String("widths", "", "comma-separated bit widths to re-check the rewrite at (e.g. 8,16,32,64)")
	flag.Parse()

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
	if len(m.Funcs) < 2 {
		fmt.Fprintln(os.Stderr, "need two functions (source then target)")
		os.Exit(2)
	}
	sf, tf := m.Funcs[0], m.Funcs[1]
	if f := m.FuncByName("src"); f != nil {
		sf = f
	}
	if f := m.FuncByName("tgt"); f != nil {
		tf = f
	}
	if *gain {
		cpu := mca.BTVer2()
		sr, tr := mca.Analyze(sf, cpu), mca.Analyze(tf, cpu)
		verdict := "uninteresting"
		if engine.Interesting(sf, tf) {
			verdict = "interesting"
		}
		fmt.Printf("filter stage: %s (%d->%d instrs, %d->%d cycles)\n",
			verdict, sr.Instructions, tr.Instructions, sr.TotalCycles, tr.TotalCycles)
	}
	// One compiled-program cache and one counterexample pool back the main
	// check and the width sweep: each (re-)instantiated function compiles
	// once, and a falsifying input found at one width is replayed first
	// (tier 0) everywhere else.
	pool := alive.NewCEPool()
	opts := alive.Options{Samples: *samples, Seed: *seed, Programs: interp.NewCache(), Pool: pool}
	res := alive.NewChecker(sf, tf, opts).Verify()
	exit := 0
	switch res.Verdict {
	case alive.Correct:
		mode := "sampled"
		if res.Exhaustive {
			mode = "exhaustive"
		}
		fmt.Printf("Transformation seems to be correct! (%d inputs, %s)\n", res.Checked, mode)
	case alive.Incorrect:
		fmt.Print(res.CE.Format())
		exit = 1
	case alive.Unsupported:
		fmt.Println(res.Err)
		exit = 2
	}
	if *stats {
		printTierStats(res)
	}
	if *widthsFlag != "" {
		widths, err := parseWidths(*widthsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, wr := range alive.VerifyWidths(widths, opts, func(w int) (*ir.Func, *ir.Func, error) {
			s, err := generalize.Rewidth(sf, w)
			if err != nil {
				return nil, nil, err
			}
			t, err := generalize.Rewidth(tf, w)
			if err != nil {
				return nil, nil, err
			}
			return s, t, nil
		}) {
			switch wr.Verdict {
			case alive.Correct:
				mode := "sampled"
				if wr.Exhaustive {
					mode = "exhaustive"
				}
				fmt.Printf("width i%-2d: correct (%d inputs, %s)\n", wr.Width, wr.Checked, mode)
			case alive.Incorrect:
				fmt.Printf("width i%-2d: counterexample\n%s", wr.Width, wr.CE.Format())
				if exit == 0 {
					exit = 1
				}
			case alive.Unsupported:
				fmt.Printf("width i%-2d: not checkable (%s)\n", wr.Width, wr.Err)
			}
			if *stats && wr.Verdict != alive.Unsupported {
				printTierStats(wr.Result)
			}
		}
	}
	if *stats {
		ps := pool.Stats()
		fmt.Printf("ce pool: %d windows, %d vectors (%d deposits, %d duplicates)\n",
			ps.Windows, ps.Vectors, ps.Deposits, ps.Dups)
	}
	os.Exit(exit)
}

// printTierStats renders one check's scheduler breakdown: executions per
// tier and, for refuted pairs, the tier that found the violation.
func printTierStats(res alive.Result) {
	t := res.Tiers
	killed := "none"
	switch t.KillTier {
	case alive.TierPool:
		killed = "pool replay"
	case alive.TierSpecial:
		killed = "special values"
	case alive.TierRandom:
		killed = "random samples"
	}
	fmt.Printf("  tiers: %d executed (pool %d, special %d, random %d), killed by: %s\n",
		res.Checked, t.PoolChecked, t.SpecialChecked, t.RandomChecked, killed)
}

func parseWidths(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 2 || w > 64 {
			return nil, fmt.Errorf("bad width %q (want integers in 2..64)", part)
		}
		out = append(out, w)
	}
	return out, nil
}
