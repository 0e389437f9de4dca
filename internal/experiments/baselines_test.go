package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/minotaur"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/souper"
)

// TestBaselinesGolden pins every observable outcome of the Souper and
// Minotaur reimplementations over the windows the paper tables feed them:
// the RQ1 canonical pairs (seed 1), the RQ2 findings (seed 2) and the first
// 40 RQ3-sampled sequences (seed 1+i, as RunRQ3 seeds them). A change to
// the baselines' CEGIS loops, the verifier or the interpreter must leave
// every literal below unchanged: per tool, the found and timeout counts, the
// total candidates filtered, and a digest of each run's flags, candidate
// count, virtual seconds (bit for bit) and candidate hash. The Figure 5
// speedups are pinned bit for bit too.
func TestBaselinesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline sweep is not short")
	}
	type window struct {
		fn   *ir.Func
		seed uint64
	}
	var windows []window
	for _, c := range benchdata.RQ1Cases() {
		windows = append(windows, window{opt.RunO3(parser.MustParseFunc(c.Pair.Src)), 1})
	}
	for _, f := range benchdata.RQ2Findings() {
		windows = append(windows, window{parser.MustParseFunc(f.Pair.Src), 2})
	}
	ctx, stop := context.WithCancel(context.Background())
	src := engine.Corpus(corpus.Options{Seed: 1}, extract.New(extract.Options{}))
	for i := 0; i < 40; i++ {
		s, ok, err := src.Next(ctx)
		if err != nil || !ok {
			t.Fatalf("sampling sequence %d: ok=%v err=%v", i, ok, err)
		}
		windows = append(windows, window{s.Fn, 1 + uint64(i)})
	}
	stop()

	type tally struct {
		found, timeouts, candidates int
		digest                      hash.Hash
	}
	record := func(tl *tally, found, timedOut, unsupported, crashed bool,
		candidates int, seconds float64, cand *ir.Func) {
		if found {
			tl.found++
		}
		if timedOut {
			tl.timeouts++
		}
		tl.candidates += candidates
		var h uint64
		if cand != nil {
			h = ir.Hash(cand)
		}
		fmt.Fprintf(tl.digest, "%t %t %t %t %d %016x %016x\n", found, timedOut,
			unsupported, crashed, candidates, math.Float64bits(seconds), h)
	}
	tools := []string{"souper-enum0", "souper-enum1", "souper-enum2", "souper-enum3", "minotaur"}
	tallies := make([]tally, len(tools))
	for i := range tallies {
		tallies[i].digest = sha256.New()
	}
	for _, w := range windows {
		for e := 0; e <= 3; e++ {
			r := souper.Optimize(w.fn, souper.Options{Enum: e, Seed: w.seed})
			record(&tallies[e], r.Found, r.TimedOut, r.Unsupported, false,
				r.Candidates, r.VirtualSeconds, r.Candidate)
		}
		r := minotaur.Optimize(w.fn, minotaur.Options{Seed: w.seed})
		record(&tallies[4], r.Found, false, r.Unsupported, r.Crashed,
			0, r.VirtualSeconds, r.Candidate)
	}

	golden := map[string]string{
		"souper-enum0": "found 10, timeouts 0, candidates 10, digest 9e23fe3385d4d477",
		"souper-enum1": "found 35, timeouts 17, candidates 29404, digest 762c7cc8145f5e53",
		"souper-enum2": "found 36, timeouts 24, candidates 111015, digest 47dd37d54cb24497",
		"souper-enum3": "found 35, timeouts 26, candidates 192544, digest 085d7a29824a36aa",
		"minotaur":     "found 18, timeouts 0, candidates 0, digest f0f21edc60eee5e7",
	}
	for i, tool := range tools {
		tl := &tallies[i]
		got := fmt.Sprintf("found %d, timeouts %d, candidates %d, digest %s",
			tl.found, tl.timeouts, tl.candidates, hex.EncodeToString(tl.digest.Sum(nil))[:16])
		if got != golden[tool] {
			t.Errorf("%s over %d windows:\n got %s\nwant %s", tool, len(windows), got, golden[tool])
		}
	}

	rep, err := RunFigure5(0)
	if err != nil {
		t.Fatal(err)
	}
	var bitsGot []string
	for _, row := range rep.Rows {
		bitsGot = append(bitsGot, fmt.Sprintf("%s %016x", row.PatchID, math.Float64bits(row.Speedup)))
	}
	bitsGot = append(bitsGot, fmt.Sprintf("yearly %016x", math.Float64bits(rep.Yearly)))
	bitsWant := []string{
		"128134 3ff0000000000000", "142674 3ff03c7aab86fd1b", "143211 3ff01407845f6680",
		"143636 3ff0370d272b1879", "157315 3ff0000000000000", "157370 3ff0000000000000",
		"157524 3ff01407845f6680", "163108 3ff0293114831af2", "166973 3ff01407845f6680",
		"yearly 3ff0f18e0b6e6450",
	}
	if fmt.Sprint(bitsGot) != fmt.Sprint(bitsWant) {
		t.Errorf("figure 5 speedup bits:\n got %q\nwant %q", bitsGot, bitsWant)
	}
}
