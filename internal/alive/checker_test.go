package alive

import (
	"fmt"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
)

// benchdataPairs parses every RQ1 and RQ2 (src, tgt) pair.
func benchdataPairs(t *testing.T) [][2]*ir.Func {
	t.Helper()
	var out [][2]*ir.Func
	add := func(p benchdata.Pair) {
		out = append(out, [2]*ir.Func{parser.MustParseFunc(p.Src), parser.MustParseFunc(p.Tgt)})
	}
	for _, c := range benchdata.RQ1Cases() {
		add(c.Pair)
	}
	for _, f := range benchdata.RQ2Findings() {
		add(f.Pair)
	}
	return out
}

func resultsEqual(a, b Result) string {
	if a.Verdict != b.Verdict {
		return fmt.Sprintf("verdict %v vs %v", a.Verdict, b.Verdict)
	}
	if a.Checked != b.Checked {
		return fmt.Sprintf("checked %d vs %d", a.Checked, b.Checked)
	}
	if a.Exhaustive != b.Exhaustive {
		return fmt.Sprintf("exhaustive %v vs %v", a.Exhaustive, b.Exhaustive)
	}
	if a.Err != b.Err {
		return fmt.Sprintf("err %q vs %q", a.Err, b.Err)
	}
	if (a.CE == nil) != (b.CE == nil) {
		return fmt.Sprintf("counterexample presence %v vs %v", a.CE != nil, b.CE != nil)
	}
	if a.CE != nil && a.CE.Format() != b.CE.Format() {
		return fmt.Sprintf("counterexample text:\n%s\nvs\n%s", a.CE.Format(), b.CE.Format())
	}
	return ""
}

// TestCheckerMatchesReferenceOnBenchdata runs every benchdata pair through
// the compiled checker and the reference Exec path, requiring identical
// verdicts, counts and byte-identical counterexample text. Cross-pairing
// sources with foreign targets provides the Incorrect/Unsupported cases.
func TestCheckerMatchesReferenceOnBenchdata(t *testing.T) {
	pairs := benchdataPairs(t)
	opts := Options{Seed: 11, Samples: 192, MemFills: 2}
	cache := interp.NewCache()
	cachedOpts := opts
	cachedOpts.Programs = cache
	for i, pr := range pairs {
		fast := Verify(pr[0], pr[1], cachedOpts)
		ref := ReferenceVerify(pr[0], pr[1], opts)
		if diff := resultsEqual(fast, ref); diff != "" {
			t.Fatalf("pair %d (%s): checker and reference disagree: %s", i, pr[0].Name, diff)
		}
		if fast.Verdict != Correct {
			t.Fatalf("pair %d: benchdata target must refine its source, got %v", i, fast.Verdict)
		}
		// Mispair with the next source's target: most such pairs are
		// refuted or unsupported, exercising the counterexample path.
		wrong := pairs[(i+1)%len(pairs)][1]
		fastW := Verify(pr[0], wrong, cachedOpts)
		refW := ReferenceVerify(pr[0], wrong, opts)
		if diff := resultsEqual(fastW, refW); diff != "" {
			t.Fatalf("mispair %d: checker and reference disagree: %s", i, diff)
		}
	}
	if cache.Len() == 0 {
		t.Fatal("program cache was never populated")
	}
}

// TestCheckerMatchesReferenceOnCorpus extends the differential to seeded
// random corpus functions (verified reflexively and against their optimized
// forms through both paths).
func TestCheckerMatchesReferenceOnCorpus(t *testing.T) {
	projects := corpus.Generate(corpus.Options{Seed: 17, ModulesPerProject: 1, FuncsPerModule: 6})
	opts := Options{Seed: 3, Samples: 96}
	n := 0
	for _, p := range projects {
		for _, m := range p.Modules {
			for _, f := range m.Funcs {
				if n >= 36 {
					return
				}
				n++
				fast := Verify(f, f, opts)
				ref := ReferenceVerify(f, f, opts)
				if diff := resultsEqual(fast, ref); diff != "" {
					t.Fatalf("corpus func %s: checker and reference disagree: %s", f.Name, diff)
				}
			}
		}
	}
}

// TestCheckerReuse exercises the CEGIS-style pattern: one Checker verified
// repeatedly must return identical results each time.
func TestCheckerReuse(t *testing.T) {
	src := parser.MustParseFunc(clampSrc)
	tgt := parser.MustParseFunc(clampTgt)
	c := NewChecker(src, tgt, Options{Seed: 5, Samples: 128})
	first := c.Verify()
	for i := 0; i < 3; i++ {
		if diff := resultsEqual(c.Verify(), first); diff != "" {
			t.Fatalf("repeat %d differs: %s", i, diff)
		}
	}
	if first.Verdict != Correct {
		t.Fatalf("clamp should verify, got %v", first.Verdict)
	}
}

// TestCheckerCounterexampleIsStable pins that counterexamples deep-copy the
// generator's reused buffers: two refuted runs must format identically, and
// the CE must not change after further verifications.
func TestCheckerCounterexampleIsStable(t *testing.T) {
	src := parser.MustParseFunc(`define i8 @src(i8 %x, i8 %y) { %r = add i8 %x, %y ret i8 %r }`)
	tgt := parser.MustParseFunc(`define i8 @tgt(i8 %x, i8 %y) { %r = add nsw i8 %x, %y ret i8 %r }`)
	r1 := Verify(src, tgt, Options{Seed: 1})
	if r1.Verdict != Incorrect {
		t.Fatalf("nsw strengthening must be refuted, got %v", r1.Verdict)
	}
	text := r1.CE.Format()
	r2 := Verify(src, tgt, Options{Seed: 1})
	if r2.CE.Format() != text {
		t.Fatalf("counterexamples differ across identical runs:\n%s\nvs\n%s", text, r2.CE.Format())
	}
	if ref := ReferenceVerify(src, tgt, Options{Seed: 1}); ref.CE.Format() != text {
		t.Fatalf("reference counterexample differs:\n%s\nvs\n%s", ref.CE.Format(), text)
	}
}

// TestVerifySteadyStateAllocs pins the perf contract of the tentpole: a full
// sampled Verify over the clamp window stays under a small constant
// allocation budget (the seed path allocated ~30k times for the same work).
// An exhaustive rotate pair — the columnar exhaustive tier feeding the
// intrinsic batch kernel — allocates nothing per batch: its i8 instance
// runs 1,025 batches and its i4 instance 5, for the same allocation count.
func TestVerifySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by the race runtime")
	}
	src := parser.MustParseFunc(clampSrc)
	tgt := parser.MustParseFunc(clampTgt)
	opts := Options{Seed: 2, Samples: 1024, Programs: interp.NewCache()}
	Verify(src, tgt, opts) // warm the program cache
	allocs := testing.AllocsPerRun(5, func() {
		Verify(src, tgt, opts)
	})
	if allocs > 200 {
		t.Fatalf("Verify allocates %.0f times per call, want O(1) (<200)", allocs)
	}

	rotate := func(w int) (allocs float64, batches int) {
		src := parser.MustParseFunc(fmt.Sprintf(`define i%[1]d @src(i%[1]d %%x, i%[1]d %%y) {
  %%r = call i%[1]d @llvm.fshl.i%[1]d(i%[1]d %%x, i%[1]d %%x, i%[1]d %%y)
  %%a = call i%[1]d @llvm.abs.i%[1]d(i%[1]d %%r, i1 false)
  ret i%[1]d %%a
}`, w))
		tgt := parser.MustParseFunc(fmt.Sprintf(`define i%[1]d @tgt(i%[1]d %%x, i%[1]d %%y) {
  %%n = sub i%[1]d 0, %%y
  %%r = call i%[1]d @llvm.fshr.i%[1]d(i%[1]d %%x, i%[1]d %%x, i%[1]d %%n)
  %%a = call i%[1]d @llvm.abs.i%[1]d(i%[1]d %%r, i1 false)
  ret i%[1]d %%a
}`, w))
		c := NewChecker(src, tgt, Options{Seed: 2})
		r := c.Verify()
		if r.Verdict != Correct || !r.Exhaustive {
			t.Fatalf("i%d rotate pair: verdict %v, exhaustive %v", w, r.Verdict, r.Exhaustive)
		}
		return testing.AllocsPerRun(5, func() { c.Verify() }),
			(r.Checked + interp.BatchWidth - 1) / interp.BatchWidth
	}
	wide, wideBatches := rotate(8)
	narrow, narrowBatches := rotate(4)
	if wide != narrow {
		t.Fatalf("exhaustive Verify allocates %.0f times over %d batches but %.0f over %d: allocations grow with batches",
			wide, wideBatches, narrow, narrowBatches)
	}
}

var raceEnabled bool
