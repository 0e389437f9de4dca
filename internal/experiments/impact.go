package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/benchdata"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/opt"
)

// Table5Row is one measured patch-impact row.
type Table5Row struct {
	PatchID       string
	IRFiles       int     // corpus modules changed by the patch
	Projects      int     // corpus projects with at least one changed module
	DeltaPct      float64 // measured compile-time delta of our optimizer, percent
	PaperIRFiles  int
	PaperProjects int
	PaperDelta    float64
	PaperHasDelta bool
}

// Table5Report is the measured Table 5.
type Table5Report struct {
	Rows []Table5Row
}

// RunTable5 reproduces Table 5 on the synthetic corpus: for every accepted
// patch it counts the modules/projects whose code the patch rewrites, and
// measures the real wall-clock cost of running our optimizer over the whole
// corpus with and without the patch (the paper's compile-time-tracker
// methodology, substituted per DESIGN.md).
func RunTable5(seed uint64) *Table5Report {
	projects := corpus.Generate(corpus.Options{Seed: seed})

	type fnRef struct {
		fn      *ir.Func
		project int
		module  int
	}
	var fns []fnRef
	for pi, p := range projects {
		for mi, m := range p.Modules {
			for _, f := range m.Funcs {
				fns = append(fns, fnRef{fn: f, project: pi, module: pi*1000 + mi})
			}
		}
	}
	// The baseline and per-patch scans are pure hash computations; fan them
	// out (ParMap keeps results in index order, so counts are unchanged).
	ctx := context.Background()
	baseline := engine.ParMap(ctx, 0, fns, func(_ context.Context, _ int, f fnRef) uint64 {
		return ir.Hash(opt.RunO3(f.fn))
	})
	// One timing window runs the optimizer once over the whole corpus (tens
	// of milliseconds, so a single window is far too noisy on a shared
	// machine). Every row times the baseline and the patch in interleaved
	// pairs, alternating which goes first, and compares their medians:
	// load that drifts over the run hits both sides of a row alike instead
	// of landing in the delta, and the median shrugs off the windows a
	// burst of load did hit. The rule selections are prebuilt outside the
	// windows, exactly like a compiler builds its pass pipeline once per
	// invocation, so the delta isolates the patch's per-function cost.
	const pairs = 21
	timeOnce := func(rules *opt.RuleSet) time.Duration {
		start := time.Now()
		for _, f := range fns {
			opt.Run(f.fn, opt.Options{Rules: rules})
		}
		return time.Since(start)
	}
	baseSet := opt.NewRuleSet()

	rep := &Table5Report{}
	for _, row := range benchdata.Table5() {
		modules := map[int]bool{}
		prjs := map[int]bool{}
		patchSet := opt.NewRuleSet(row.IssueID)
		patched := engine.ParMap(ctx, 0, fns, func(_ context.Context, _ int, f fnRef) uint64 {
			return ir.Hash(opt.Run(f.fn, opt.Options{Rules: patchSet}))
		})
		for i, f := range fns {
			if patched[i] != baseline[i] {
				modules[f.module] = true
				prjs[f.project] = true
			}
		}
		var baseTimes, patchTimes []time.Duration
		for i := 0; i < pairs; i++ {
			if i%2 == 0 {
				baseTimes = append(baseTimes, timeOnce(baseSet))
				patchTimes = append(patchTimes, timeOnce(patchSet))
			} else {
				patchTimes = append(patchTimes, timeOnce(patchSet))
				baseTimes = append(baseTimes, timeOnce(baseSet))
			}
		}
		baseTime, patchTime := medianDuration(baseTimes), medianDuration(patchTimes)
		delta := (patchTime.Seconds() - baseTime.Seconds()) / baseTime.Seconds() * 100
		rep.Rows = append(rep.Rows, Table5Row{
			PatchID: row.PatchID, IRFiles: len(modules), Projects: len(prjs),
			DeltaPct:      delta,
			PaperIRFiles:  row.IRFiles,
			PaperProjects: row.Projects,
			PaperDelta:    row.DeltaPct,
			PaperHasDelta: row.HasDelta,
		})
	}
	return rep
}

// medianDuration returns the median of ds (the upper middle for an even
// count), sorting ds in place.
func medianDuration(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// Print renders measured vs paper columns.
func (r *Table5Report) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 5: patch impact (measured on the synthetic corpus vs paper)")
	fmt.Fprintf(w, "%-12s %10s %10s %12s   %10s %10s %12s\n",
		"Patch", "files", "projects", "dT%", "paper-files", "paper-prj", "paper-dT%")
	for _, row := range r.Rows {
		paperFiles, paperPrj, paperD := "N/A", "N/A", "N/A"
		if row.PaperIRFiles > 0 {
			paperFiles = fmt.Sprintf("%d", row.PaperIRFiles)
			paperPrj = fmt.Sprintf("%d", row.PaperProjects)
		}
		if row.PaperHasDelta {
			paperD = fmt.Sprintf("%+.2f", row.PaperDelta)
		}
		fmt.Fprintf(w, "%-12s %10d %10d %+11.2f   %10s %10s %12s\n",
			row.PatchID, row.IRFiles, row.Projects, row.DeltaPct,
			paperFiles, paperPrj, paperD)
	}
	fmt.Fprintln(w, "(shape target: every patch touches few files relative to the corpus and has negligible compile-time cost)")
}
