// Command lpo runs the full discovery pipeline (paper Algorithm 1) over an
// .ll module or over the built-in synthetic corpus. Sequences are extracted
// with Algorithm 2 and streamed through the concurrent engine: a pool of
// -workers workers drives each sequence through Propose → Preprocess →
// Filter → Verify, results are reassembled in input order, and every
// verified missed optimization is reported as it arrives. Interrupting the
// run (SIGINT) cancels the engine's context and drains cleanly.
//
// Usage:
//
//	lpo [-model Gemini2.0T] [-rounds 4] [-workers 8] [file.ll | file.wasm]
//	lpo -corpus            run over the synthetic 14-project corpus
//	lpo -wasm-corpus       run over the embedded wasm fixture corpus
//
// WebAssembly inputs (the wasm frontend, internal/wasm):
//
//	A file argument starting with the \0asm magic is decoded as a wasm
//	binary and its functions are lifted to IR before extraction; -wasm
//	forces that interpretation for files without the magic. Functions
//	outside the lifter's integer subset are skipped and tallied — the
//	-stats output reports per-module lift coverage with the top skip
//	reasons. With -isolate DIR, every finding from a wasm input is traced
//	back to its source function and a minimal module (that function plus
//	its transitive callees, nothing else) is written to DIR as
//	<function>.wasm — shrunken provenance for bug reports.
//
// Concurrency flags:
//
//	-workers N   worker pool size (default: one per CPU); results are
//	             deterministic for a fixed -seed regardless of N
//	-queue N     bounded work/result queue size (default 2*workers),
//	             the backpressure window between extraction and the pool
//
// Learning flags (the discovery→learn→re-optimize loop):
//
//	-learn FILE     lift every verified finding into a width-generalized
//	                rule (internal/generalize) and write the surviving
//	                rules to FILE as a JSON rulebook
//	-rulebook FILE  load a previously learned rulebook: its rules join the
//	                optimizer used for extraction filtering and candidate
//	                preprocessing, so past campaigns strengthen this run
//
// Persistence flag (the batch counterpart of the lpod daemon):
//
//	-store DIR      warm-start from a content-addressed store: windows with
//	                a stored finding are served from disk (no provider or
//	                verifier work), the stored counterexample vectors seed
//	                the pool's tier-0 replay, and this run's findings,
//	                learned rules and new vectors are committed back —
//	                sharing one store with lpod and future runs
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"repro/internal/alive"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/extract"
	"repro/internal/generalize"
	"repro/internal/llm"
	"repro/internal/opt"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wasm"
)

// isolateProvenance carves the named function (plus its transitive callees)
// out of the input module and writes the shrunken module to dir.
func isolateProvenance(m *wasm.Module, fn, dir string) (string, error) {
	iso, err := wasm.IsolateByName(m, fn)
	if err != nil {
		return "", err
	}
	data, err := wasm.Encode(iso)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fn+".wasm")
	return path, os.WriteFile(path, data, 0o644)
}

func main() {
	model := flag.String("model", "Gemini2.0T", "model profile to simulate")
	rounds := flag.Int("rounds", 4, "attempts (rounds) per sequence")
	seed := flag.Uint64("seed", 1, "seed")
	useCorpus := flag.Bool("corpus", false, "scan the synthetic corpus instead of a file")
	useWasmCorpus := flag.Bool("wasm-corpus", false, "scan the embedded wasm fixture corpus")
	forceWasm := flag.Bool("wasm", false, "treat the input file as a wasm binary (default: sniff the \\0asm magic)")
	isolateDir := flag.String("isolate", "", "write an isolated .wasm per finding's source function to this directory (wasm inputs only)")
	workers := flag.Int("workers", 0, "engine worker pool size (0 = one per CPU)")
	queue := flag.Int("queue", 0, "bounded queue size (0 = 2*workers)")
	stats := flag.Bool("stats", true, "print per-stage engine statistics")
	learnPath := flag.String("learn", "", "generalize verified findings and write the rulebook to this file")
	rulebookPath := flag.String("rulebook", "", "load a learned rulebook into the optimizer before running")
	storeDir := flag.String("store", "", "warm-start from (and persist to) a content-addressed store directory")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// A loaded rulebook strengthens the whole substrate: the extraction
	// filter ("can the compiler already optimize this?") and the engine's
	// candidate preprocessing both run with the learned rules attached.
	optOptions := opt.Options{}
	if *rulebookPath != "" {
		rules, err := generalize.LoadOptRules(*rulebookPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		optOptions.Rules = opt.NewRuleSet(opt.Options{}).WithRules(rules...)
		fmt.Printf("loaded %d learned rules from %s\n", len(rules), *rulebookPath)
	}

	// A store threads persistence through the whole run: verified outcomes
	// short-circuit via the engine's Lookup hook, stored counterexample
	// vectors seed tier-0 replay, and everything new is committed back.
	var st *store.Sharded
	var pool *alive.CEPool
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer st.Close()
		pool = alive.NewCEPool()
		loaded, err := service.LoadPool(st, pool)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sst := st.Stats()
		fmt.Printf("store %s: %d findings, %d rules; %d counterexample vectors warm-loaded\n",
			st.Dir(), sst.Findings, sst.Rules, loaded)
	}

	sim := llm.NewSim(*model, *seed)
	cfg := engine.Config{
		Workers:   *workers,
		QueueSize: *queue,
		Rounds:    *rounds,
		Learn:     *learnPath != "" || st != nil,
		Opt:       optOptions,
		Verify:    alive.Options{Samples: 1024, Seed: *seed, Pool: pool},
	}
	if st != nil {
		cfg.Lookup = service.StoreLookup(st)
	}
	eng := engine.New(sim, cfg)

	ex := extract.New(extract.Options{Opt: optOptions})
	var src engine.Source
	// wasmMod holds the decoded input module when the input is a wasm
	// binary, so findings can be traced back and isolated (-isolate).
	var wasmMod *wasm.Module
	switch {
	case *useCorpus:
		src = engine.Corpus(corpus.Options{Seed: *seed}, ex)
	case *useWasmCorpus:
		src = engine.WasmCorpus(ex, eng.Stats())
	case flag.NArg() > 0:
		path := flag.Arg(0)
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *forceWasm || wasm.IsWasm(data) {
			wm, err := wasm.Decode(data)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			wm.Name = path
			wasmMod = wm
			src = engine.WasmModules(ex, eng.Stats(), wm)
		} else {
			src = engine.File(path, ex)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: lpo [flags] file.ll|file.wasm  (or -corpus / -wasm-corpus)")
		os.Exit(2)
	}

	results, engStats := eng.Run(ctx, src)
	found, cached, persisted := 0, 0, 0
	isolated := make(map[string]bool)
	for res := range results {
		switch res.Outcome {
		case engine.Found:
			found++
			fmt.Printf("\n=== missed optimization (%d->%d instrs, %d->%d cycles, round %d) ===\n",
				res.InstrsBefore, res.InstrsAfter, res.CyclesBefore, res.CyclesAfter, res.Round)
			fmt.Printf("--- original ---\n%s--- optimized ---\n%s", res.Src, res.Cand)
			if wasmMod != nil && *isolateDir != "" && res.Seq != nil && !isolated[res.Seq.Func] {
				isolated[res.Seq.Func] = true
				path, err := isolateProvenance(wasmMod, res.Seq.Func, *isolateDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "isolating %s: %v\n", res.Seq.Func, err)
				} else {
					fmt.Printf("provenance: %s\n", path)
				}
			}
		case engine.Errored:
			fmt.Fprintln(os.Stderr, res.Err)
			os.Exit(1)
		case engine.Panicked:
			// The engine isolated the panic to this window; report it and
			// keep the campaign going instead of failing the whole run.
			fmt.Fprintf(os.Stderr, "window quarantined after panic: %v\n", res.Err)
		}
		if res.Cached {
			cached++
		}
		if st != nil {
			added, err := service.SaveResult(st, res)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if added {
				persisted++
			}
		}
	}
	if st != nil {
		if _, err := service.FlushPool(st, pool); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := st.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sst := st.Stats()
		fmt.Printf("store: %d new findings persisted (%d served from store); now %d findings, %d rules, %d vectors\n",
			persisted, cached, sst.Findings, sst.Rules, sst.Vectors)
	}
	xs := ex.Stats()
	fmt.Printf("\nextracted %d unique sequences (%d raw, %d duplicates, %d already optimizable)\n",
		xs.Kept, xs.Sequences, xs.Duplicates, xs.Optimizable)
	if *stats {
		engStats.Snapshot().Print(os.Stdout)
	}
	if *learnPath != "" {
		book := eng.Rulebook()
		data, err := book.Encode()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*learnPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("learned %d generalized rules -> %s\n", len(book.Rules), *learnPath)
	}
	if ctx.Err() != nil {
		fmt.Println("(interrupted — partial results)")
	}
	fmt.Printf("%d verified missed optimizations found with %s\n", found, *model)
}
