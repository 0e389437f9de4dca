package engine

import (
	"context"
	"testing"

	"repro/internal/alive"
	"repro/internal/extract"
	"repro/internal/llm"
	"repro/internal/wasm"
)

// TestWasmCorpusSource is the engine half of the ISSUE's acceptance test: a
// campaign over the embedded wasm fixture corpus must lift the subset
// functions, discover at least one verified missed optimization (the
// planted and/or/xor windows), and account for every function in the lift
// coverage counters.
func TestWasmCorpusSource(t *testing.T) {
	ex := extract.New(extract.Options{})
	eng := New(llm.NewSim("Gemini2.0T", 1), Config{
		Rounds: 8,
		Verify: alive.Options{Samples: 128, Seed: 1},
	})
	results, stats := eng.Run(context.Background(), WasmCorpus(ex, eng.Stats()))
	found := 0
	for res := range results {
		switch res.Outcome {
		case Found:
			found++
		case Errored:
			t.Fatal(res.Err)
		}
	}
	if found == 0 {
		t.Fatal("wasm corpus campaign found nothing; the planted windows should be Found")
	}
	lc := stats.Snapshot().Lift
	if lc.Funcs == 0 || lc.Lifted == 0 {
		t.Fatalf("no lift coverage recorded: %+v", lc)
	}
	if lc.Lifted+lc.Skipped != lc.Funcs {
		t.Fatalf("lift coverage does not add up: %+v", lc)
	}
	if lc.Skipped == 0 || len(lc.Reasons) == 0 {
		t.Fatalf("the mixed fixture should skip functions with reasons: %+v", lc)
	}
}

// TestWasmModulesSource drives one decoded module through the source and
// checks the per-module tally lands on the engine stats.
func TestWasmModulesSource(t *testing.T) {
	data := wasm.MustEncode(&wasm.Module{
		Types: []wasm.FuncType{{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}}},
		Funcs: []*wasm.Function{{
			TypeIdx: 0, Name: "pair",
			Body: []wasm.Instr{
				wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op(wasm.OpI32And),
				wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op(wasm.OpI32Or),
				wasm.Op(wasm.OpI32Xor), wasm.End(),
			},
		}},
		Exports: []wasm.Export{{Name: "pair", Kind: 0, Index: 0}},
	})
	wm, err := wasm.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	ex := extract.New(extract.Options{})
	eng := New(llm.NewSim("Gemini2.0T", 1), Config{
		Rounds: 8,
		Verify: alive.Options{Samples: 128, Seed: 1},
	})
	results, stats := eng.Run(context.Background(), WasmModules(ex, eng.Stats(), wm))
	var seqs int
	for res := range results {
		if res.Outcome == Errored {
			t.Fatal(res.Err)
		}
		seqs++
	}
	if seqs == 0 {
		t.Fatal("no sequences extracted from the lifted module")
	}
	if lc := stats.Snapshot().Lift; lc.Lifted != 1 || lc.Funcs != 1 {
		t.Fatalf("lift coverage = %+v, want 1/1", lc)
	}
}
