package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/alive"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/llm"
)

// TestGoldenCampaign runs the campaign job shape — `lpo -corpus -rounds 4
// -learn -seed S`, wired as the campaign benchmark wires it — and pins its
// outcomes. A performance change to the verifier, the interpreter or any
// other stage of the loop must leave every literal below unchanged: the
// found and rule counts, the number of executed verification vectors, a
// digest of every result's outcome and window hashes in order, and the
// sha256 of the encoded rulebook.
func TestGoldenCampaign(t *testing.T) {
	golden := []struct {
		seed                  uint64
		found, rules, vectors int
		digest, rulebook      string
	}{
		{501, 52, 24, 822276, "74cc0bd0cd4c0b84", "2e6ab0610e9acafa"},
		{502, 46, 23, 752304, "de4fd451549f886f", "4f509d5b6a0579aa"},
	}
	for _, g := range golden {
		t.Run(fmt.Sprint(g.seed), func(t *testing.T) {
			e := New(llm.NewSim("Gemini2.0T", g.seed), Config{
				Rounds: 4,
				Learn:  true,
				Verify: alive.Options{Samples: 1024, Seed: g.seed},
			})
			ex := extract.New(extract.Options{})
			results, stats := e.RunAll(context.Background(), Corpus(corpus.Options{Seed: g.seed}, ex))
			digest := sha256.New()
			found := 0
			for _, r := range results {
				var src, cand uint64
				if r.Src != nil {
					src = ir.Hash(r.Src)
				}
				if r.Outcome == Found {
					found++
					cand = ir.Hash(r.Cand)
				}
				fmt.Fprintf(digest, "%d %s %016x %016x\n", r.Index, r.Outcome, src, cand)
			}
			book := e.Rulebook()
			data, err := book.Encode()
			if err != nil {
				t.Fatal(err)
			}
			bookSum := sha256.Sum256(data)
			got := fmt.Sprintf("found %d, rules %d, vectors %d, digest %s, rulebook %s",
				found, len(book.Rules), stats.Snapshot().VerifyExecs,
				hex.EncodeToString(digest.Sum(nil))[:16], hex.EncodeToString(bookSum[:])[:16])
			want := fmt.Sprintf("found %d, rules %d, vectors %d, digest %s, rulebook %s",
				g.found, g.rules, g.vectors, g.digest, g.rulebook)
			if got != want {
				t.Fatalf("seed %d:\n got %s\nwant %s", g.seed, got, want)
			}
		})
	}
}
