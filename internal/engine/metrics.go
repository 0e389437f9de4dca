package engine

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"

	"repro/internal/alive"
	"repro/internal/llm"
	"repro/internal/wasm"
)

// StageMetrics is a snapshot of one pipeline stage's counters.
type StageMetrics struct {
	Invocations int `json:"invocations"`
	// Seconds is the stage's accumulated latency: virtual seconds for the
	// propose stage (the provider's throughput model), measured wall seconds
	// for the local preprocess/filter/verify stages.
	Seconds float64 `json:"seconds"`
}

// TierKills counts how many refuted candidates each tier of the verify
// stage's scheduler killed.
type TierKills struct {
	Pool    int `json:"pool"`    // tier 0: replayed counterexamples from the campaign pool
	Special int `json:"special"` // tier 1: exhaustive/corner/poison phases
	Random  int `json:"random"`  // tier 2: random sampling
}

// Count tallies one verification by the tier that killed its candidate
// (an alive.Tier* constant); alive.TierNone counts nothing.
func (k *TierKills) Count(tier int) {
	switch tier {
	case alive.TierPool:
		k.Pool++
	case alive.TierSpecial:
		k.Special++
	case alive.TierRandom:
		k.Random++
	}
}

// Snapshot is a point-in-time copy of a run's counters. Its JSON tags are
// the engine section of lpod's GET /v1/stats, and Print is `lpo -stats`.
type Snapshot struct {
	// Sequences is the number of sequences that have completed the loop.
	Sequences int             `json:"sequences"`
	Outcomes  map[Outcome]int `json:"outcomes"`
	Usage     llm.Usage       `json:"usage"`
	// Stages is keyed by the StageNames the run has entered.
	Stages map[string]StageMetrics `json:"stages"`
	// VerifyExecs is the total number of input vectors the verify stage
	// executed. Every vector runs on the lane-batched interpreter, so
	// BatchedExecs always equals it; the split is kept for clients that
	// report it.
	VerifyExecs  int `json:"verify_execs"`
	BatchedExecs int `json:"batched_execs"`
	// VerifyCacheHits counts verifications skipped by the verify cache.
	VerifyCacheHits int `json:"verify_cache_hits"`
	// StoreHits counts sequences short-circuited by Config.Lookup: results
	// served from a persistent store instead of recomputed.
	StoreHits int `json:"store_hits"`
	// RuleHits counts, per registry rule ID, how often the rule closed a
	// verified finding.
	RuleHits map[string]int `json:"rule_hits"`
	// LearnedFindings counts Found results backed by a learned rule
	// (Config.Learn). Distinct rules are on Engine.Learned.
	LearnedFindings int `json:"learned_findings"`
	// Panics counts sequences recovered from a worker panic: each produced
	// a Panicked result and a quarantine entry (Engine.Quarantined)
	// instead of crashing the campaign.
	Panics int `json:"panics"`
	// TierKills counts actual verifications only; cache hits don't
	// re-count.
	TierKills TierKills `json:"tier_kills"`
	// Lift is the wasm frontend's coverage: functions the lifter saw,
	// lifted into the engine and skipped, with the per-reason skip tally.
	// All zero when no wasm module fed the run.
	Lift wasm.LiftStats `json:"lift"`
}

// Stats aggregates a run. All methods are safe to call concurrently with a
// run in flight; numbers are final once the result channel has closed. An
// Engine accumulates stats across runs until Reset is called.
type Stats struct {
	mu   sync.Mutex
	snap Snapshot
}

// bump adds n to m[k], allocating m on first use.
func bump[K comparable](m *map[K]int, k K, n int) {
	if *m == nil {
		*m = make(map[K]int)
	}
	(*m)[k] += n
}

// record applies f to the counters under the lock.
func (s *Stats) record(f func(*Snapshot)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.snap)
}

func (s *Stats) recordResult(r Result) {
	s.record(func(c *Snapshot) {
		c.Sequences++
		bump(&c.Outcomes, r.Outcome, 1)
		c.Usage.Add(r.Usage)
		for id, n := range r.RuleHits {
			bump(&c.RuleHits, id, n)
		}
		if r.Learned != nil {
			c.LearnedFindings++
		}
	})
}

func (s *Stats) recordStage(name string, seconds float64) {
	s.record(func(c *Snapshot) {
		if c.Stages == nil {
			c.Stages = make(map[string]StageMetrics)
		}
		m := c.Stages[name]
		m.Invocations++
		m.Seconds += seconds
		c.Stages[name] = m
	})
}

func (s *Stats) recordCacheHit() { s.record(func(c *Snapshot) { c.VerifyCacheHits++ }) }
func (s *Stats) recordStoreHit() { s.record(func(c *Snapshot) { c.StoreHits++ }) }
func (s *Stats) recordPanic()    { s.record(func(c *Snapshot) { c.Panics++ }) }

// recordVerify tallies one actual (non-cached) verification: the tier that
// killed the candidate and how many input vectors ran.
func (s *Stats) recordVerify(checked int, tiers alive.TierStats) {
	s.record(func(c *Snapshot) {
		c.VerifyExecs += checked
		c.BatchedExecs += checked
		c.TierKills.Count(tiers.KillTier)
	})
}

// RecordLift folds one module's wasm lift coverage into the run's stats.
// The wasm sources call it as they lift; services submitting lifted
// functions directly call it themselves.
func (s *Stats) RecordLift(st wasm.LiftStats) {
	s.record(func(c *Snapshot) { c.Lift.Merge(st) })
}

// Snapshot returns a deep copy of the counters, taken under the lock. Its
// maps are never nil, so an idle run encodes its tallies as {}.
func (s *Stats) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.snap
	out.Outcomes = clone(s.snap.Outcomes)
	out.Stages = clone(s.snap.Stages)
	out.RuleHits = clone(s.snap.RuleHits)
	out.Lift.Reasons = clone(s.snap.Lift.Reasons)
	return out
}

// clone copies m into a new map, empty rather than nil when m is nil.
func clone[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	maps.Copy(out, m)
	return out
}

// Reset clears every counter (typically between runs of a reused Engine).
func (s *Stats) Reset() { s.record(func(c *Snapshot) { *c = Snapshot{} }) }

// The getters below are one-line reads of Snapshot, kept because the
// perfbench module reads them.

// Sequences is Snapshot().Sequences. Kept for perfbench.
func (s *Stats) Sequences() int { return s.Snapshot().Sequences }

// Outcome is Snapshot().Outcomes[o]. Kept for perfbench.
func (s *Stats) Outcome(o Outcome) int { return s.Snapshot().Outcomes[o] }

// Stage is Snapshot().Stages[name] (see StageNames). Kept for perfbench.
func (s *Stats) Stage(name string) StageMetrics { return s.Snapshot().Stages[name] }

// VerifyCacheHits is Snapshot().VerifyCacheHits. Kept for perfbench.
func (s *Stats) VerifyCacheHits() int { return s.Snapshot().VerifyCacheHits }

// TierKills is Snapshot().TierKills. Kept for perfbench.
func (s *Stats) TierKills() TierKills { return s.Snapshot().TierKills }

// VerifyExecs is Snapshot().VerifyExecs. Kept for perfbench.
func (s *Stats) VerifyExecs() int { return s.Snapshot().VerifyExecs }

// BatchExecs is (Snapshot().BatchedExecs, 0): no vector takes a
// non-batched path. Kept for perfbench.
func (s *Stats) BatchExecs() (batched, fallback int) { return s.Snapshot().BatchedExecs, 0 }

// Print renders the counters as the `lpo -stats` summary.
func (s Snapshot) Print(w io.Writer) {
	fmt.Fprintf(w, "sequences: %d\n", s.Sequences)
	outs := make([]string, 0, len(s.Outcomes))
	for o := range s.Outcomes {
		outs = append(outs, string(o))
	}
	sort.Strings(outs)
	for _, o := range outs {
		fmt.Fprintf(w, "  %-14s %d\n", o, s.Outcomes[Outcome(o)])
	}
	fmt.Fprintf(w, "usage: %d in / %d out tokens, %.1f virtual s, $%.4f\n",
		s.Usage.InputTokens, s.Usage.OutputTokens, s.Usage.VirtualSeconds, s.Usage.CostUSD)
	for _, name := range StageNames() {
		if m, ok := s.Stages[name]; ok {
			fmt.Fprintf(w, "stage %-11s %6d calls, %8.2fs\n", name, m.Invocations, m.Seconds)
		}
	}
	if s.VerifyCacheHits > 0 {
		fmt.Fprintf(w, "verify cache hits: %d\n", s.VerifyCacheHits)
	}
	if s.StoreHits > 0 {
		fmt.Fprintf(w, "store hits (results served from a prior campaign): %d\n", s.StoreHits)
	}
	if s.VerifyExecs > 0 {
		fmt.Fprintf(w, "verify executions: %d vectors (kills: pool %d, special %d, random %d)\n",
			s.VerifyExecs, s.TierKills.Pool, s.TierKills.Special, s.TierKills.Random)
	}
	if s.Lift.Funcs > 0 {
		fmt.Fprintf(w, "wasm lift coverage: %s\n", s.Lift.String())
	}
	if s.Panics > 0 {
		fmt.Fprintf(w, "panics recovered (windows quarantined): %d\n", s.Panics)
	}
	if s.LearnedFindings > 0 {
		fmt.Fprintf(w, "findings backing learned rules: %d\n", s.LearnedFindings)
	}
	if len(s.RuleHits) > 0 {
		fmt.Fprintln(w, "rule attribution (verified findings):")
		ids := make([]string, 0, len(s.RuleHits))
		for id := range s.RuleHits {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(w, "  %-28s %d\n", id, s.RuleHits[id])
		}
	}
}
