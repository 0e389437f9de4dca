// Package service is the discovery-as-a-service layer behind cmd/lpod: an
// HTTP/JSON front end over a persistent engine worker pool and the
// content-addressed store (internal/store). It also hosts the persistence
// bridges cmd/lpo -store reuses for warm-started batch runs: saving engine
// results as findings, loading/flushing the counterexample pool, and
// assembling rulebooks from stored entries.
package service

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/alive"
	"repro/internal/engine"
	"repro/internal/generalize"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/store"
)

// FindingFromResult converts one engine result into its persisted form.
// The window key comes from the source function's structural hash — the
// same identity the engine's verify cache and the CEPool use.
func FindingFromResult(res engine.Result) *store.Finding {
	f := &store.Finding{
		Window:       store.WindowKey(ir.Hash(res.Src)),
		Outcome:      string(res.Outcome),
		Round:        res.Round,
		Src:          res.Src.String(),
		InstrsBefore: res.InstrsBefore,
		InstrsAfter:  res.InstrsAfter,
		CyclesBefore: res.CyclesBefore,
		CyclesAfter:  res.CyclesAfter,
		RuleHits:     res.RuleHits,
	}
	if res.Cand != nil {
		f.Cand = res.Cand.String()
	}
	if res.Learned != nil {
		f.LearnedID = res.Learned.ID
	}
	return f
}

// ResultFromFinding reconstructs an engine result from its persisted form,
// re-parsing the stored IR printouts. Learned rules are not reattached (the
// rulebook is served separately); RuleHits and the gain metrics survive.
func ResultFromFinding(f *store.Finding) (engine.Result, error) {
	src, err := parser.ParseFunc(f.Src)
	if err != nil {
		return engine.Result{}, fmt.Errorf("service: stored finding %s: %w", f.Window, err)
	}
	res := engine.Result{
		Outcome:      engine.Outcome(f.Outcome),
		Round:        f.Round,
		Src:          src,
		InstrsBefore: f.InstrsBefore,
		InstrsAfter:  f.InstrsAfter,
		CyclesBefore: f.CyclesBefore,
		CyclesAfter:  f.CyclesAfter,
		RuleHits:     f.RuleHits,
	}
	if f.Cand != "" {
		cand, err := parser.ParseFunc(f.Cand)
		if err != nil {
			return engine.Result{}, fmt.Errorf("service: stored finding %s: %w", f.Window, err)
		}
		res.Cand = cand
	}
	return res, nil
}

// SaveResult persists one computed result: the finding record plus, when
// the result carries a learned rule, the rulebook entry. Results served
// from the store (res.Cached) and per-run Duplicate outcomes are skipped —
// there is nothing new to record. Degraded and Panicked results are skipped
// too: persisting a fault-shaped outcome would make the store diverge from
// a fault-free same-seed campaign, so those windows stay recomputable (the
// service serves degraded outcomes from memory meanwhile). It reports
// whether a new finding record was appended; the store's Flush makes the
// batch durable.
func SaveResult(st store.Backend, res engine.Result) (added bool, err error) {
	if res.Cached || res.Src == nil || res.Degraded ||
		res.Outcome == engine.Duplicate || res.Outcome == engine.Canceled ||
		res.Outcome == engine.Errored || res.Outcome == engine.Panicked {
		return false, nil
	}
	f := FindingFromResult(res)
	data, err := f.Encode()
	if err != nil {
		return false, err
	}
	added, err = st.Put(store.KindFinding, f.Window, data)
	if err != nil {
		return false, err
	}
	if res.Learned != nil {
		if err := SaveRule(st, res.Learned); err != nil {
			return added, err
		}
	}
	return added, nil
}

// SaveRule persists one learned rule as a rulebook entry keyed by its
// content-derived ID.
func SaveRule(st store.Backend, r *generalize.Rule) error {
	book := generalize.NewRulebook([]*generalize.Rule{r})
	entry := book.Rules[0]
	data, err := json.MarshalIndent(&entry, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = st.Put(store.KindRule, entry.ID, data)
	return err
}

// StoreLookup adapts a store into the engine's Config.Lookup hook: a
// sequence whose window hash has a stored finding is served from the store
// without a provider or verifier round.
func StoreLookup(st store.Backend) func(src *ir.Func) (engine.Result, bool) {
	return func(src *ir.Func) (engine.Result, bool) {
		data, ok := st.Get(store.KindFinding, store.WindowKey(ir.Hash(src)))
		if !ok {
			return engine.Result{}, false
		}
		f, err := store.DecodeFinding(data)
		if err != nil {
			return engine.Result{}, false
		}
		res, err := ResultFromFinding(f)
		if err != nil {
			return engine.Result{}, false
		}
		return res, true
	}
}

// LoadPool installs every stored counterexample vector into the pool, so
// tier-0 replay starts with the accumulated falsifier corpus of every
// previous campaign against this store. It returns how many vectors were
// loaded (duplicates already in the pool don't count).
func LoadPool(st store.Backend, pool *alive.CEPool) (int, error) {
	n := 0
	var firstErr error
	st.Scan(store.KindVector, func(key string, val []byte) bool {
		pv, err := store.DecodePoolVec(val)
		if err != nil {
			firstErr = err
			return false
		}
		window, vec, err := pv.Vector()
		if err != nil {
			firstErr = err
			return false
		}
		if pool.Load(window, vec) {
			n++
		}
		return true
	})
	return n, firstErr
}

// FlushPool drains the pool's pending vectors (everything deposited since
// the last flush) into the store. It returns how many new vector records
// were appended; the store's Flush makes the batch durable.
func FlushPool(st store.Backend, pool *alive.CEPool) (int, error) {
	n := 0
	for _, wv := range pool.DrainPending() {
		pv := store.NewPoolVec(wv.Window, wv.Vec)
		data, err := pv.Encode()
		if err != nil {
			return n, err
		}
		added, err := st.Put(store.KindVector, store.VectorKey(wv.Window, data), data)
		if err != nil {
			return n, err
		}
		if added {
			n++
		}
	}
	return n, nil
}

// CompactKeep is the service's store-compaction policy: findings and rules
// are immutable campaign output and always survive; a pool vector survives
// only while the live pool still holds it — a vector the clock evicted
// stopped killing candidates and is dead weight on disk. Vectors that fail
// to decode are kept (compaction must never turn corruption into loss).
func CompactKeep(pool *alive.CEPool) func(kind store.Kind, key string, val []byte) bool {
	return func(kind store.Kind, key string, val []byte) bool {
		if kind != store.KindVector {
			return true
		}
		pv, err := store.DecodePoolVec(val)
		if err != nil {
			return true
		}
		window, vec, err := pv.Vector()
		if err != nil {
			return true
		}
		return pool.Contains(window, vec)
	}
}

// StoreRulebook assembles the store's rulebook entries into a serializable
// book (sorted by rule ID, deterministic encoding) — the union of every
// campaign's learned rules against this store.
func StoreRulebook(st store.Backend) (*generalize.Rulebook, error) {
	book := &generalize.Rulebook{Version: generalize.RulebookVersion}
	var firstErr error
	st.Scan(store.KindRule, func(key string, val []byte) bool {
		var e generalize.Entry
		if err := json.Unmarshal(val, &e); err != nil {
			firstErr = fmt.Errorf("service: stored rule %s: %w", key, err)
			return false
		}
		book.Rules = append(book.Rules, e)
		return true
	})
	if firstErr != nil {
		return nil, firstErr
	}
	sort.Slice(book.Rules, func(i, j int) bool { return book.Rules[i].ID < book.Rules[j].ID })
	return book, nil
}

// StoreOptRules compiles the store's rulebook entries into registry rules
// ready for RuleSet.WithRules — the warm-start path that lets a store's
// accumulated rules strengthen a new campaign's extractor and preprocessor.
func StoreOptRules(st store.Backend) ([]*opt.Rule, error) {
	book, err := StoreRulebook(st)
	if err != nil {
		return nil, err
	}
	if len(book.Rules) == 0 {
		return nil, nil
	}
	rules, err := book.Compile()
	if err != nil {
		return nil, err
	}
	return generalize.OptRules(rules)
}
