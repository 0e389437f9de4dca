package opt

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

// Provenance records where a rule comes from: the baseline optimizer, a
// modelled LLVM fix (paper Table 5), or the simulated LLM's knowledge base.
type Provenance string

// Provenance values.
const (
	ProvBaseline Provenance = "baseline"
	ProvPatch    Provenance = "patch"
	ProvKB       Provenance = "kb"
	// ProvLearned marks rules synthesized at runtime by internal/generalize
	// from verified discovery findings. Learned rules never enter the init
	// registry; they are attached to selections with RuleSet.WithRules.
	ProvLearned Provenance = "learned"
)

// ruleFn is the rewrite contract every registered rule implements: given an
// instruction (and the instructions already emitted before it in the current
// sweep), return the instructions to insert, the value replacing the original
// result (nil deletes a void instruction), and whether the rule fired.
type ruleFn func(t *transform, in *ir.Instr, prior []*ir.Instr) ([]*ir.Instr, ir.Value, bool)

// Rule is one first-class rewrite rule in the registry. Rules are enumerable
// (Rules, cmd/lpo-opt -rules), attributable (RunStats.RuleHits, Attribute)
// and selectable by enable name (NewRuleSet); the apply function itself
// stays private to the package.
type Rule struct {
	// ID uniquely identifies the rule, e.g. "baseline:zext-trunc",
	// "157371/neg-via-xor" or "kb:rotate". Hit counters are keyed by ID.
	ID string
	// Name is the enable name NewRuleSet selects by. Patch rules share
	// their issue ID (157371 landed as two patches, so two rules share the
	// name "157371"); baseline and knowledge-base rules have Name == ID.
	// Baseline rules are always enabled, whatever names are selected.
	Name string
	// Provenance classifies the rule (baseline / patch / kb).
	Provenance Provenance
	// Roots are the opcodes the rule can fire on; dispatch tables are indexed
	// by them. A rule is only ever invoked on instructions whose opcode is in
	// Roots.
	Roots []ir.Opcode
	// Doc is the one-line pattern the rule implements.
	Doc string
	// Example is a synthetic .ll function the rule fires on. The registry
	// self-test proves every rule fires on its Example and that the rewrite
	// is a refinement per internal/alive.
	Example string

	apply ruleFn
}

// registry holds every rule in deterministic order: baseline rules in
// pipeline order (simplify identities before emitting rewrites), then the
// optional patch and knowledge-base rules sorted by enable name.
var (
	registry       []*Rule
	ruleByID       map[string]*Rule
	optionalByName map[string][]*Rule
)

func init() {
	registry = append(registry, baselineSimplifyRules()...)
	registry = append(registry, baselineRewriteRules()...)
	optional := append(patchRuleDefs(), kbRuleDefs()...)
	// Sorting by enable name (stable, so multi-rule patches keep their
	// intra-patch order) reproduces the seed dispatcher's sorted-name scan
	// and makes every accessor below deterministic.
	sort.SliceStable(optional, func(i, j int) bool { return optional[i].Name < optional[j].Name })
	registry = append(registry, optional...)

	ruleByID = make(map[string]*Rule, len(registry))
	optionalByName = make(map[string][]*Rule)
	for _, r := range registry {
		if r.ID == "" || r.Name == "" || len(r.Roots) == 0 || r.apply == nil {
			panic("opt: incomplete rule registration: " + r.ID)
		}
		if _, dup := ruleByID[r.ID]; dup {
			panic("opt: duplicate rule ID " + r.ID)
		}
		ruleByID[r.ID] = r
		if r.Provenance != ProvBaseline {
			optionalByName[r.Name] = append(optionalByName[r.Name], r)
		}
	}
	// Prebuild the common selections: the baseline set covers every Run
	// with no optional rules enabled (the dominant case — extraction
	// canonicalizes each window with the plain baseline), and the full set
	// backs the knowledge-base consumers (llm.Sim, engine attribution).
	baselineSet = buildRuleSet(nil)
	fullSet = buildRuleSet(AllRuleNames())
}

// Shared selections (immutable after init, safe for concurrent use).
var baselineSet, fullSet *RuleSet

// FullRuleSet returns the shared selection with every patch and
// knowledge-base rule enabled — the "ideal optimizer" the simulated LLM
// proposes from and the registry view attribution runs against.
func FullRuleSet() *RuleSet { return fullSet }

// Rules returns every registered rule in deterministic order (baseline rules
// first, then patches and knowledge base sorted by enable name). Callers must
// treat the returned rules as read-only.
func Rules() []*Rule { return append([]*Rule(nil), registry...) }

// RuleByID returns the registered rule with the given ID, or nil.
func RuleByID(id string) *Rule { return ruleByID[id] }

// PatchIDs returns the issue IDs with modelled fixes (paper Table 5), sorted.
func PatchIDs() []string { return namesWithProvenance(ProvPatch) }

// KBNames returns the knowledge-base rule names (without the patch rules),
// sorted.
func KBNames() []string { return namesWithProvenance(ProvKB) }

// AllRuleNames returns every optional enable name — modelled patches plus the
// LLM knowledge base — in sorted order. Enabling all of them yields the
// "ideal optimizer" the simulated LLM aspires to.
func AllRuleNames() []string {
	return append(PatchIDs(), KBNames()...)
}

func namesWithProvenance(p Provenance) []string {
	var names []string
	seen := make(map[string]bool)
	for _, r := range registry {
		if r.Provenance == p && !seen[r.Name] {
			seen[r.Name] = true
			names = append(names, r.Name)
		}
	}
	sort.Strings(names)
	return names
}

// DynamicApply is the rewrite contract for rules constructed at runtime
// (learned rules). It mirrors ruleFn but exposes only the fresh-name
// generator instead of the whole transform, keeping the package's rewriting
// state private.
type DynamicApply func(fresh func() string, in *ir.Instr, prior []*ir.Instr) ([]*ir.Instr, ir.Value, bool)

// DynamicSpec describes a runtime-constructed rule.
type DynamicSpec struct {
	ID      string // must not collide with a registry rule ID
	Name    string // enable name (defaults to ID)
	Doc     string
	Example string
	Roots   []ir.Opcode
	Apply   DynamicApply
}

// NewDynamicRule builds a first-class rule (provenance ProvLearned) from an
// externally-compiled matcher/rewriter. The rule does not join the init
// registry — attach it to a selection with RuleSet.WithRules — but once
// attached it is dispatched, attributed and counted exactly like a
// registered rule.
func NewDynamicRule(s DynamicSpec) (*Rule, error) {
	if s.ID == "" || len(s.Roots) == 0 || s.Apply == nil {
		return nil, fmt.Errorf("opt: dynamic rule needs an ID, root opcodes and an apply function")
	}
	if _, taken := ruleByID[s.ID]; taken {
		return nil, fmt.Errorf("opt: dynamic rule ID %q collides with a registry rule", s.ID)
	}
	name := s.Name
	if name == "" {
		name = s.ID
	}
	apply := s.Apply
	return &Rule{
		ID: s.ID, Name: name, Provenance: ProvLearned,
		Roots: append([]ir.Opcode(nil), s.Roots...), Doc: s.Doc, Example: s.Example,
		apply: func(t *transform, in *ir.Instr, prior []*ir.Instr) ([]*ir.Instr, ir.Value, bool) {
			return apply(t.freshName, in, prior)
		},
	}, nil
}

// opcodeLimit sizes the dispatch tables; opcodes are small contiguous ints.
const opcodeLimit = int(ir.OpUnreachable) + 1

// RuleSet is an immutable selection of rules with a precomputed dispatch
// table indexed by root opcode. Build one with NewRuleSet and reuse it via
// Options.Rules for every function optimized with that selection.
type RuleSet struct {
	rules []*Rule
	names []string // enabled optional names, sorted
	byID  map[string]*Rule
	index [opcodeLimit][]*Rule
}

// NewRuleSet resolves enable names against the registry: baseline rules are
// always included, optional rules are included when their enable name is
// listed — issue IDs from the paper's Table 5 (modelling LLVM after the
// corresponding fix landed) and "kb:" knowledge-base rules. Unknown names
// are ignored, duplicates are deduped, and the resulting rule order is
// deterministic regardless of the order of names. With no names it returns
// the shared baseline selection, which costs nothing to build.
func NewRuleSet(names ...string) *RuleSet {
	if len(names) == 0 {
		return baselineSet
	}
	return buildRuleSet(names)
}

func buildRuleSet(names []string) *RuleSet {
	enabled := make(map[string]bool, len(names))
	for _, n := range names {
		enabled[n] = true
	}
	rs := &RuleSet{byID: make(map[string]*Rule)}
	seenName := make(map[string]bool)
	for _, r := range registry {
		if r.Provenance != ProvBaseline {
			if !enabled[r.Name] {
				continue
			}
			if !seenName[r.Name] {
				seenName[r.Name] = true
				rs.names = append(rs.names, r.Name)
			}
		}
		rs.rules = append(rs.rules, r)
		rs.byID[r.ID] = r
		for _, op := range r.Roots {
			rs.index[op] = append(rs.index[op], r)
		}
	}
	sort.Strings(rs.names)
	return rs
}

// WithRules returns a new selection extending rs with the given rules
// (typically learned rules from a rulebook): the extra rules are
// deduplicated by ID, sorted by ID for determinism, and appended after the
// registry rules in every dispatch list. rs itself is never mutated, so the
// shared baseline selections stay immutable.
func (rs *RuleSet) WithRules(extra ...*Rule) *RuleSet {
	var add []*Rule
	for _, r := range extra {
		if r == nil || rs.byID[r.ID] != nil {
			continue
		}
		dup := false
		for _, a := range add {
			if a.ID == r.ID {
				dup = true
				break
			}
		}
		if !dup {
			add = append(add, r)
		}
	}
	if len(add) == 0 {
		return rs
	}
	sort.Slice(add, func(i, j int) bool { return add[i].ID < add[j].ID })
	n := &RuleSet{
		rules: append([]*Rule(nil), rs.rules...),
		names: append([]string(nil), rs.names...),
		byID:  make(map[string]*Rule, len(rs.byID)+len(add)),
		index: rs.index,
	}
	for id, r := range rs.byID {
		n.byID[id] = r
	}
	seenName := make(map[string]bool, len(n.names))
	for _, nm := range n.names {
		seenName[nm] = true
	}
	for _, r := range add {
		if r.ID == "" || len(r.Roots) == 0 || r.apply == nil {
			panic("opt: incomplete rule in WithRules: " + r.ID)
		}
		n.rules = append(n.rules, r)
		n.byID[r.ID] = r
		if r.Provenance != ProvBaseline && !seenName[r.Name] {
			seenName[r.Name] = true
			n.names = append(n.names, r.Name)
		}
		for _, op := range r.Roots {
			// Copy-on-extend: the array assignment above shares the backing
			// slices with rs, so never append in place.
			n.index[op] = append(append([]*Rule(nil), n.index[op]...), r)
		}
	}
	sort.Strings(n.names)
	return n
}

// Rules returns the selected rules in dispatch order (read-only).
func (rs *RuleSet) Rules() []*Rule { return append([]*Rule(nil), rs.rules...) }

// Names returns the enabled optional enable names, sorted.
func (rs *RuleSet) Names() []string { return append([]string(nil), rs.names...) }

// Len is the number of selected rules.
func (rs *RuleSet) Len() int { return len(rs.rules) }

// RuleByID returns the selected rule with the given ID, or nil. Unlike the
// package-level RuleByID it also resolves dynamic (learned) rules attached
// with WithRules.
func (rs *RuleSet) RuleByID(id string) *Rule { return rs.byID[id] }

// rulesFor returns the dispatch list for one root opcode.
func (rs *RuleSet) rulesFor(op ir.Opcode) []*Rule {
	if int(op) < 0 || int(op) >= opcodeLimit {
		return nil
	}
	return rs.index[op]
}

// applyRules dispatches the instruction through the opcode-indexed table and
// applies the first rule that fires, recording a hit against its ID.
func (t *transform) applyRules(in *ir.Instr, prior []*ir.Instr) ([]*ir.Instr, ir.Value, bool) {
	for _, r := range t.rs.rulesFor(in.Op) {
		if news, v, ok := r.apply(t, in, prior); ok {
			if t.hits == nil {
				t.hits = make(map[string]int)
			}
			t.hits[r.ID]++
			return news, v, true
		}
	}
	return nil, nil, false
}

// Attribute reports which optional (patch / knowledge-base / learned) rules
// fire when optimizing f with rs, keyed by rule ID. Baseline rules are
// filtered out: the result names the missed optimizations that close the
// window, not the canonicalization cleanup around them. An empty map means
// the rule set does not improve f beyond the baseline rules.
func Attribute(f *ir.Func, rs *RuleSet) map[string]int {
	if rs == nil {
		rs = baselineSet
	}
	_, stats := RunWithStats(f, Options{Rules: rs})
	out := make(map[string]int)
	for id, n := range stats.RuleHits {
		if r := rs.RuleByID(id); r != nil && r.Provenance != ProvBaseline {
			out[id] = n
		}
	}
	return out
}

// OptionalRuleHits filters a RunStats.RuleHits map down to the optional
// (patch / knowledge-base) rules, dropping the baseline cleanup around them.
// It is the one place the attribution provenance filter lives.
func OptionalRuleHits(hits map[string]int) map[string]int {
	out := make(map[string]int)
	for id, n := range hits {
		if r := ruleByID[id]; r != nil && r.Provenance != ProvBaseline {
			out[id] = n
		}
	}
	return out
}

// AttributedIDs is Attribute flattened to sorted rule IDs, for reports.
func AttributedIDs(f *ir.Func, rs *RuleSet) []string {
	hits := Attribute(f, rs)
	ids := make([]string, 0, len(hits))
	for id := range hits {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
