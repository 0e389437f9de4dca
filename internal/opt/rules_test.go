package opt

import (
	"sort"
	"testing"

	"repro/internal/alive"
	"repro/internal/ir"
	"repro/internal/parser"
)

// TestRegistryInvariants checks the structural contract of the registry:
// every rule is fully described, IDs are unique (init panics otherwise, but
// the accessors must agree too), provenances are valid, and the name
// accessors are sorted and stable.
func TestRegistryInvariants(t *testing.T) {
	rules := Rules()
	if len(rules) == 0 {
		t.Fatal("registry is empty")
	}
	seen := make(map[string]bool)
	for _, r := range rules {
		if r.ID == "" || r.Name == "" || r.Doc == "" || r.Example == "" || len(r.Roots) == 0 {
			t.Errorf("rule %q is incompletely described: %+v", r.ID, r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate rule ID %q", r.ID)
		}
		seen[r.ID] = true
		switch r.Provenance {
		case ProvBaseline:
			if r.Name != r.ID {
				t.Errorf("baseline rule %q must have Name == ID, got %q", r.ID, r.Name)
			}
		case ProvPatch, ProvKB:
		default:
			t.Errorf("rule %q has unknown provenance %q", r.ID, r.Provenance)
		}
		if got := RuleByID(r.ID); got != r {
			t.Errorf("RuleByID(%q) does not round-trip", r.ID)
		}
	}
	for name, names := range map[string][]string{
		"PatchIDs":     PatchIDs(),
		"KBNames":      KBNames(),
		"AllRuleNames": AllRuleNames(),
	} {
		if !sort.StringsAreSorted(names) {
			t.Errorf("%s is not sorted: %v", name, names)
		}
	}
	if len(PatchIDs())+len(KBNames()) != len(AllRuleNames()) {
		t.Error("AllRuleNames must be the union of PatchIDs and KBNames")
	}
}

// TestRuleSetSelectionIsDeterministic builds the same selection from
// differently-ordered (and duplicated) enable names and requires the
// identical dispatch order — the property that keeps llm.Sim's seeded
// proposals reproducible.
func TestRuleSetSelectionIsDeterministic(t *testing.T) {
	forward := AllRuleNames()
	backward := make([]string, len(forward))
	for i, n := range forward {
		backward[len(forward)-1-i] = n
	}
	withDups := append(append([]string(nil), backward...), forward...)
	ids := func(rs *RuleSet) []string {
		var out []string
		for _, r := range rs.Rules() {
			out = append(out, r.ID)
		}
		return out
	}
	a := ids(NewRuleSet(forward...))
	b := ids(NewRuleSet(backward...))
	c := ids(NewRuleSet(withDups...))
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("selection order depends on input order at %d: %s / %s / %s",
				i, a[i], b[i], c[i])
		}
	}
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("selection sizes differ: %d / %d / %d", len(a), len(b), len(c))
	}
	names := NewRuleSet(withDups...).Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("RuleSet.Names not sorted: %v", names)
	}
	if len(names) != len(forward) {
		t.Fatalf("duplicated input changed the enabled-name set: %d vs %d", len(names), len(forward))
	}
}

// TestRuleSetHonorsOptions checks selection behaviour: unknown names are
// ignored and baseline rules are always present.
func TestRuleSetHonorsOptions(t *testing.T) {
	base := NewRuleSet()
	for _, r := range base.Rules() {
		if r.Provenance != ProvBaseline {
			t.Fatalf("empty selection contains optional rule %s", r.ID)
		}
	}
	if got := NewRuleSet("no-such-rule").Len(); got != base.Len() {
		t.Fatalf("unknown enable name changed the selection: %d vs %d", got, base.Len())
	}
}

// TestRuleSoundnessSweep is the registry self-test the issue tracker calls
// the "rule soundness sweep": every registered rule must fire on its own
// Example (proved by its hit counter, so multi-rule patches cannot lean on a
// sibling), and the resulting rewrite must be a refinement of the input per
// internal/alive.
func TestRuleSoundnessSweep(t *testing.T) {
	for _, r := range Rules() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			f, err := parser.ParseFunc(r.Example)
			if err != nil {
				t.Fatalf("example does not parse: %v\n%s", err, r.Example)
			}
			opts := Options{}
			if r.Provenance != ProvBaseline {
				opts.Rules = NewRuleSet(r.Name)
			}
			g, stats := RunWithStats(f, opts)
			if stats.RuleHits[r.ID] == 0 {
				t.Fatalf("rule did not fire on its example (hits: %v):\n%s\n->\n%s",
					stats.RuleHits, f, g)
			}
			if err := ir.VerifyFunc(g); err != nil {
				t.Fatalf("rewrite produced invalid IR: %v\n%s", err, g)
			}
			v := alive.Verify(f, g, alive.Options{Samples: 1024, Seed: 7})
			if v.Verdict != alive.Correct {
				msg := v.Err
				if v.CE != nil {
					msg = v.CE.Format()
				}
				t.Fatalf("rewrite is not a refinement:\n%s\n->\n%s\n%s", f, g, msg)
			}
		})
	}
}

// TestRunWithStatsCountsHits pins the end-to-end hit accounting on a known
// pattern: the clamp benchmark closed by patch 143636.
func TestRunWithStatsCountsHits(t *testing.T) {
	f := parser.MustParseFunc(`define i8 @src(i32 %0) {
  %2 = icmp slt i32 %0, 0
  %3 = tail call i32 @llvm.umin.i32(i32 %0, i32 255)
  %4 = trunc nuw i32 %3 to i8
  %5 = select i1 %2, i8 0, i8 %4
  ret i8 %5
}`)
	_, stats := RunWithStats(f, Options{Rules: NewRuleSet("143636")})
	if stats.RuleHits["143636/clamp-smax"] == 0 {
		t.Fatalf("expected the clamp rule to be attributed, got %v", stats.RuleHits)
	}
	if stats.Iters == 0 {
		t.Fatal("iteration count missing")
	}
	kb := NewRuleSet(AllRuleNames()...)
	ids := AttributedIDs(f, kb)
	if len(ids) == 0 || ids[0] != "143636/clamp-smax" {
		t.Fatalf("AttributedIDs = %v, want the clamp rule first", ids)
	}
	for _, id := range ids {
		if RuleByID(id).Provenance == ProvBaseline {
			t.Fatalf("attribution leaked a baseline rule: %v", ids)
		}
	}
}
