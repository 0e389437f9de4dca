package generalize

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/alive"
	"repro/internal/interp"
	"repro/internal/opt"
	"repro/internal/parser"
)

// RulebookVersion is the serialization format version.
const RulebookVersion = 1

// Entry is one learned rule in serialized form: the witness pair, the slot
// abstractions, the verified widths, and rendered side conditions for human
// readers. Slots pair with the constant occurrences of the witness pair in
// traversal order (source first), which is how Compile reconstructs the
// matcher without re-running the search.
type Entry struct {
	ID     string   `json:"id"`
	Doc    string   `json:"doc"`
	Width  int      `json:"witness_width"`
	Widths []int    `json:"verified_widths"`
	Src    string   `json:"src"`
	Tgt    string   `json:"tgt"`
	Slots  []CExpr  `json:"slots"`
	Conds  []string `json:"side_conditions,omitempty"`
	Origin string   `json:"origin,omitempty"`
}

// Rulebook is the serializable set of learned rules a discovery campaign
// produces (cmd/lpo -learn) and later runs consume (cmd/lpo -rulebook,
// cmd/lpo-opt -rulebook).
type Rulebook struct {
	Version int     `json:"version"`
	Rules   []Entry `json:"rules"`
}

// NewRulebook serializes learned rules into a book, sorted by rule ID so the
// encoding is deterministic.
func NewRulebook(rules []*Rule) *Rulebook {
	b := &Rulebook{Version: RulebookVersion}
	for _, r := range rules {
		b.Rules = append(b.Rules, Entry{
			ID: r.ID, Doc: r.Doc, Width: r.Width, Widths: r.Widths,
			Src: r.SrcIR, Tgt: r.TgtIR, Slots: r.Slots, Conds: r.Conds(),
			Origin: r.Origin,
		})
	}
	sort.Slice(b.Rules, func(i, j int) bool { return b.Rules[i].ID < b.Rules[j].ID })
	return b
}

// Encode renders the book as indented JSON with a trailing newline.
func (b *Rulebook) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeRulebook parses a serialized rulebook.
func DecodeRulebook(data []byte) (*Rulebook, error) {
	var b Rulebook
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("rulebook: %w", err)
	}
	if b.Version != RulebookVersion {
		return nil, fmt.Errorf("rulebook: unsupported version %d", b.Version)
	}
	return &b, nil
}

// LoadRulebook reads and decodes a rulebook file.
func LoadRulebook(path string) (*Rulebook, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeRulebook(data)
}

// LoadOptRules is the one-call load path the CLIs use: read a rulebook
// file, compile its entries (with the integrity checks), and wrap them as
// registry rules ready for RuleSet.WithRules.
func LoadOptRules(path string) ([]*opt.Rule, error) {
	book, err := LoadRulebook(path)
	if err != nil {
		return nil, err
	}
	rules, err := book.Compile()
	if err != nil {
		return nil, err
	}
	return OptRules(rules)
}

// Compile reconstructs every entry's Rule: the witness pair is re-parsed and
// re-analyzed, the stored slots are checked against the witness constants,
// and the content-derived ID is recomputed and must match — a cheap
// integrity check that catches hand-edited or corrupted books without
// re-running verification. Use Verify for the full re-check.
func (b *Rulebook) Compile() ([]*Rule, error) {
	out := make([]*Rule, 0, len(b.Rules))
	for i := range b.Rules {
		r, err := b.Rules[i].Compile()
		if err != nil {
			return nil, fmt.Errorf("rulebook entry %d (%s): %w", i, b.Rules[i].ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Compile reconstructs one entry's Rule.
func (e *Entry) Compile() (*Rule, error) {
	src, err := parser.ParseFunc(e.Src)
	if err != nil {
		return nil, fmt.Errorf("source: %w", err)
	}
	tgt, err := parser.ParseFunc(e.Tgt)
	if err != nil {
		return nil, fmt.Errorf("target: %w", err)
	}
	ss, err := analyze(src)
	if err != nil {
		return nil, fmt.Errorf("source: %w", err)
	}
	ts, err := analyze(tgt)
	if err != nil {
		return nil, fmt.Errorf("target: %w", err)
	}
	if ss.width != e.Width || ts.width != e.Width {
		return nil, fmt.Errorf("witness width %d does not match the pair", e.Width)
	}
	occs := append(append([]constOcc(nil), ss.occs...), ts.occs...)
	if len(e.Slots) != len(occs) {
		return nil, fmt.Errorf("%d slots for %d constant occurrences", len(e.Slots), len(occs))
	}
	for i, s := range e.Slots {
		v, ok := slotValue(s, occs[i], e.Width)
		if !ok || v != occs[i].val {
			return nil, fmt.Errorf("slot %d (%s) does not reproduce the witness constant", i, s.Render())
		}
	}
	if len(e.Widths) == 0 || !sort.IntsAreSorted(e.Widths) {
		return nil, fmt.Errorf("verified widths must be non-empty and ascending")
	}
	r, err := newRule(ss, ts, e.Slots, e.Widths)
	if err != nil {
		return nil, err
	}
	if r.ID != e.ID {
		return nil, fmt.Errorf("content hash mismatch: stored %s, recomputed %s", e.ID, r.ID)
	}
	r.Origin = e.Origin
	return r, nil
}

// Verify re-checks every entry's refinement obligation across its recorded
// widths with internal/alive; it is the load-time belt-and-braces check for
// books from untrusted sources.
func (b *Rulebook) Verify(opts alive.Options) error {
	rules, err := b.Compile()
	if err != nil {
		return err
	}
	if opts.Programs == nil {
		opts.Programs = interp.NewCache()
	}
	for _, r := range rules {
		wrs := alive.VerifyWidths(r.Widths, opts, r.Instantiate)
		for _, wr := range wrs {
			if wr.Verdict != alive.Correct {
				return fmt.Errorf("rule %s does not verify at width i%d", r.ID, wr.Width)
			}
		}
	}
	return nil
}
