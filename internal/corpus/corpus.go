// Package corpus synthesizes the IR corpus the discovery experiment (RQ2)
// and the throughput experiment (RQ3) run on. The paper uses a 14-project
// subset of the LLVM Opt Benchmark (dtcxzyw/llvm-opt-benchmark) — optimized
// IR from real C/C++/Rust projects — which is multi-GiB and unavailable
// offline. This generator produces a corpus with the properties the
// experiments rely on: canonical straight-line code, heavy duplication
// (for the dedup statistics), and planted instances of the paper's missed
// optimization patterns at configurable prevalence.
package corpus

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/benchdata"
	"repro/internal/ir"
	"repro/internal/parser"
)

// Project mirrors one of the paper's selected projects.
type Project struct {
	Name     string
	Language string
	Modules  []*ir.Module
}

// Projects lists the paper's 14 selected projects with their languages.
var projectNames = []struct{ name, lang string }{
	{"cpython", "C"}, {"ffmpeg", "C"}, {"linux", "C"}, {"openssl", "C"}, {"redis", "C"},
	{"node", "C++"}, {"protobuf", "C++"}, {"opencv", "C++"}, {"z3", "C++"},
	{"pingora", "Rust"}, {"ripgrep", "Rust"}, {"typst", "Rust"}, {"uv", "Rust"}, {"zed", "Rust"},
}

// Options sizes the corpus.
type Options struct {
	Seed              uint64
	ModulesPerProject int // default 6
	FuncsPerModule    int // default 8
}

// plantRate is the fraction of modules receiving random extra plants.
const plantRate = 0.5

func (o Options) withDefaults() Options {
	if o.ModulesPerProject == 0 {
		o.ModulesPerProject = 6
	}
	if o.FuncsPerModule == 0 {
		o.FuncsPerModule = 8
	}
	return o
}

// Generate builds the 14-project corpus. Planted pattern prevalence follows
// the shape of the paper's Table 5: the clamp (143636) and absorption
// (163108) families appear in many projects, the niche families in few.
// Functions drawn from one template or finding share its body, so every
// generated function is read-only.
func Generate(opts Options) []*Project {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(int64(opts.Seed) ^ 0xc0de))
	findings := benchdata.RQ2Findings()

	// Per-family planting weight: issues with large Table 5 impact appear
	// far more often.
	weight := func(issueID string) int {
		switch issueID {
		case "143636", "163108":
			return 8
		case "166973", "142674":
			return 4
		case "133367", "128134":
			return 2
		default:
			return 1
		}
	}

	var projects []*Project
	fnCounter := 0
	moduleIdx := 0
	totalModules := len(projectNames) * opts.ModulesPerProject
	for pi, pn := range projectNames {
		p := &Project{Name: pn.name, Language: pn.lang}
		for mi := 0; mi < opts.ModulesPerProject; mi++ {
			m := &ir.Module{Name: fmt.Sprintf("%s/mod%02d.ll", pn.name, mi)}
			for fi := 0; fi < opts.FuncsPerModule; fi++ {
				fnCounter++
				m.Funcs = append(m.Funcs, fillerFunc(rng, fnCounter))
			}
			// Guaranteed planting: every finding lands in at least one
			// module (round-robin), so patch-impact scans always see it.
			for fidx := moduleIdx; fidx < len(findings); fidx += totalModules {
				fnCounter++
				m.Funcs = append(m.Funcs, plantedFunc(findings, fidx, fnCounter))
			}
			moduleIdx++
			// Random extra plants, weighted by Table 5 prevalence.
			if rng.Float64() < plantRate {
				n := 1 + rng.Intn(3)
				for k := 0; k < n; k++ {
					fidx := (pi*31 + mi*7 + k*13 + rng.Intn(len(findings))) % len(findings)
					for w := 0; w < weight(findings[fidx].IssueID); w++ {
						fnCounter++
						m.Funcs = append(m.Funcs, plantedFunc(findings, fidx, fnCounter))
					}
				}
			}
			p.Modules = append(p.Modules, m)
		}
		projects = append(projects, p)
	}
	return projects
}

// plantShapes holds every finding's source pattern, parsed once and
// indexed like benchdata.RQ2Findings.
var (
	plantOnce   sync.Once
	plantShapes []*ir.Func
)

// plantedFunc embeds the source pattern of findings[i] as a module function.
func plantedFunc(findings []*benchdata.Finding, i, id int) *ir.Func {
	plantOnce.Do(func() {
		for _, f := range benchdata.RQ2Findings() {
			plantShapes = append(plantShapes, parser.MustParseFunc(f.Pair.Src))
		}
	})
	return shareBody(plantShapes[i], fmt.Sprintf("planted_%s_%d", findings[i].IssueID, id))
}

// shareBody returns a function named name with t's signature and body.
// Corpus functions share their parameters and blocks with the template they
// come from, so they are read-only: a consumer that rewrites one must clone
// it first (extract.WrapAsFunc copies the instructions it wraps, and
// opt.Run never mutates its input).
func shareBody(t *ir.Func, name string) *ir.Func {
	return &ir.Func{Name: name, Ret: t.Ret, Params: t.Params, Blocks: t.Blocks}
}

// fillerOps are the canonical straight-line operations filler code uses.
var fillerOps = []ir.Opcode{
	ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
	ir.OpShl, ir.OpLShr, ir.OpAShr,
}

// fillerTemplates bounds the variety of filler shapes: real optimized IR is
// extremely repetitive (the paper deduplicates 8.7M sequences down to 800K),
// so filler code is drawn from a small pool of deterministic templates and
// the extractor's dedup removes the repeats.
const fillerTemplates = 48

// fillerShapes holds the filler templates, built once: a template's shape
// is a pure function of its index.
var (
	fillerOnce   sync.Once
	fillerShapes [fillerTemplates]*ir.Func
)

// fillerFunc returns a randomly drawn filler template, sharing its body
// (see shareBody) and named for id. Filler is valid, mostly-canonical
// straight-line code; some is further optimizable — exactly like real
// corpus code — and gets filtered by the extractor.
func fillerFunc(outer *rand.Rand, id int) *ir.Func {
	fillerOnce.Do(func() {
		for t := range fillerShapes {
			fillerShapes[t] = fillerTemplate(t)
		}
	})
	return shareBody(fillerShapes[outer.Intn(fillerTemplates)], fmt.Sprintf("filler_%d", id))
}

// fillerTemplate builds filler template number template.
func fillerTemplate(template int) *ir.Func {
	rng := rand.New(rand.NewSource(int64(template) * 7919))
	// Narrow widths dominate peephole windows in practice.
	widths := []ir.IntType{ir.I8, ir.I8, ir.I8, ir.I16, ir.I16, ir.I16, ir.I32, ir.I64}
	ty := widths[rng.Intn(len(widths))]
	nParams := 1 + rng.Intn(3)
	var params []*ir.Param
	var values []ir.Value
	for i := 0; i < nParams; i++ {
		p := &ir.Param{Nm: fmt.Sprintf("a%d", i), Ty: ty}
		params = append(params, p)
		values = append(values, p)
	}
	nInstrs := 2 + rng.Intn(6)
	var instrs []*ir.Instr
	for i := 0; i < nInstrs; i++ {
		op := fillerOps[rng.Intn(len(fillerOps))]
		a := values[rng.Intn(len(values))]
		var b ir.Value
		switch op {
		case ir.OpShl, ir.OpLShr, ir.OpAShr:
			b = ir.CInt(ty, int64(rng.Intn(ty.W-1)+1))
		default:
			if rng.Intn(2) == 0 {
				b = values[rng.Intn(len(values))]
			} else {
				b = ir.CInt(ty, int64(rng.Intn(64)+1))
			}
		}
		in := ir.Bin(op, fmt.Sprintf("v%d", i), ir.NoFlags, a, b)
		instrs = append(instrs, in)
		values = append(values, in)
	}
	last := instrs[len(instrs)-1]
	instrs = append(instrs, ir.RetI(last))
	return &ir.Func{
		Ret:    ty,
		Params: params,
		Blocks: []*ir.Block{{Name: "entry", Instrs: instrs}},
	}
}

// Stats summarizes a generated corpus.
type Stats struct {
	Projects, Modules, Funcs int
}

// Summarize counts a corpus.
func Summarize(projects []*Project) Stats {
	s := Stats{Projects: len(projects)}
	for _, p := range projects {
		s.Modules += len(p.Modules)
		for _, m := range p.Modules {
			s.Funcs += len(m.Funcs)
		}
	}
	return s
}
