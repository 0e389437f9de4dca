package engine

import (
	"context"
	"os"
	"sync"

	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/wasm"
)

// Source streams instruction sequences into the engine. Next returns the
// next sequence, ok=false once the source is drained, or an error (which
// aborts the run with a final Errored result). Next is called from a single
// feeder goroutine, so implementations need not be re-entrant; they should
// respect ctx so a cancelled run stops producing promptly. Stream-backed
// sources (Modules, File, Corpus) bind their producer to the first Next
// call's context — consume them under a single context.
type Source interface {
	Next(ctx context.Context) (*extract.Sequence, bool, error)
}

// sliceSource serves pre-extracted sequences.
type sliceSource struct {
	seqs []*extract.Sequence
	i    int
}

func (s *sliceSource) Next(ctx context.Context) (*extract.Sequence, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if s.i >= len(s.seqs) {
		return nil, false, nil
	}
	s.i++
	return s.seqs[s.i-1], true, nil
}

// Sequences is a slice-backed Source over already-extracted sequences.
func Sequences(seqs ...*extract.Sequence) Source {
	return &sliceSource{seqs: seqs}
}

// Funcs wraps bare functions (benchmark cases, registry pairs) as a Source.
func Funcs(fns ...*ir.Func) Source {
	seqs := make([]*extract.Sequence, len(fns))
	for i, fn := range fns {
		seqs[i] = &extract.Sequence{Fn: fn, Len: fn.NumInstrs(true)}
	}
	return &sliceSource{seqs: seqs}
}

// streamSource adapts a push-style producer (the extractor's Stream) into
// the pull-style Source. The producer goroutine starts lazily on the first
// Next, is bound to that first call's context, and stops as soon as that
// context ends. Consume a stream source with one context: if the binding
// context is cancelled, any later Next reports the cancellation error
// rather than silently presenting a truncated stream as drained.
type streamSource struct {
	once    sync.Once
	produce func(ctx context.Context, emit func(*extract.Sequence) bool) error
	ch      chan *extract.Sequence
	errc    chan error
}

func newStreamSource(produce func(ctx context.Context, emit func(*extract.Sequence) bool) error) *streamSource {
	return &streamSource{
		produce: produce,
		ch:      make(chan *extract.Sequence),
		errc:    make(chan error, 1),
	}
}

func (s *streamSource) Next(ctx context.Context) (*extract.Sequence, bool, error) {
	s.once.Do(func() {
		go func() {
			defer close(s.ch)
			emit := func(seq *extract.Sequence) bool {
				select {
				case s.ch <- seq:
					return true
				case <-ctx.Done():
					return false
				}
			}
			err := s.produce(ctx, emit)
			if err == nil {
				// A producer stopped by cancellation must not look like a
				// normally drained stream to a caller holding another
				// (live) context.
				err = ctx.Err()
			}
			if err != nil {
				s.errc <- err
			}
		}()
	})
	select {
	case seq, ok := <-s.ch:
		if !ok {
			select {
			case err := <-s.errc:
				return nil, false, err
			default:
			}
			return nil, false, nil
		}
		return seq, true, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// Modules streams the extraction of the given modules through ex, emitting
// each kept sequence as soon as Algorithm 2 finds it. The extractor's dedup
// set spans all modules (and any other source sharing ex).
func Modules(ex *extract.Extractor, mods ...*ir.Module) Source {
	return newStreamSource(func(ctx context.Context, emit func(*extract.Sequence) bool) error {
		for _, m := range mods {
			if ctx.Err() != nil {
				return nil
			}
			ex.Stream(m, emit)
		}
		return nil
	})
}

// File lazily parses an .ll file and streams its extracted sequences.
func File(path string, ex *extract.Extractor) Source {
	return newStreamSource(func(ctx context.Context, emit func(*extract.Sequence) bool) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		m, err := parser.Parse(string(data))
		if err != nil {
			return err
		}
		ex.Stream(m, emit)
		return nil
	})
}

// WasmModules lifts decoded wasm modules to IR and streams the extraction
// of every lifted function. Per-module lift coverage (functions lifted,
// skipped, and why) is folded into stats when non-nil — pass the owning
// engine's Stats so `lpo -stats` and /v1/stats report it.
func WasmModules(ex *extract.Extractor, stats *Stats, mods ...*wasm.Module) Source {
	return newStreamSource(func(ctx context.Context, emit func(*extract.Sequence) bool) error {
		liftWasm(ctx, ex, stats, mods, emit)
		return nil
	})
}

// WasmCorpus streams the extraction of the embedded wasm fixture corpus
// (corpus.WasmModules), recording lift coverage into stats when non-nil.
func WasmCorpus(ex *extract.Extractor, stats *Stats) Source {
	return newStreamSource(func(ctx context.Context, emit func(*extract.Sequence) bool) error {
		mods, err := corpus.WasmModules()
		if err != nil {
			return err
		}
		liftWasm(ctx, ex, stats, mods, emit)
		return nil
	})
}

// liftWasm lifts each module, records its lift coverage into stats when
// non-nil, and streams the extraction of its functions, until ctx ends.
func liftWasm(ctx context.Context, ex *extract.Extractor, stats *Stats, mods []*wasm.Module, emit func(*extract.Sequence) bool) {
	for _, wm := range mods {
		if ctx.Err() != nil {
			return
		}
		name := wm.Name
		if name == "" {
			name = "wasm"
		}
		m, st := wasm.Lift(wm, name)
		if stats != nil {
			stats.RecordLift(st)
		}
		ex.Stream(m, emit)
	}
}

// Corpus lazily generates the synthetic corpus and streams the extraction of
// every module of every project.
func Corpus(copts corpus.Options, ex *extract.Extractor) Source {
	return newStreamSource(func(ctx context.Context, emit func(*extract.Sequence) bool) error {
		for _, p := range corpus.Generate(copts) {
			for _, m := range p.Modules {
				if ctx.Err() != nil {
					return nil
				}
				ex.Stream(m, emit)
			}
		}
		return nil
	})
}
