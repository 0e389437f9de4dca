package main

// The traced run's instruments. Each one wraps a public seam of the system
// and times the calls that cross it from outside; none reaches into a
// package. The end-to-end runs use none of them.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/llm"
	"repro/internal/store"
)

// perLayer lists the per-layer metrics a --trace 1 run reports, with units.
// Metrics of a layer a workload does not reach read 0.
var perLayer = []struct{ name, unit string }{
	{"traced.ops_per_s", "1/s"},
	{"traced.overhead", "ratio"},
	{"corpus.busy_s", "s"},
	{"extract.busy_s", "s"},
	{"extract.kept_ratio", "ratio"},
	{"llm.calls", "count"},
	{"llm.busy_s", "s"},
	{"llm.virtual_s", "s"},
	{"parser.fail_ratio", "ratio"},
	{"engine.preprocess_busy_s", "s"},
	{"engine.filter_busy_s", "s"},
	{"engine.found_ratio", "ratio"},
	{"engine.cpu_util", "ratio"},
	{"alive.verify_calls", "count"},
	{"alive.verify_busy_s", "s"},
	{"alive.vectors", "count"},
	{"alive.vectors_per_s", "1/s"},
	{"alive.cache_hit_ratio", "ratio"},
	{"alive.kills_pool", "count"},
	{"alive.kills_special", "count"},
	{"alive.kills_random", "count"},
	{"alive.refuted_ratio", "ratio"},
	{"interp.batched_ratio", "ratio"},
	{"generalize.calls", "count"},
	{"generalize.busy_s", "s"},
	{"generalize.rule_yield", "ratio"},
	{"store.put_calls", "count"},
	{"store.put_busy_s", "s"},
	{"store.flush_calls", "count"},
	{"store.flush_wait_s", "s"},
	{"store.records_per_commit", "ratio"},
	{"store.commit_fails", "count"},
	{"store.get_calls", "count"},
	{"store.get_busy_s", "s"},
	{"store.open_s", "s"},
	{"service.submit_busy_s", "s"},
	{"service.finding_busy_s", "s"},
	{"service.wasm_submit_busy_s", "s"},
	{"service.transport_s", "s"},
	{"service.rejected", "count"},
	{"service.cached_ratio", "ratio"},
	{"share.corpus", "ratio"},
	{"share.extract", "ratio"},
	{"share.llm", "ratio"},
	{"share.parser_opt", "ratio"},
	{"share.mca", "ratio"},
	{"share.alive", "ratio"},
	{"share.generalize", "ratio"},
	{"share.store", "ratio"},
	{"share.service", "ratio"},
	{"share.unaccounted", "ratio"},
	{"det.found", "count"},
	{"det.rules", "count"},
	{"det.vectors", "count"},
	{"det.provider_s", "s"},
}

// reportShares sets share.<layer> for each layer's busy seconds over
// wall × workers, and share.unaccounted for what no listed layer covers; it
// also notes each layer's share of the summed busy time.
func reportShares(out *outcome, wall time.Duration, workers int, busy map[string]float64) {
	den := wall.Seconds() * float64(workers)
	layers := make([]string, 0, len(busy))
	total := 0.0
	for layer, s := range busy {
		out.set("share."+layer, ratio(s, den), "ratio")
		layers = append(layers, layer)
		total += s
	}
	out.set("share.unaccounted", 1-ratio(total, den), "ratio")
	sort.Slice(layers, func(i, j int) bool { return busy[layers[i]] > busy[layers[j]] })
	var b strings.Builder
	for _, l := range layers {
		fmt.Fprintf(&b, " %s %.1f%%", l, 100*ratio(busy[l], total))
	}
	out.note("share of busy time:%s; wall x %d workers not covered by any layer: %.1f%%",
		b.String(), workers, 100*(1-ratio(total, den)))
}

// timer accumulates call counts and busy time; safe for concurrent use.
type timer struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (t *timer) since(start time.Time) {
	t.calls.Add(1)
	t.ns.Add(int64(time.Since(start)))
}

func (t *timer) seconds() float64 { return time.Duration(t.ns.Load()).Seconds() }

// timingClient is an llm.Client that times every Complete call and sums the
// provider's virtual seconds.
type timingClient struct {
	inner   llm.Client
	t       timer
	mu      sync.Mutex
	virtual float64
}

func (c *timingClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	start := time.Now()
	resp, err := c.inner.Complete(ctx, req)
	c.t.since(start)
	c.mu.Lock()
	c.virtual += resp.Usage.VirtualSeconds
	c.mu.Unlock()
	return resp, err
}

func (c *timingClient) Profile() llm.Profile { return c.inner.Profile() }

func (c *timingClient) virtualSeconds() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.virtual
}

// tracedSource is the campaign's engine.Source with the corpus and extract
// layers timed: it generates the corpus on the first Next and extracts one
// module at a time as its buffer drains, in the same order engine.Corpus
// streams them. Next runs on the engine's single feeder goroutine; read the
// timers only after the run's result channel has closed.
type tracedSource struct {
	opts             corpus.Options
	ex               *extract.Extractor
	mods             []*ir.Module
	buf              []*extract.Sequence
	generated        bool
	corpusT, extract time.Duration
}

func (s *tracedSource) Next(ctx context.Context) (*extract.Sequence, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if !s.generated {
		start := time.Now()
		for _, p := range corpus.Generate(s.opts) {
			s.mods = append(s.mods, p.Modules...)
		}
		s.corpusT = time.Since(start)
		s.generated = true
	}
	for len(s.buf) == 0 {
		if len(s.mods) == 0 {
			return nil, false, nil
		}
		start := time.Now()
		s.buf = s.ex.Module(s.mods[0])
		s.extract += time.Since(start)
		s.mods[0] = nil // let the module go once extracted
		s.mods = s.mods[1:]
	}
	seq := s.buf[0]
	s.buf = s.buf[1:]
	return seq, true, nil
}

// timingBackend is a store.Backend that times the calls lpod makes on its
// hot paths: Put, Get/Has and the Flush durability barrier.
type timingBackend struct {
	store.Backend
	put, get, flush timer
}

func (b *timingBackend) Put(kind store.Kind, key string, val []byte) (bool, error) {
	defer b.put.since(time.Now())
	return b.Backend.Put(kind, key, val)
}

func (b *timingBackend) Get(kind store.Kind, key string) ([]byte, bool) {
	defer b.get.since(time.Now())
	return b.Backend.Get(kind, key)
}

func (b *timingBackend) Has(kind store.Kind, key string) bool {
	defer b.get.since(time.Now())
	return b.Backend.Has(kind, key)
}

func (b *timingBackend) Flush() error {
	defer b.flush.since(time.Now())
	return b.Backend.Flush()
}

// timingHandler times the daemon's HTTP handler per route.
type timingHandler struct {
	next                        http.Handler
	submit, wasmSubmit, finding timer
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/windows" && strings.Contains(r.Header.Get("Content-Type"), "wasm"):
		h.wasmSubmit.since(start)
	case r.Method == http.MethodPost && r.URL.Path == "/v1/windows":
		h.submit.since(start)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/findings/"):
		h.finding.since(start)
	}
}

func (h *timingHandler) seconds() float64 {
	return h.submit.seconds() + h.wasmSubmit.seconds() + h.finding.seconds()
}
