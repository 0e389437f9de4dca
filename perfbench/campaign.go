package main

// The campaign workload: consecutive seeds, each an independent
// `lpo -corpus -rounds 4 -learn` job wired exactly as cmd/lpo wires it.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/alive"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/llm"
)

// job is one campaign's result: what the timed loop recorded plus what the
// correctness checks need afterwards.
type job struct {
	seed      uint64
	run       time.Duration
	windows   int
	bad       int // Errored, Panicked or Canceled outcomes
	latencyMS []float64
	doneS     []float64 // completion of each window, in seconds from origin
	counts    counts
	encodeErr error
	// bookDigest hashes the encoded rulebook bytes (see counts).
	bookDigest string

	// Traced jobs only.
	traced   bool
	cpu      time.Duration
	stats    *engine.Stats
	xs       extract.Stats
	client   *timingClient
	src      *tracedSource
	attempts int
	unparsed int
}

// counts are a job's deterministic counts: same seed, same counts. The
// digest covers every result's outcome and window hashes, in order, and each
// learned rule's ID and verified widths.
//
// The encoded rulebook is not deterministic, so its digest is recorded but
// not compared: when two witness pairs generalize to the same rule ID, the
// entry keeps the witness (width, src, tgt, doc, origin) of whichever sweep
// finished first. The rule ID hashes the slots and widths, so ID and widths
// do not depend on which witness won.
type counts struct {
	found, rules, vectors int
	provider              float64 // virtual provider seconds, summed in result order
	digest                string
}

// pairKey names a verified (source, candidate) pair by structural hashes.
type pairKey struct{ src, cand uint64 }

// stampSource records when each sequence leaves the source, so a result's
// latency runs from hand-out to its in-order emission.
type stampSource struct {
	inner engine.Source
	mu    sync.Mutex
	at    []time.Time
}

func (s *stampSource) Next(ctx context.Context) (*extract.Sequence, bool, error) {
	seq, ok, err := s.inner.Next(ctx)
	if ok {
		s.mu.Lock()
		s.at = append(s.at, time.Now())
		s.mu.Unlock()
	}
	return seq, ok, err
}

func (s *stampSource) handedOut(i int) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.at[i]
}

// newCampaign builds what one `lpo -corpus -rounds 4 -learn -seed s` job
// builds before it runs: the simulated provider, the engine and the
// extractor.
func newCampaign(seed uint64, wrap func(llm.Client) llm.Client) (*engine.Engine, *extract.Extractor) {
	var client llm.Client = llm.NewSim(model, seed)
	if wrap != nil {
		client = wrap(client)
	}
	eng := engine.New(client, engine.Config{
		Rounds: 4,
		Learn:  true,
		Verify: alive.Options{Samples: 1024, Seed: seed},
	})
	return eng, extract.New(extract.Options{})
}

// campaignSetup times newCampaign as the mean over each of setupReps
// blocks of 100 constructions: one construction takes microseconds, too
// little to time alone.
func campaignSetup(seed uint64) []float64 {
	const block = 100
	means := make([]float64, setupReps)
	for b := range means {
		start := time.Now()
		for i := 0; i < block; i++ {
			newCampaign(seed+uint64(i), nil)
		}
		means[b] = time.Since(start).Seconds() / block
	}
	return means
}

// runJob runs the campaign for one seed and adds its verified pairs to
// pairs; window completions are timed from origin. Traced jobs route the
// provider through a timing client and the corpus through tracedSource.
func runJob(seed uint64, traced bool, pairs map[pairKey][2]*ir.Func, origin time.Time) *job {
	j := &job{seed: seed, traced: traced}
	var cpu0 time.Duration
	var wrap func(llm.Client) llm.Client
	if traced {
		cpu0 = cpuTime()
		wrap = func(c llm.Client) llm.Client {
			j.client = &timingClient{inner: c}
			return j.client
		}
	}
	start := time.Now()
	eng, ex := newCampaign(seed, wrap)
	var src engine.Source = engine.Corpus(corpus.Options{Seed: seed}, ex)
	if traced {
		j.src = &tracedSource{opts: corpus.Options{Seed: seed}, ex: ex}
		src = j.src
	}
	stamps := &stampSource{inner: src}
	digest := sha256.New()
	results, stats := eng.Run(context.Background(), stamps)
	for res := range results {
		now := time.Now()
		j.latencyMS = append(j.latencyMS, float64(now.Sub(stamps.handedOut(res.Index)))/1e6)
		j.doneS = append(j.doneS, now.Sub(origin).Seconds())
		j.windows++
		j.counts.provider += res.Usage.VirtualSeconds
		var src, cand uint64
		if res.Src != nil {
			src = ir.Hash(res.Src)
		}
		switch res.Outcome {
		case engine.Found:
			j.counts.found++
			cand = ir.Hash(res.Cand)
			if _, ok := pairs[pairKey{src, cand}]; !ok {
				pairs[pairKey{src, cand}] = [2]*ir.Func{res.Src, res.Cand}
			}
		case engine.Errored, engine.Panicked, engine.Canceled:
			j.bad++
		}
		fmt.Fprintf(digest, "%d %s %016x %016x\n", res.Index, res.Outcome, src, cand)
		if traced {
			for _, a := range res.Attempts {
				j.attempts++
				if !a.Parsed {
					j.unparsed++
				}
			}
		}
	}
	book := eng.Rulebook()
	data, err := book.Encode()
	j.run = time.Since(start)
	j.encodeErr = err
	for _, r := range book.Rules {
		fmt.Fprintf(digest, "%s %v\n", r.ID, r.Widths)
	}
	bookSum := sha256.Sum256(data)
	j.bookDigest = hex.EncodeToString(bookSum[:])[:16]
	j.counts.rules = len(book.Rules)
	j.counts.vectors = stats.VerifyExecs()
	j.counts.digest = hex.EncodeToString(digest.Sum(nil))[:16]
	if traced {
		j.cpu = cpuTime() - cpu0
		j.stats = stats
		j.xs = ex.Stats()
	}
	return j
}

// runCampaign runs jobs on consecutive seeds until the time is up, then
// checks every job. With tracing, jobs alternate plain and traced, so both
// rates come from the same stretch of time.
func runCampaign(cfg config) (*outcome, error) {
	out := &outcome{}
	setups := campaignSetup(cfg.seed)
	pairs := make(map[pairKey][2]*ir.Func)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	m := startMeter()
	var jobs []*job
	for s := cfg.seed; len(jobs) == 0 || time.Now().Before(deadline); s++ {
		jobs = append(jobs, runJob(s, cfg.trace && len(jobs)%2 == 1, pairs, m.start))
	}
	wall, alloc, cpu := m.stop(out)
	// Time set-up at both ends of the run.
	out.set("setup_s", median(append(setups, campaignSetup(cfg.seed)...)), "s")

	var plain, traced []*job
	var windows int
	var lat, done []float64
	var provider float64
	for _, j := range jobs {
		windows += j.windows
		provider += j.counts.provider
		if j.traced {
			traced = append(traced, j)
		} else {
			plain = append(plain, j)
			lat = append(lat, j.latencyMS...)
			done = append(done, j.doneS...)
		}
	}
	out.attempted = windows
	out.set("provider_s_per_op", ratio(provider, float64(windows)), "s")
	if cfg.trace {
		reportCampaignTrace(out, plain, traced)
	} else {
		reportSliced(out, done, lat, wall)
		out.set("alloc_kb_per_op", float64(alloc)/1024/float64(windows), "KiB")
		out.note("process CPU %.3f ms per window", cpu.Seconds()*1e3/float64(windows))
	}
	checkCampaign(out, cfg, jobs, pairs)
	out.set("peak_rss_mb", peakRSSMB(), "MiB")
	return out, nil
}

// checkCampaign runs the correctness checks: no failed outcomes, every
// distinct finding re-verified by the reference checker, and the first
// seed's deterministic counts and digest reproduced by a second run with
// the other tracing setting.
func checkCampaign(out *outcome, cfg config, jobs []*job, pairs map[pairKey][2]*ir.Func) {
	for _, j := range jobs {
		out.failed += j.bad
		out.check(j.encodeErr == nil, "seed %d: encoding rulebook: %v", j.seed, j.encodeErr)
		c := j.counts
		out.note("seed %d: %d windows, found %d, rules %d, vectors %d, provider %.4f s, digest %s, rulebook bytes %s",
			j.seed, j.windows, c.found, c.rules, c.vectors, c.provider, c.digest, j.bookDigest)
	}
	for k, p := range pairs {
		res := alive.ReferenceVerify(p[0], p[1], alive.Options{Samples: 1024, Seed: cfg.seed})
		out.check(res.Verdict == alive.Correct, "finding %016x -> %016x refuted by ReferenceVerify", k.src, k.cand)
	}
	out.note("%d jobs, %d distinct findings re-verified by ReferenceVerify", len(jobs), len(pairs))

	first := jobs[0].counts
	rerun := runJob(cfg.seed, !jobs[0].traced, pairs, time.Now())
	again := rerun.counts
	out.check(again == first, "seed %d: rerun counts %+v differ from %+v", cfg.seed, again, first)
	if rerun.bookDigest != jobs[0].bookDigest {
		out.note("seed %d: rulebook bytes %s on rerun, %s first (witness of a shared rule ID; not a failure)",
			cfg.seed, rerun.bookDigest, jobs[0].bookDigest)
	}
	out.set("det.found", float64(first.found), "count")
	out.set("det.rules", float64(first.rules), "count")
	out.set("det.vectors", float64(first.vectors), "count")
	out.set("det.provider_s", first.provider, "s")
}

// reportCampaignTrace aggregates the traced jobs' layer timers.
func reportCampaignTrace(out *outcome, plain, traced []*job) {
	rate := func(js []*job) float64 {
		var n int
		var d time.Duration
		for _, j := range js {
			n += j.windows
			d += j.run
		}
		return ratio(float64(n), d.Seconds())
	}
	tr, pr := rate(traced), rate(plain)
	out.set("traced.ops_per_s", tr, "1/s")
	out.set("traced.overhead", ratio(pr, tr)-1, "ratio")
	out.note("traced %d jobs at %.1f windows/s, plain %d jobs at %.1f windows/s", len(traced), tr, len(plain), pr)

	var wall, cpu time.Duration
	var corpusT, extractT time.Duration
	var xs extract.Stats
	var llmCalls int64
	var llmBusy, llmVirtual float64
	var attempts, unparsed, sequences, found, rules int
	var pre, filt, ver, gen engine.StageMetrics
	var vectors, batched, cacheHits int
	var kills engine.TierKills
	for _, j := range traced {
		wall += j.run
		cpu += j.cpu
		corpusT += j.src.corpusT
		extractT += j.src.extract
		xs.Sequences += j.xs.Sequences
		xs.Kept += j.xs.Kept
		llmCalls += j.client.t.calls.Load()
		llmBusy += j.client.t.seconds()
		llmVirtual += j.client.virtualSeconds()
		attempts += j.attempts
		unparsed += j.unparsed
		sequences += j.stats.Sequences()
		found += j.stats.Outcome(engine.Found)
		rules += j.counts.rules
		for _, st := range []struct {
			acc  *engine.StageMetrics
			name string
		}{{&pre, engine.StagePreprocess}, {&filt, engine.StageFilter}, {&ver, engine.StageVerify}, {&gen, engine.StageGeneralize}} {
			m := j.stats.Stage(st.name)
			st.acc.Invocations += m.Invocations
			st.acc.Seconds += m.Seconds
		}
		vectors += j.stats.VerifyExecs()
		b, _ := j.stats.BatchExecs()
		batched += b
		cacheHits += j.stats.VerifyCacheHits()
		k := j.stats.TierKills()
		kills.Pool += k.Pool
		kills.Special += k.Special
		kills.Random += k.Random
	}
	workers := runtime.GOMAXPROCS(0)
	out.set("corpus.busy_s", corpusT.Seconds(), "s")
	out.set("extract.busy_s", extractT.Seconds(), "s")
	out.set("extract.kept_ratio", ratio(float64(xs.Kept), float64(xs.Sequences)), "ratio")
	out.set("llm.calls", float64(llmCalls), "count")
	out.set("llm.busy_s", llmBusy, "s")
	out.set("llm.virtual_s", llmVirtual, "s")
	out.set("parser.fail_ratio", ratio(float64(unparsed), float64(attempts)), "ratio")
	out.set("engine.preprocess_busy_s", pre.Seconds, "s")
	out.set("engine.filter_busy_s", filt.Seconds, "s")
	out.set("engine.found_ratio", ratio(float64(found), float64(sequences)), "ratio")
	out.set("engine.cpu_util", ratio(cpu.Seconds(), wall.Seconds()*float64(workers)), "ratio")
	out.set("alive.verify_calls", float64(ver.Invocations), "count")
	out.set("alive.verify_busy_s", ver.Seconds, "s")
	out.set("alive.vectors", float64(vectors), "count")
	out.set("alive.vectors_per_s", ratio(float64(vectors), ver.Seconds), "1/s")
	out.set("alive.cache_hit_ratio", ratio(float64(cacheHits), float64(ver.Invocations)), "ratio")
	out.set("alive.kills_pool", float64(kills.Pool), "count")
	out.set("alive.kills_special", float64(kills.Special), "count")
	out.set("alive.kills_random", float64(kills.Random), "count")
	out.set("alive.refuted_ratio", ratio(float64(kills.Pool+kills.Special+kills.Random), float64(ver.Invocations-cacheHits)), "ratio")
	out.set("interp.batched_ratio", ratio(float64(batched), float64(vectors)), "ratio")
	out.set("generalize.calls", float64(gen.Invocations), "count")
	out.set("generalize.busy_s", gen.Seconds, "s")
	out.set("generalize.rule_yield", ratio(float64(rules), float64(gen.Invocations)), "ratio")
	reportShares(out, wall, workers, map[string]float64{
		"corpus":     corpusT.Seconds(),
		"extract":    extractT.Seconds(),
		"llm":        llmBusy,
		"parser_opt": pre.Seconds,
		"mca":        filt.Seconds,
		"alive":      ver.Seconds,
		"generalize": gen.Seconds,
	})
}
