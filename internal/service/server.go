package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/alive"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/llm"
	"repro/internal/parser"
	"repro/internal/store"
	"repro/internal/wasm"
)

// Config assembles a discovery server.
type Config struct {
	// Store is the persistent content-addressed store (required), normally
	// the *store.Sharded that store.Open returns. Its Flush is the server's
	// only durability barrier. The server does not close it; the owner
	// does, after Server.Close.
	Store store.Backend
	// Client is the LLM provider; nil builds the simulated provider from
	// Model and Seed.
	Client llm.Client
	// Model names the provider profile for the simulated client
	// (default "Gemini2.0T").
	Model string
	// Seed drives the simulated provider and the verifier (default 1).
	Seed uint64
	// Engine tunes the embedded engine. The server forces Learn on, installs
	// a store-backed Lookup, and threads one persistent CEPool through
	// Verify — everything else passes through.
	Engine engine.Config
	// MaxBodyBytes bounds request bodies; oversized submissions get 413
	// with a JSON error instead of a silent truncation (default 4 MiB).
	MaxBodyBytes int64
	// PersistWorkers sizes the result-persistence pool (default 4). Each
	// worker micro-batches results off the engine and issues one durability
	// barrier (store.Flush) per batch; the store's group committer makes
	// concurrent workers' barriers share fsyncs.
	PersistWorkers int
	// Logf receives operational log lines (shutdown pending counts, degraded
	// transitions). Nil discards them.
	Logf func(format string, args ...any)
}

// Server is the lpod discovery service: one warm engine behind an HTTP/JSON
// API, every outcome persisted to (and deduplicated against) the store.
// Windows POSTed to /v1/windows are content-addressed by their structural
// hash; only hashes the store has never seen reach the engine. Findings,
// learned rules and counterexample vectors are committed to the store as
// results drain, so a restarted server resumes exactly where the last one
// stopped.
type Server struct {
	st      store.Backend
	strm    *stream
	pool    *alive.CEPool
	eng     *engine.Engine
	sub     *engine.Submitter
	maxBody int64
	logf    func(format string, args ...any)

	cancel context.CancelFunc
	drain  sync.WaitGroup
	// done closes when the last persist worker exits — the engine-liveness
	// signal behind GET /v1/healthz.
	done chan struct{}

	mu        sync.Mutex
	inflight  map[uint64]bool
	submitted int64
	persisted int64
	// degradedAccepts counts results accepted but not durable when their
	// persist barrier ran (failed Flush) — the traffic behind every
	// Lpod-Degraded response on the submit path.
	degradedAccepts int64
	// waiters carries per-window persist notifications to wait-mode submits
	// (POST /v1/windows?wait=1): nil once durable (or when the result had
	// nothing to persist), an error for accepted-but-degraded.
	waiters map[uint64][]chan error

	closeOnce sync.Once
	closeErr  error

	// loadedVectors is how many pool vectors the startup warm load installed.
	loadedVectors int
}

// New builds and starts a server: loads the store's counterexample corpus
// into a fresh pool, wires the engine with learning and store lookup, and
// starts the persistent worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("service: Config.Store is required")
	}
	if cfg.Model == "" {
		cfg.Model = "Gemini2.0T"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	client := cfg.Client
	if client == nil {
		client = llm.NewSim(cfg.Model, cfg.Seed)
	}

	ecfg := cfg.Engine
	ecfg.Learn = true
	pool := ecfg.Verify.Pool
	if pool == nil {
		pool = alive.NewCEPool()
		ecfg.Verify.Pool = pool
	}
	if ecfg.Verify.Seed == 0 {
		ecfg.Verify.Seed = cfg.Seed
	}
	ecfg.Lookup = StoreLookup(cfg.Store)

	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4 << 20
	}
	if cfg.PersistWorkers <= 0 {
		cfg.PersistWorkers = 4
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	s := &Server{
		st:       cfg.Store,
		pool:     pool,
		maxBody:  cfg.MaxBodyBytes,
		logf:     cfg.Logf,
		done:     make(chan struct{}),
		inflight: make(map[uint64]bool),
		waiters:  make(map[uint64][]chan error),
	}
	s.strm = newStream(cfg.Store)
	n, err := LoadPool(cfg.Store, pool)
	if err != nil {
		return nil, fmt.Errorf("service: loading pool vectors: %w", err)
	}
	s.loadedVectors = n

	s.eng = engine.New(client, ecfg)
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.sub = s.eng.Submitter(ctx)
	s.drain.Add(cfg.PersistWorkers)
	for i := 0; i < cfg.PersistWorkers; i++ {
		go s.persistWorker()
	}
	go func() {
		s.drain.Wait()
		close(s.done)
	}()
	return s, nil
}

// persistBatchMax bounds one persist worker's micro-batch: how many results
// ride a single durability barrier.
const persistBatchMax = 64

// persistWorker drains computed results off the engine and persists them in
// micro-batches: each iteration takes one result, opportunistically grabs
// whatever else is already queued, saves the lot, and issues ONE durability
// barrier (store.Flush) for the whole batch — findings become servable only
// once durable, which is what lets a crashed-and-restarted daemon serve
// identical bytes. Several workers run concurrently; the store's group
// committer coalesces their barriers into shared fsyncs.
func (s *Server) persistWorker() {
	defer s.drain.Done()
	results := s.sub.Results()
	for res := range results {
		batch := []engine.Result{res}
	fill:
		for len(batch) < persistBatchMax {
			select {
			case more, ok := <-results:
				if !ok {
					break fill
				}
				batch = append(batch, more)
			default:
				break fill
			}
		}
		s.persistBatch(batch)
	}
}

// persistBatch saves one micro-batch of results and runs its durability
// barrier. A failed barrier degrades, never loses: every record is already
// accepted (servable from memory, pending in the store, retried by the
// committer and by every later barrier), the batch's windows are counted as
// degraded accepts, and their findings reach the SSE stream once a later
// barrier lands. Wait-mode submitters are notified per window either way.
func (s *Server) persistBatch(batch []engine.Result) {
	type saved struct {
		h     uint64
		added bool
		err   error
	}
	var outs []saved
	for _, res := range batch {
		if res.Src == nil {
			continue
		}
		h := ir.Hash(res.Src)
		added, err := SaveResult(s.st, res)
		outs = append(outs, saved{h: h, added: added, err: err})
	}
	if _, ferr := FlushPool(s.st, s.pool); ferr != nil {
		for i := range outs {
			if outs[i].err == nil {
				outs[i].err = ferr
			}
		}
	}
	// The durability barrier for the whole batch. Flush covers every record
	// accepted before the call, so on success anything previously deferred
	// by a failed barrier is durable too — publish it.
	berr := s.st.Flush()
	for i := range outs {
		if outs[i].err == nil {
			outs[i].err = berr
		}
	}

	s.mu.Lock()
	for _, o := range outs {
		delete(s.inflight, o.h)
		if o.added && o.err == nil {
			s.persisted++
		}
		if o.err != nil {
			s.degradedAccepts++
		}
		for _, ch := range s.waiters[o.h] {
			ch <- o.err
		}
		delete(s.waiters, o.h)
	}
	s.mu.Unlock()

	if berr == nil {
		for _, o := range outs {
			if o.added {
				s.strm.publish(store.WindowKey(o.h))
			}
		}
		s.strm.publishDeferred()
	} else {
		s.logf("service: persist barrier failed (batch of %d stays pending): %v", len(batch), berr)
		for _, o := range outs {
			if o.added {
				s.strm.defer_(store.WindowKey(o.h))
			}
		}
	}
}

// LoadedVectors reports how many counterexample vectors the startup warm
// load installed into the pool.
func (s *Server) LoadedVectors() int { return s.loadedVectors }

// Close drains the engine (pending submissions still complete and persist),
// flushes the pool's remaining vectors into the store, and runs the
// durability barrier. A FlushPool failure does not skip the barrier, and a
// failed barrier gets one final retry — the last chance to drain a
// transiently degraded batch before the process exits. Whatever stays
// pending is logged with its count: the store's own Close makes one more
// attempt, and records that never became durable are lost only if every
// attempt fails (the log always recovers to its last durable prefix). When
// Close returns the server is stopped: /v1/healthz answers 503. It does not
// close the store. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.sub.Close()
		s.drain.Wait()
		<-s.done
		s.cancel()
		if _, err := FlushPool(s.st, s.pool); err != nil && s.closeErr == nil {
			// The pool drain failed mid-way; anything it did Put is pending
			// and MUST still get its barrier below.
			s.closeErr = err
		}
		if err := s.st.Flush(); err != nil {
			// Final retry: transient write faults (the kind internal/fault
			// injects) often clear on the next attempt.
			if err = s.st.Flush(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
		if ss := s.st.Stats(); ss.Pending > 0 {
			s.logf("service: shutdown with %d records pending (%d commit failures); they stay on the next start's retry path",
				ss.Pending, ss.CommitFails)
		} else {
			s.logf("service: shutdown clean, %d records durable", ss.Records)
		}
	})
	return s.closeErr
}

// windowStatus is one per-window entry in a submit response.
type windowStatus struct {
	Window string `json:"window,omitempty"`
	Status string `json:"status"` // cached | queued | pending | invalid | skipped
	Error  string `json:"error,omitempty"`
}

// submitRequest is the JSON body of POST /v1/windows: one window or a batch.
type submitRequest struct {
	IR      string   `json:"ir,omitempty"`
	Windows []string `json:"windows,omitempty"`
}

// Handler returns the HTTP API:
//
//	POST /v1/windows          submit one window or a batch (JSON or raw .ll);
//	                          ?wait=1 blocks until each submitted window's
//	                          persist barrier ran (202 + Lpod-Degraded when
//	                          accepted, not durable; a provider error that
//	                          outlived the retries persists nothing)
//	GET  /v1/findings         durable findings since ?cursor=N; ?watch=1
//	                          upgrades to an SSE stream
//	GET  /v1/findings/{hash}  a stored finding, verbatim bytes (202 while
//	                          pending, 404 "unknown" otherwise)
//	GET  /v1/rulebook         the store's assembled rulebook
//	GET  /v1/stats            engine + store + pool + server counters
//	GET  /v1/healthz          liveness + degraded-durability signal
//	POST /v1/compact          compact the store (drop evicted pool vectors)
//
// Every route sits behind a recovery middleware: a panicking handler
// answers 500 with a JSON error instead of killing the daemon's connection
// handling.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/windows", s.handleSubmit)
	mux.HandleFunc("GET /v1/findings", s.handleFindingsStream)
	mux.HandleFunc("GET /v1/findings/{hash}", s.handleFinding)
	mux.HandleFunc("GET /v1/rulebook", s.handleRulebook)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/compact", s.handleCompact)
	return recoverMiddleware(mux)
}

// recoverMiddleware is the service's outermost panic boundary.
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if pv := recover(); pv != nil {
				httpError(w, http.StatusInternalServerError, "internal error: %v", pv)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Read one byte past the limit so truncation is detectable: a body that
	// exceeds MaxBodyBytes gets a 413, never a silently clipped submission.
	body, err := io.ReadAll(io.LimitReader(r.Body, s.maxBody+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.maxBody {
		httpError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", s.maxBody)
		return
	}
	var sources []string
	ct := r.Header.Get("Content-Type")
	if strings.Contains(ct, "wasm") || wasm.IsWasm(body) {
		// A raw wasm binary: decode, lift every function in the lifter's
		// subset, and submit each lifted function as a window. Skipped
		// functions surface both as per-window statuses and in the
		// lift-coverage counters of /v1/stats.
		s.handleSubmitWasm(w, r, body)
		return
	}
	if strings.Contains(ct, "json") {
		var req submitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "decoding request: %v", err)
			return
		}
		if req.IR != "" {
			sources = append(sources, req.IR)
		}
		sources = append(sources, req.Windows...)
	} else {
		// Raw .ll text (curl-friendly): every function in the module is a
		// window.
		sources = append(sources, string(body))
	}
	if len(sources) == 0 {
		httpError(w, http.StatusBadRequest, "no windows in request")
		return
	}

	wait := r.URL.Query().Get("wait") != ""
	var statuses []windowStatus
	var waits []chan error
	for _, src := range sources {
		mod, err := parser.Parse(src)
		if err != nil {
			statuses = append(statuses, windowStatus{Status: "invalid", Error: err.Error()})
			continue
		}
		for _, fn := range mod.Funcs {
			ws, ch := s.submitWindow(fn, wait)
			statuses = append(statuses, ws)
			if ch != nil {
				waits = append(waits, ch)
			}
		}
	}
	s.respondStatuses(w, r, statuses, waits)
}

// respondStatuses writes a submit reply: 200 normally, 429 with Retry-After
// when the engine queue rejected any window — the caller sees every
// per-window status either way and retries only the rejected ones. In wait
// mode it first blocks until every submitted window's persist barrier ran;
// a window that was accepted but is NOT yet durable (failed barrier) turns
// the reply into 202 + Lpod-Degraded instead of an error: the record is
// safe in memory and on the store's retry path, so no accepted record is
// lost. A window whose result was not persisted at all (a provider error
// that outlived the client's retries) answers 200 and stays recomputable.
func (s *Server) respondStatuses(w http.ResponseWriter, r *http.Request, statuses []windowStatus, waits []chan error) {
	degraded := false
	for _, ch := range waits {
		select {
		case err := <-ch:
			if err != nil {
				degraded = true
			}
		case <-r.Context().Done():
			// The client hung up; stop waiting (the persist worker will
			// still deliver into the buffered channel and move on).
			degraded = true
		}
	}
	code := http.StatusOK
	for _, ws := range statuses {
		if ws.Status == "rejected" {
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
			break
		}
	}
	if degraded && code == http.StatusOK {
		w.Header().Set("Lpod-Degraded", "true")
		code = http.StatusAccepted
	}
	writeJSON(w, code, map[string]any{"windows": statuses})
}

// handleSubmitWasm lifts a raw wasm binary function by function: every
// lifted function becomes a window submission, every skip becomes a
// per-window status, and the module's lift coverage lands in the engine
// stats (GET /v1/stats).
func (s *Server) handleSubmitWasm(w http.ResponseWriter, r *http.Request, body []byte) {
	wm, err := wasm.Decode(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding wasm module: %v", err)
		return
	}
	st := wasm.LiftStats{Reasons: make(map[string]int)}
	var statuses []windowStatus
	var waits []chan error
	for _, f := range wm.Funcs {
		st.Funcs++
		fn, err := wasm.LiftFunc(wm, f)
		if err != nil {
			st.Skipped++
			st.Reasons[wasm.SkipReason(err)]++
			statuses = append(statuses, windowStatus{Status: "skipped", Error: err.Error()})
			continue
		}
		st.Lifted++
		ws, ch := s.submitWindow(fn, r.URL.Query().Get("wait") != "")
		statuses = append(statuses, ws)
		if ch != nil {
			waits = append(waits, ch)
		}
	}
	s.eng.Stats().RecordLift(st)
	s.respondStatuses(w, r, statuses, waits)
}

// submitWindow dedups one window against the store and the inflight set,
// scheduling it on the engine only when it is genuinely novel. When wait is
// set and the window is in flight (newly queued or already), the returned
// channel delivers the window's persist outcome: nil once durable (or when
// the result had nothing to persist), an error when accepted but degraded.
func (s *Server) submitWindow(fn *ir.Func, wait bool) (windowStatus, chan error) {
	h := ir.Hash(fn)
	key := store.WindowKey(h)
	ws := windowStatus{Window: key}
	if s.st.Has(store.KindFinding, key) {
		ws.Status = "cached"
		return ws, nil
	}
	var ch chan error
	s.mu.Lock()
	if s.inflight[h] {
		if wait {
			ch = make(chan error, 1)
			s.waiters[h] = append(s.waiters[h], ch)
		}
		s.mu.Unlock()
		ws.Status = "pending"
		return ws, ch
	}
	s.inflight[h] = true
	s.submitted++
	if wait {
		// Register before TrySubmit: the persist worker notifies under the
		// same lock it clears inflight with, so a result can never slip
		// between submission and registration.
		ch = make(chan error, 1)
		s.waiters[h] = append(s.waiters[h], ch)
	}
	s.mu.Unlock()

	// Non-blocking admission: a full engine queue sheds the window as
	// "rejected" (the handler turns that into 429 + Retry-After) instead of
	// wedging the HTTP handler behind slow workers.
	if err := s.sub.TrySubmit(fn); err != nil {
		s.mu.Lock()
		delete(s.inflight, h)
		s.submitted--
		if wait {
			lst := s.waiters[h]
			if n := len(lst); n > 0 && lst[n-1] == ch {
				s.waiters[h] = lst[:n-1]
			}
			if len(s.waiters[h]) == 0 {
				delete(s.waiters, h)
			}
		}
		s.mu.Unlock()
		if errors.Is(err, engine.ErrQueueFull) {
			ws.Status = "rejected"
		} else {
			ws.Status = "invalid"
		}
		ws.Error = err.Error()
		return ws, nil
	}
	ws.Status = "queued"
	return ws, ch
}

// Compact rewrites the store under the service keep-policy (findings and
// rules stay; pool vectors the clock evicted go), folding any pending batch
// in durable. It first drains the pool so freshly deposited vectors are
// records (and survive: they are live by definition) before the rewrite.
// Exposed over POST /v1/compact and as lpod's -compact startup flag.
func (s *Server) Compact() (store.CompactStats, error) {
	if _, err := FlushPool(s.st, s.pool); err != nil {
		return store.CompactStats{}, fmt.Errorf("flushing pool: %w", err)
	}
	cs, err := s.st.Compact(CompactKeep(s.pool))
	if err != nil {
		return cs, err
	}
	s.logf("service: compacted store: kept %d, dropped %d, %d -> %d bytes",
		cs.Kept, cs.Dropped, cs.BytesBefore, cs.BytesAfter)
	return cs, nil
}

// handleCompact is POST /v1/compact: run Compact, report what the rewrite
// dropped.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	cs, err := s.Compact()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "compacting: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"kept":         cs.Kept,
		"dropped":      cs.Dropped,
		"bytes_before": cs.BytesBefore,
		"bytes_after":  cs.BytesAfter,
	})
}

func (s *Server) handleFinding(w http.ResponseWriter, r *http.Request) {
	h, err := store.ParseWindowKey(r.PathValue("hash"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad window hash: %v", err)
		return
	}
	key := store.WindowKey(h)
	if data, ok := s.st.Get(store.KindFinding, key); ok {
		// Serve the stored bytes verbatim: the store is the wire format, so
		// a restarted daemon answers byte-identically.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
		return
	}
	s.mu.Lock()
	pending := s.inflight[h]
	s.mu.Unlock()
	if pending {
		writeJSON(w, http.StatusAccepted, windowStatus{Window: key, Status: "pending"})
		return
	}
	writeJSON(w, http.StatusNotFound, windowStatus{Window: key, Status: "unknown"})
}

// handleHealthz is the liveness and durability probe: 200 while the engine's
// result drain is alive (status "ok", or "degraded" when the store has a
// commit backlog — accepted records not yet durable), 503 once the drain has
// stopped.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	live := true
	select {
	case <-s.done:
		live = false
	default:
	}
	ss := s.st.Stats()
	degraded := ss.Degraded()
	status, code := "ok", http.StatusOK
	if degraded {
		status = "degraded"
	}
	if !live {
		status, code = "stopped", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":             status,
		"engine_live":        live,
		"degraded":           degraded,
		"store_pending":      ss.Pending,
		"store_commit_fails": ss.CommitFails,
	})
}

func (s *Server) handleRulebook(w http.ResponseWriter, r *http.Request) {
	book, err := StoreRulebook(s.st)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "assembling rulebook: %v", err)
		return
	}
	data, err := book.Encode()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding rulebook: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// Stats is the GET /v1/stats wire format: each layer's own snapshot under
// its section, plus the daemon's counters.
type Stats struct {
	Engine struct {
		engine.Snapshot
		// Quarantined lists the 16-hex hashes of the windows the engine
		// isolated after a worker panic (Snapshot.Panics counts them).
		Quarantined []string `json:"quarantined,omitempty"`
	} `json:"engine"`
	Store  store.Stats       `json:"store"`
	Pool   alive.CEPoolStats `json:"pool"`
	Server struct {
		Submitted     int64 `json:"submitted"`
		Persisted     int64 `json:"persisted"`
		Inflight      int   `json:"inflight"`
		LoadedVectors int   `json:"loaded_vectors"`
		// Degraded mirrors /v1/healthz: the store has a commit backlog, so
		// recent findings are servable but not yet durable.
		Degraded bool `json:"degraded"`
		// DegradedAccepts counts results whose persist barrier did not reach
		// durable (failed Flush) — every one answered on the submit path
		// with 202 + Lpod-Degraded.
		DegradedAccepts int64 `json:"degraded_accepts"`
		// StreamFindings/StreamSubscribers describe GET /v1/findings?watch=1:
		// durable findings published to the stream log, and live SSE
		// subscribers right now.
		StreamFindings    int `json:"stream_findings"`
		StreamSubscribers int `json:"stream_subscribers"`
	} `json:"server"`
}

// StatsSnapshot gathers the live counters (also the GET /v1/stats payload).
func (s *Server) StatsSnapshot() Stats {
	var rep Stats
	rep.Engine.Snapshot = s.eng.Stats().Snapshot()
	rep.Engine.Quarantined = s.eng.Quarantined()
	rep.Store = s.st.Stats()
	rep.Pool = s.pool.Stats()

	s.mu.Lock()
	rep.Server.Submitted = s.submitted
	rep.Server.Persisted = s.persisted
	rep.Server.Inflight = len(s.inflight)
	rep.Server.DegradedAccepts = s.degradedAccepts
	s.mu.Unlock()
	rep.Server.LoadedVectors = s.loadedVectors
	rep.Server.Degraded = rep.Store.Degraded()
	rep.Server.StreamFindings, rep.Server.StreamSubscribers = s.strm.counts()
	return rep
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
