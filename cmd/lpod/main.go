// Command lpod is the discovery daemon: a long-running HTTP/JSON service
// that accepts IR windows, deduplicates them against a persistent
// content-addressed store, runs only the novel ones through the discovery
// engine, and serves findings, the accumulated rulebook and live statistics.
//
//	lpod -store /var/lib/lpod -addr :8347
//
// Submit windows (raw .ll or JSON {"ir": "..."} / {"windows": [...]}):
//
//	curl -X POST --data-binary @window.ll http://localhost:8347/v1/windows
//
// and read results back:
//
//	curl http://localhost:8347/v1/findings/<16-hex-window-hash>
//	curl http://localhost:8347/v1/rulebook
//	curl http://localhost:8347/v1/stats
//
// Restarting the daemon against the same store resumes where it stopped:
// previously processed windows are answered from disk without any provider
// or verifier work. The store is opened once, with its group committer
// running until shutdown; -shards sets the shard count of a fresh store
// (an existing store keeps its own, and a legacy single-log store is
// migrated in place).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8347", "HTTP listen address")
		storeDir = flag.String("store", "", "store directory (required; created if missing)")
		model    = flag.String("model", "Gemini2.0T", "simulated provider model")
		seed     = flag.Uint64("seed", 1, "simulation / verification seed")
		workers  = flag.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
		rounds   = flag.Int("rounds", 1, "provider rounds per window")
		queue    = flag.Int("queue", 0, "submit queue depth (0 = 2*workers)")
		maxBody  = flag.Int64("max-body", 4<<20, "request body size limit in bytes (413 above)")
		stageTO  = flag.Duration("stage-timeout", 0, "per-stage deadline inside the engine (0 = unbounded)")
		shards   = flag.Int("shards", 0, "shard a fresh store over N logs (0 = 1; an existing store keeps its shard count)")
		compact  = flag.Bool("compact", false, "compact the store on startup (drop pool vectors the eviction clock retired)")
		persistW = flag.Int("persist-workers", 0, "result persistence workers (0 = default)")
	)
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "lpod: -store is required")
		flag.Usage()
		os.Exit(2)
	}

	st, err := store.Open(*storeDir, store.Options{Shards: *shards})
	if err != nil {
		log.Fatalf("lpod: opening store: %v", err)
	}
	stats := st.Stats()
	log.Printf("lpod: store %s (%d shard(s)): %d findings, %d rules, %d vectors (%d bytes)",
		st.Dir(), stats.Shards, stats.Findings, stats.Rules, stats.Vectors, stats.Bytes)
	if stats.Recovered > 0 {
		log.Printf("lpod: recovered from torn tail: %d bytes dropped", stats.Recovered)
	}

	srv, err := service.New(service.Config{
		Store:          st,
		Model:          *model,
		Seed:           *seed,
		MaxBodyBytes:   *maxBody,
		PersistWorkers: *persistW,
		Logf:           log.Printf,
		Engine: engine.Config{
			Workers:      *workers,
			Rounds:       *rounds,
			QueueSize:    *queue,
			StageTimeout: *stageTO,
		},
	})
	if err != nil {
		st.Close()
		log.Fatalf("lpod: %v", err)
	}
	if n := srv.LoadedVectors(); n > 0 {
		log.Printf("lpod: warm-loaded %d counterexample vectors into the pool", n)
	}
	if *compact {
		cs, err := srv.Compact()
		if err != nil {
			log.Printf("lpod: startup compaction failed (store unchanged): %v", err)
		} else {
			log.Printf("lpod: compacted: kept %d, dropped %d, %d -> %d bytes",
				cs.Kept, cs.Dropped, cs.BytesBefore, cs.BytesAfter)
		}
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Slow or stalled clients cannot hold connections (and their
		// handler goroutines) forever. WriteTimeout stays 0: the
		// /v1/findings?watch=1 SSE stream is a deliberately unbounded
		// response, and its heartbeat detects dead peers instead.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("lpod: listening on %s", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("lpod: %s: draining (signal again to force exit)", sig)
	case err := <-errc:
		log.Printf("lpod: server error: %v", err)
	}
	// A second signal skips the graceful drain — the escape hatch when the
	// drain itself is wedged (e.g. a pathological window mid-verification).
	go func() {
		sig := <-sigc
		log.Printf("lpod: %s: forcing exit", sig)
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if err := srv.Close(); err != nil {
		log.Printf("lpod: close: %v", err)
	}
	if err := st.Close(); err != nil {
		log.Printf("lpod: store close: %v", err)
	}
	log.Printf("lpod: stopped")
}
