package main

// The lpod workloads: the daemon built exactly as cmd/lpod builds it (a
// 4-shard store with group commit at its defaults, service.New with the
// command's default flags), served on a loopback listener and driven by
// closed-loop HTTP clients in this process.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/llm"
	"repro/internal/service"
	"repro/internal/store"
)

const (
	// model is the simulated provider profile, lpo's and lpod's default.
	model = "Gemini2.0T"
	// shards is the store fan-out the lpod workloads run (lpod -shards 4).
	shards = 4
	// setupReps is how many times a run sets the daemon up; setup_s is the
	// median.
	setupReps = 15
)

// clients is the closed-loop client count: one per CPU.
var clients = runtime.NumCPU()

// daemon is one running lpod instance.
type daemon struct {
	st     *store.Sharded
	srv    *service.Server
	hs     *http.Server
	served chan error
	url    string
	open   time.Duration

	// Traced daemons only.
	backend *timingBackend
	handler *timingHandler
	client  *timingClient
}

// startDaemon opens the store in dir and serves lpod on a fresh loopback
// port. It returns the daemon and its set-up time: store open (recovery),
// group-commit start, service.New (pool warm-load) and the listener.
func startDaemon(dir string, traced bool) (*daemon, time.Duration, error) {
	start := time.Now()
	st, err := store.OpenSharded(dir, shards)
	if err != nil {
		return nil, 0, fmt.Errorf("opening store: %w", err)
	}
	d := &daemon{st: st, open: time.Since(start)}
	st.StartGroupCommit(store.GroupCommitOptions{})
	cfg := service.Config{
		Store:        st,
		Model:        model,
		Seed:         1,
		MaxBodyBytes: 4 << 20,
		Engine:       engine.Config{Rounds: 1},
	}
	if traced {
		d.backend = &timingBackend{Backend: st}
		d.client = &timingClient{inner: llm.NewSim(model, 1)}
		cfg.Store, cfg.Client = d.backend, d.client
	}
	d.srv, err = service.New(cfg)
	if err != nil {
		st.Close()
		return nil, 0, fmt.Errorf("starting service: %w", err)
	}
	var h http.Handler = d.srv.Handler()
	if traced {
		d.handler = &timingHandler{next: h}
		h = d.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		st.Close()
		return nil, 0, fmt.Errorf("listening: %w", err)
	}
	d.hs = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.url = "http://" + ln.Addr().String()
	return d, time.Since(start), nil
}

// stop drains the HTTP server, closes the service and then the store, and
// waits for the serving goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// setUp starts the daemon setupReps times on dir, stopping all but the
// last; it returns the running daemon and every set-up time. fresh empties
// dir before each start. Only the last start is traced.
func setUp(dir string, fresh, traced bool) (*daemon, []float64, error) {
	var times []float64
	for i := 1; ; i++ {
		if fresh {
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
		}
		d, t, err := startDaemon(dir, traced && i == setupReps)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t.Seconds())
		if i == setupReps {
			return d, times, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, fmt.Errorf("stopping daemon: %w", err)
		}
	}
}

// setUpAgain times setupReps more set-ups on dir once a phase is over, so
// setup_s samples both ends of the run.
func (p *phase) setUpAgain(dir string, fresh bool) error {
	d, times, err := setUp(dir, fresh, false)
	if err != nil {
		return err
	}
	p.setups = append(p.setups, times...)
	return d.stop()
}

// workDir makes a fresh directory for store files under the checkout's
// build directory; the caller removes it.
func workDir() (string, error) {
	root := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "lpod-")
}

// client is an HTTP client with at most one connection per closed-loop
// client.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply.
func (c *client) do(method, path, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// windowStatus is one per-window entry of a submit reply.
type windowStatus struct {
	Window string `json:"window"`
	Status string `json:"status"`
	Error  string `json:"error"`
}

// submit POSTs a body to /v1/windows?wait=1 and decodes the per-window
// statuses of a 200 reply.
func (c *client) submit(ctype string, body []byte) (int, []windowStatus, error) {
	code, data, err := c.do(http.MethodPost, "/v1/windows?wait=1", ctype, body)
	if err != nil || code != http.StatusOK {
		return code, nil, err
	}
	var rep struct {
		Windows []windowStatus `json:"windows"`
	}
	err = json.Unmarshal(data, &rep)
	return code, rep.Windows, err
}

// lpodStats is the part of GET /v1/stats the benchmark reads.
type lpodStats struct {
	Engine struct {
		Sequences    int            `json:"sequences"`
		Outcomes     map[string]int `json:"outcomes"`
		VerifyExecs  int            `json:"verify_execs"`
		BatchedExecs int            `json:"batched_execs"`
		Panics       int            `json:"panics"`
		DegradedSeqs int            `json:"degraded_seqs"`
		TierKills    struct {
			Pool    int `json:"pool"`
			Special int `json:"special"`
			Random  int `json:"random"`
		} `json:"tier_kills"`
	} `json:"engine"`
	Store struct {
		Findings int   `json:"findings"`
		Rules    int   `json:"rules"`
		PutNew   int64 `json:"put_new"`
		Commits  int64 `json:"commits"`
	} `json:"store"`
	Server struct {
		DegradedAccepts int64 `json:"degraded_accepts"`
	} `json:"server"`
}

func (c *client) stats() (lpodStats, error) {
	var st lpodStats
	code, data, err := c.do(http.MethodGet, "/v1/stats", "", nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: %d", code)
	}
	return st, json.Unmarshal(data, &st)
}

// opResult is one closed-loop operation's outcome: whether it succeeded
// and whether it was refused with 429. Submits also count the windows in
// the reply and how many of them were answered from the store.
type opResult struct {
	ok, rejected    bool
	cached, windows int
}

// sample is one op's latency (ms) and completion time (seconds from the
// start of the loop). A run keeps one per request, so it is kept small:
// the process's peak RSS is one of the reported metrics.
type sample struct{ ms, done float32 }

// loop is what a closed loop measured: a sample per op and tallies of the
// outcomes. Ops 0..issued-1 all ran; failed lists those that did not
// succeed.
type loop struct {
	samples         []sample
	issued          int
	failed          []int32
	rejected        int
	cached, windows int
}

// closedLoop runs `clients` goroutines; each takes the next op index and
// runs op on it, until dur has passed (dur <= 0: no time limit) or limit
// ops have been issued.
func closedLoop(dur time.Duration, limit int, op func(i int) opResult) *loop {
	var next atomic.Int64
	per := make([]loop, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(l *loop) {
			defer wg.Done()
			for dur <= 0 || time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				t := time.Now()
				r := op(i)
				now := time.Now()
				l.samples = append(l.samples, sample{ms: float32(now.Sub(t).Seconds() * 1e3), done: float32(now.Sub(start).Seconds())})
				l.issued++
				if !r.ok {
					l.failed = append(l.failed, int32(i))
				}
				if r.rejected {
					l.rejected++
				}
				l.cached += r.cached
				l.windows += r.windows
			}
		}(&per[w])
	}
	wg.Wait()
	all := &loop{}
	for _, l := range per {
		all.samples = append(all.samples, l.samples...)
		all.issued += l.issued
		all.failed = append(all.failed, l.failed...)
		all.rejected += l.rejected
		all.cached += l.cached
		all.windows += l.windows
	}
	return all
}

// phase is one timed closed-loop phase against one daemon.
type phase struct {
	setups []float64
	*loop
	wall   time.Duration
	alloc  uint64
	cpu    time.Duration
	before lpodStats
	after  lpodStats
}

// run times the closed loop and counts its ops in out.
func (p *phase) run(out *outcome, dur time.Duration, limit int, op func(i int) opResult) {
	m := startMeter()
	p.loop = closedLoop(dur, limit, op)
	p.wall, p.alloc, p.cpu = m.stop(out)
	out.attempted += p.issued
	out.failed += len(p.failed)
}

// reportE2E sets the end-to-end metrics of a plain phase.
func (p *phase) reportE2E(out *outcome) {
	done := make([]float64, len(p.samples))
	lat := make([]float64, len(p.samples))
	for i, s := range p.samples {
		done[i], lat[i] = float64(s.done), float64(s.ms)
	}
	reportSliced(out, done, lat, p.wall)
	out.set("setup_s", median(p.setups), "s")
	out.set("alloc_kb_per_op", float64(p.alloc)/1024/float64(p.issued), "KiB")
	out.note("process CPU %.3f ms per op", p.cpu.Seconds()*1e3/float64(p.issued))
}

// reportTrace sets the per-layer metrics the lpod seams expose, from a
// traced phase. blockingSubmits marks submits that wait on the engine:
// their handler time is waiting, not service work, so the busy-time shares
// leave it out.
func reportTrace(out *outcome, d *daemon, plain, traced *phase, blockingSubmits bool) {
	tr := float64(traced.issued) / traced.wall.Seconds()
	pr := float64(plain.issued) / plain.wall.Seconds()
	out.set("traced.ops_per_s", tr, "1/s")
	out.set("traced.overhead", ratio(pr, tr)-1, "ratio")
	out.note("traced %d ops at %.1f/s, plain %d ops at %.1f/s", traced.issued, tr, plain.issued, pr)

	out.set("llm.calls", float64(d.client.t.calls.Load()), "count")
	out.set("llm.busy_s", d.client.t.seconds(), "s")
	out.set("llm.virtual_s", d.client.virtualSeconds(), "s")
	out.set("engine.cpu_util", ratio(traced.cpu.Seconds(), traced.wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")

	e := traced.after.Engine
	found := e.Outcomes[string(engine.Found)]
	out.set("engine.found_ratio", ratio(float64(found), float64(e.Sequences)), "ratio")
	out.set("alive.vectors", float64(e.VerifyExecs), "count")
	out.set("alive.kills_pool", float64(e.TierKills.Pool), "count")
	out.set("alive.kills_special", float64(e.TierKills.Special), "count")
	out.set("alive.kills_random", float64(e.TierKills.Random), "count")
	out.set("interp.batched_ratio", ratio(float64(e.BatchedExecs), float64(e.VerifyExecs)), "ratio")

	b := d.backend
	ss := d.st.Stats()
	out.set("store.put_calls", float64(b.put.calls.Load()), "count")
	out.set("store.put_busy_s", b.put.seconds(), "s")
	out.set("store.flush_calls", float64(b.flush.calls.Load()), "count")
	out.set("store.flush_wait_s", b.flush.seconds(), "s")
	out.set("store.records_per_commit", ratio(float64(ss.PutNew), float64(ss.Commits)), "ratio")
	out.set("store.commit_fails", float64(ss.CommitFails), "count")
	out.set("store.get_calls", float64(b.get.calls.Load()), "count")
	out.set("store.get_busy_s", b.get.seconds(), "s")
	out.set("store.open_s", d.open.Seconds(), "s")

	h := d.handler
	out.set("service.submit_busy_s", h.submit.seconds(), "s")
	out.set("service.finding_busy_s", h.finding.seconds(), "s")
	out.set("service.wasm_submit_busy_s", h.wasmSubmit.seconds(), "s")
	latS := 0.0
	for _, s := range traced.samples {
		latS += float64(s.ms) / 1e3
	}
	out.set("service.transport_s", latS-h.seconds(), "s")
	out.set("service.rejected", float64(traced.rejected), "count")

	busy := map[string]float64{
		"llm":   d.client.t.seconds(),
		"store": b.put.seconds() + b.get.seconds() + b.flush.seconds(),
	}
	// Submits that wait on the engine spend their handler time waiting;
	// otherwise the store reads made from handlers are nested in it.
	if !blockingSubmits {
		busy["service"] = h.seconds() - b.get.seconds()
	}
	reportShares(out, traced.wall, runtime.GOMAXPROCS(0), busy)
}

// failedOutcome reports an engine outcome that counts as a failed op.
func failedOutcome(o string) bool {
	switch engine.Outcome(o) {
	case engine.Errored, engine.Panicked, engine.Canceled:
		return true
	}
	return false
}
