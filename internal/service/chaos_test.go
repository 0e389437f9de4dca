package service

// Chaos tests: the service's fault-tolerance contract under seeded fault
// injection at every seam — provider (llm), store write layer, and HTTP
// handler. The headline test drives a full campaign with faults everywhere
// and asserts the daemon never crashes, keeps serving, and converges to a
// store byte-identical with a fault-free same-seed run once faults clear.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/alive"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/llm"
	"repro/internal/store"
)

// chaosEngineConfig is the engine config shared by the fault-free and the
// faulted campaigns — identical settings are what make byte-identical
// convergence checkable.
func chaosEngineConfig() engine.Config {
	return engine.Config{
		Workers: 4,
		Rounds:  2,
		Verify:  alive.Options{Samples: 128, Seed: 3},
	}
}

// TestServiceBodyLimit413 pins the request-size satellite: an oversized body
// is rejected with 413 and a JSON error, never silently truncated.
func TestServiceBodyLimit413(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := New(Config{Store: st, Seed: 1, MaxBodyBytes: 1024,
		Engine: chaosEngineConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	big := strings.Repeat("; padding\n", 200) + knownWindow
	resp, err := http.Post(hs.URL+"/v1/windows", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %d, want 413", resp.StatusCode)
	}
	var reply map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil || reply["error"] == "" {
		t.Fatalf("413 body is not a JSON error: %v %v", reply, err)
	}

	// At exactly the limit the submission still goes through.
	resp, err = http.Post(hs.URL+"/v1/windows", "text/plain", strings.NewReader(knownWindow))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-limit body: got %d, want 200", resp.StatusCode)
	}
}

// blockClient parks every Complete call until its gate closes, simulating
// workers wedged on a slow provider.
type blockClient struct{ gate chan struct{} }

func (c blockClient) Profile() llm.Profile { return llm.Profile{Name: "blocked"} }
func (c blockClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	select {
	case <-c.gate:
		return llm.Response{Text: "ok"}, nil
	case <-ctx.Done():
		return llm.Response{}, ctx.Err()
	}
}

// failFirstClient fails its first n Complete calls with a provider error and
// then delegates to the wrapped client: a provider outage that outlives any
// retries, followed by recovery.
type failFirstClient struct {
	llm.Client
	mu    sync.Mutex
	n     int
	calls int
}

func (c *failFirstClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	c.mu.Lock()
	c.calls++
	fail := c.calls <= c.n
	c.mu.Unlock()
	if fail {
		return llm.Response{}, fmt.Errorf("provider down (call %d)", c.calls)
	}
	return c.Client.Complete(ctx, req)
}

// Calls reports how many Complete calls reached the client.
func (c *failFirstClient) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// postWait submits windows with ?wait=1 and returns the status code and the
// per-window statuses.
func postWait(t *testing.T, base string, windows ...string) (int, []map[string]string) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"windows": windows})
	resp, err := http.Post(base+"/v1/windows?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply struct {
		Windows []map[string]string `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply.Windows
}

// getBody fetches one route, returning its status code and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestServiceProviderErrorRecomputes pins lpod's one failure path for the
// provider: a window whose every round hit a provider error is an Errored
// result, which persists nothing and leaves the window unknown; once the
// provider recovers, a resubmission computes it and stores the bytes a
// fault-free same-seed server stores.
func TestServiceProviderErrorRecomputes(t *testing.T) {
	serve := func(client llm.Client) (*store.Sharded, *httptest.Server) {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Store: st, Client: client, Seed: 1, Engine: chaosEngineConfig()})
		if err != nil {
			st.Close()
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		stopDaemonT(t, hs, srv, st)
		return st, hs
	}

	_, clean := serve(nil)
	code, ws := postWait(t, clean.URL, knownWindow)
	if code != http.StatusOK || ws[0]["status"] != "queued" {
		t.Fatalf("fault-free submit: %d %v", code, ws)
	}
	window := ws[0]["window"]
	wantFinding := waitFinding(t, clean.URL, window)
	_, wantRules := getBody(t, clean.URL+"/v1/rulebook")

	// One Complete call per round, and every round fails.
	rounds := chaosEngineConfig().Rounds
	client := &failFirstClient{Client: llm.NewSim("Gemini2.0T", 1), n: rounds}
	st, hs := serve(client)
	code, ws = postWait(t, hs.URL, knownWindow)
	if code != http.StatusOK || ws[0]["status"] != "queued" {
		t.Fatalf("submit during the outage: %d %v", code, ws)
	}
	if n := client.Calls(); n != rounds {
		t.Fatalf("outage submit made %d provider calls, want %d", n, rounds)
	}
	if ss := st.Stats(); ss.Records != 0 || ss.Pending != 0 {
		t.Fatalf("errored window persisted something: %+v", ss)
	}
	code, body := getBody(t, hs.URL+"/v1/findings/"+window)
	var unknown windowStatus
	json.Unmarshal(body, &unknown)
	if code != http.StatusNotFound || unknown.Status != "unknown" {
		t.Fatalf("errored window: GET answered %d %s, want 404 unknown", code, body)
	}
	stats := getStats(t, hs.URL)
	if stats.Engine.Outcomes[engine.Errored] != 1 || stats.Server.Persisted != 0 ||
		stats.Server.DegradedAccepts != 0 {
		t.Fatalf("outage accounting: outcomes %v, persisted %d, degraded accepts %d",
			stats.Engine.Outcomes, stats.Server.Persisted, stats.Server.DegradedAccepts)
	}

	// The provider is back: the resubmission recomputes the window.
	if code, ws := postWait(t, hs.URL, knownWindow); code != http.StatusOK || ws[0]["status"] != "queued" {
		t.Fatalf("submit after recovery: %d %v", code, ws)
	}
	if got := waitFinding(t, hs.URL, window); !bytes.Equal(got, wantFinding) {
		t.Fatalf("recomputed finding diverges from the fault-free server:\n%s\n--vs--\n%s", wantFinding, got)
	}
	if _, got := getBody(t, hs.URL+"/v1/rulebook"); !bytes.Equal(got, wantRules) {
		t.Fatalf("recomputed rulebook diverges from the fault-free server:\n%s\n--vs--\n%s", wantRules, got)
	}
}

// TestServiceQueueFull429 pins load shedding: with the engine wedged and the
// queue full, further submissions answer 429 with Retry-After instead of
// blocking the handler.
func TestServiceQueueFull429(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	gate := make(chan struct{})
	srv, err := New(Config{
		Store:  st,
		Client: blockClient{gate: gate},
		Seed:   1,
		Engine: engine.Config{Workers: 1, QueueSize: 1,
			Verify: alive.Options{Samples: 64, Seed: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(gate) // unwedge before Close so the drain can finish
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Enough distinct windows to fill every buffer between the handler and
	// the wedged worker (submit queue + feeder queue + in-flight).
	var windows []string
	for i := 0; i < 16; i++ {
		windows = append(windows, fmt.Sprintf(
			"define i8 @q%d(i8 %%x) { %%r = add i8 %%x, %d ret i8 %%r }", i, i+1))
	}
	body, _ := json.Marshal(map[string]any{"windows": windows})
	resp, err := http.Post(hs.URL+"/v1/windows", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit: got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var reply struct {
		Windows []map[string]string `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	queued, rejected := 0, 0
	for _, ws := range reply.Windows {
		switch ws["status"] {
		case "queued":
			queued++
		case "rejected":
			rejected++
		}
	}
	if queued == 0 || rejected == 0 {
		t.Fatalf("want a mix of queued and rejected, got %d/%d", queued, rejected)
	}
}

// TestServiceHealthz pins the liveness probe: 200/ok while the drain runs,
// 503/stopped once the server is closed.
func TestServiceHealthz(t *testing.T) {
	srv, hs, _ := newServerT(t, t.TempDir())
	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var reply map[string]any
	json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || reply["status"] != "ok" || reply["engine_live"] != true {
		t.Fatalf("healthy daemon: %d %v", resp.StatusCode, reply)
	}
	srv.Close()
	resp, err = http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed daemon healthz: got %d, want 503", resp.StatusCode)
	}
}

// TestServiceRecoveryMiddleware pins the handler panic boundary: an injected
// handler panic answers 500 with a JSON error and the daemon keeps serving.
func TestServiceRecoveryMiddleware(t *testing.T) {
	_, hs, _ := newServerT(t, t.TempDir())
	inj := fault.New(3, fault.Plan{fault.SiteHTTP: {PanicRate: 1, Budget: 1}})
	// The recovery boundary sits outermost, exactly as Handler() installs it.
	h := recoverMiddleware(fault.Middleware(inj, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: got %d, want 500", rec.Code)
	}
	var reply map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply["error"] == "" {
		t.Fatalf("500 body is not a JSON error: %s", rec.Body.Bytes())
	}
	// Budget spent: the next request flows through normally.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("daemon did not keep serving after the panic: %d", rec.Code)
	}
	// And the real handler stack survives a panic probe end to end.
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestServiceDegradedStore pins degraded-but-serving durability: with the
// store's fsync failing, submissions still resolve and serve from memory,
// healthz and stats report the backlog, and once the fault clears the next
// commit drains it — nothing accepted is lost.
func TestServiceDegradedStore(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(5, fault.Plan{fault.SiteStoreSync: {ErrorRate: 1}})
	inj.Disable() // no faults during Open/recovery
	st, err := store.Open(dir, store.Options{Wrap: func(f store.File) store.File { return fault.NewFile(f, inj) }})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := New(Config{Store: st, Seed: 1, Engine: chaosEngineConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	inj.Enable()

	statuses := postWindows(t, hs.URL, knownWindow)
	if statuses[0]["status"] != "queued" {
		t.Fatalf("submission not queued: %+v", statuses)
	}
	window := statuses[0]["window"]
	data := waitFinding(t, hs.URL, window) // servable despite failed commits
	if f, err := store.DecodeFinding(data); err != nil || f.Window != window {
		t.Fatalf("degraded finding malformed: %v", err)
	}

	// The finding serves from memory as soon as it is put, which can be
	// before the committer's first (failing) commit: wait for the backlog
	// to be reported instead of racing it.
	var stats Stats
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		stats = getStats(t, hs.URL)
		if stats.Store.CommitFails > 0 && stats.Store.Pending > 0 && stats.Server.Degraded ||
			time.Now().After(deadline) {
			break
		}
	}
	if stats.Store.CommitFails == 0 || stats.Store.Pending == 0 || !stats.Server.Degraded {
		t.Fatalf("degraded durability not reported: commit_fails=%d pending=%d degraded=%v",
			stats.Store.CommitFails, stats.Store.Pending, stats.Server.Degraded)
	}
	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["status"] != "degraded" {
		t.Fatalf("healthz during degraded mode: %d %v", resp.StatusCode, health)
	}

	// Fault clears: the next persisted result's commit retries the backlog.
	inj.Disable()
	statuses = postWindows(t, hs.URL, extraWindows[0])
	waitFinding(t, hs.URL, statuses[0]["window"])
	deadline := time.Now().Add(10 * time.Second)
	for getStats(t, hs.URL).Store.Pending != 0 {
		if time.Now().After(deadline) {
			t.Fatal("commit backlog never drained after the fault cleared")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Everything accepted during the outage is durable: a clean reopen
	// serves the same bytes.
	hs.Close()
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, ok := st2.Get(store.KindFinding, window)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("degraded-mode finding lost or changed after reopen (ok=%v)", ok)
	}
}

// postChaos is postWindows made fault-tolerant: it retries through injected
// 503s, 429 shedding and transport errors, and returns the last statuses.
func postChaos(t *testing.T, base string, windows ...string) []map[string]string {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"windows": windows})
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Post(base+"/v1/windows", "application/json", bytes.NewReader(body))
		if err == nil {
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusTooManyRequests {
				var reply struct {
					Windows []map[string]string `json:"windows"`
				}
				if err := json.Unmarshal(data, &reply); err != nil {
					t.Fatalf("submit reply not JSON: %v: %s", err, data)
				}
				return reply.Windows
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("POST /v1/windows: %d: %s", resp.StatusCode, data)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("submission never accepted: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosCampaignConverges is the tentpole acceptance test: a full
// campaign with seeded faults at every seam — provider errors and panics,
// store fsync failures, HTTP 503 injections — must crash nothing, keep the
// daemon serving, and once the fault budgets are spent converge to a store
// byte-identical with a fault-free same-seed campaign.
func TestChaosCampaignConverges(t *testing.T) {
	corpus := append([]string{knownWindow}, extraWindows...)

	// Fault-free baseline campaign.
	baseDir := t.TempDir()
	baseline := make(map[string][]byte)
	func() {
		st, err := store.Open(baseDir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		srv, err := New(Config{Store: st, Seed: 1, Engine: chaosEngineConfig()})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		for _, ws := range postWindows(t, hs.URL, corpus...) {
			baseline[ws["window"]] = waitFinding(t, hs.URL, ws["window"])
		}
	}()

	// Faulted campaign: same seeds, same engine config, faults everywhere.
	// Budgets bound the blast radius so the run converges once they are
	// spent; the retry policy outlasts the provider's error budget so no
	// injected transient error ever surfaces as a round outcome (which
	// would change the persisted Round and break byte-identity).
	// Convergence must hold for ANY fault seed — CI exercises two via
	// LPO_CHAOS_SEED; only the fault schedule varies, never the outcome.
	chaosSeed := uint64(1729)
	if env := os.Getenv("LPO_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("LPO_CHAOS_SEED: %v", err)
		}
		chaosSeed = v
	}
	inj := fault.New(chaosSeed, fault.Plan{
		fault.SiteLLM:       {PanicRate: 0.05, ErrorRate: 0.3, Budget: 12},
		fault.SiteStoreSync: {ErrorRate: 1, Budget: 2},
		fault.SiteHTTP:      {ErrorRate: 0.25, Budget: 4},
	})
	// The faulted campaign runs the full scaled ingest path — a 4-shard
	// store with a group committer per shard — and must STILL converge
	// byte-identical to the one-shard fault-free baseline: sharding and
	// commit coalescing change where and when bytes land, never which bytes.
	inj.Disable()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{
		Shards: 4,
		Wrap:   func(f store.File) store.File { return fault.NewFile(f, inj) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	client := llm.NewRetrying(
		fault.NewClient(llm.NewSim("Gemini2.0T", 1), inj),
		llm.RetryPolicy{
			MaxAttempts: 20,
			BaseDelay:   time.Millisecond,
			MaxDelay:    4 * time.Millisecond,
			Seed:        chaosSeed,
		})
	srv, err := New(Config{Store: st, Client: client, Seed: 1, Engine: chaosEngineConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(recoverMiddleware(fault.Middleware(inj, srv.Handler())))
	defer hs.Close()
	inj.Enable()

	// Submit under fire, then keep resubmitting until every window is
	// served from the store — the convergence criterion.
	deadline := time.Now().Add(60 * time.Second)
	for {
		statuses := postChaos(t, hs.URL, corpus...)
		cached := 0
		for _, ws := range statuses {
			switch ws["status"] {
			case "cached":
				cached++
			case "queued", "pending", "rejected":
			default:
				t.Fatalf("unexpected status under chaos: %+v", ws)
			}
		}
		if cached == len(corpus) {
			break
		}
		// The daemon must keep serving throughout.
		resp, err := http.Get(hs.URL + "/v1/healthz")
		if err != nil {
			t.Fatalf("daemon stopped serving mid-chaos: %v", err)
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("campaign never converged; injected: %v", inj)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if inj.Injected() == 0 {
		t.Fatal("chaos run injected nothing; the test proved nothing")
	}
	// Faults clear (any leftover budget stops firing); everything below is
	// the post-outage steady state.
	inj.Disable()

	// Converged: every finding byte-identical with the fault-free run.
	for window, want := range baseline {
		got := waitFinding(t, hs.URL, window)
		if !bytes.Equal(got, want) {
			t.Fatalf("finding %s diverged from the fault-free campaign:\n%s\n--vs--\n%s",
				window, want, got)
		}
	}

	// Fault accounting is visible: injected worker panics (if any fired)
	// surface as engine panics + quarantine entries, store failures as
	// commit_fails — and the backlog must have drained.
	stats := getStats(t, hs.URL)
	c := inj.Counts()
	if c[fault.SiteLLM].Panics > 0 {
		if stats.Engine.Panics == 0 || len(stats.Engine.Quarantined) == 0 {
			t.Fatalf("injected %d provider panics but engine reports %d (quarantined %v)",
				c[fault.SiteLLM].Panics, stats.Engine.Panics, stats.Engine.Quarantined)
		}
	}
	if c[fault.SiteStoreSync].Errors > 0 && stats.Store.CommitFails == 0 {
		t.Fatal("injected fsync failures left no commit_fails trace")
	}
	if stats.Store.Pending != 0 {
		t.Fatalf("converged campaign still has %d pending records", stats.Store.Pending)
	}

	// And the store really is durable: close everything, reopen every shard
	// clean, compare bytes straight from disk.
	hs.Close()
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Stats().Recovered != 0 {
		t.Fatalf("chaos shards carried torn bytes into the reopen: %+v", st2.Stats())
	}
	for window, want := range baseline {
		got, ok := st2.Get(store.KindFinding, window)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("reopened chaos store diverges at %s (ok=%v)", window, ok)
		}
	}
}
