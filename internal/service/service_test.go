package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/alive"
	"repro/internal/engine"
	"repro/internal/store"
)

// knownWindow is a window the simulated provider optimizes (and/or/xor is
// xor), so a discovery run against it produces a Found finding and usually a
// learned rule — exercising every record kind in the store.
const knownWindow = `define i16 @src(i16 %x, i16 %y) {
  %a = and i16 %x, %y
  %o = or i16 %x, %y
  %r = xor i16 %a, %o
  ret i16 %r
}`

var extraWindows = []string{
	`define i8 @w1(i8 %x) { %r = add i8 %x, 0 ret i8 %r }`,
	`define i8 @w2(i8 %x) { %a = mul i8 %x, 2 %r = add i8 %a, 1 ret i8 %r }`,
	`define i32 @w3(i32 %x) { %a = xor i32 %x, -1 %r = xor i32 %a, -1 ret i32 %r }`,
}

// newServerT starts a daemon over a single-file store in dir. It returns
// the daemon's teardown (see stopDaemonT), which a restart test must call
// before reopening dir.
func newServerT(t *testing.T, dir string) (*Server, *httptest.Server, func()) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store: st,
		Seed:  1,
		Engine: engine.Config{
			Workers: 4,
			Rounds:  2,
			Verify:  alive.Options{Samples: 128, Seed: 3},
		},
	})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	return srv, hs, stopDaemonT(t, hs, srv, st)
}

// stopDaemonT returns a test daemon's teardown, which runs once and is also
// registered as a cleanup: close the HTTP front end, then the server
// (drain, pool flush, final commit), then the store — the order lpod
// follows on SIGTERM. Store.Put makes a record servable before it is
// durable, so a store reopened while the first server is still up can miss
// records that server has not committed yet.
func stopDaemonT(t *testing.T, hs *httptest.Server, srv *Server, st io.Closer) func() {
	var once sync.Once
	stop := func() {
		once.Do(func() {
			hs.Close()
			if err := srv.Close(); err != nil {
				t.Errorf("server close: %v", err)
			}
			if err := st.Close(); err != nil {
				t.Errorf("store close: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return stop
}

func postWindows(t *testing.T, base string, windows ...string) []map[string]string {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"windows": windows})
	resp, err := http.Post(base+"/v1/windows", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/windows: %d: %s", resp.StatusCode, data)
	}
	var reply struct {
		Windows []map[string]string `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	return reply.Windows
}

// waitFinding polls GET /v1/findings until the window resolves (200) or the
// deadline passes, returning the served bytes.
func waitFinding(t *testing.T, base, window string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/findings/" + window)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return data
		case http.StatusAccepted:
			time.Sleep(20 * time.Millisecond)
		default:
			t.Fatalf("GET /v1/findings/%s: %d: %s", window, resp.StatusCode, data)
		}
	}
	t.Fatalf("finding %s never resolved", window)
	return nil
}

func getStats(t *testing.T, base string) statsReply {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep statsReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestServiceRestartResume is the ISSUE's acceptance test: run a campaign
// through the daemon, restart it on the same store, resubmit the same
// corpus — every window must be served from the store (byte-identical
// finding bodies, rulebook unchanged) with almost no verifier work (the
// ISSUE allows <5% of the first run's executions; a full store hit needs
// none at all).
func TestServiceRestartResume(t *testing.T) {
	dir := t.TempDir()
	corpus := append([]string{knownWindow}, extraWindows...)

	// First campaign: everything is novel.
	_, hs1, stop1 := newServerT(t, dir)
	statuses := postWindows(t, hs1.URL, corpus...)
	if len(statuses) != len(corpus) {
		t.Fatalf("%d statuses for %d windows", len(statuses), len(corpus))
	}
	findings1 := make(map[string][]byte)
	for _, ws := range statuses {
		if ws["status"] != "queued" {
			t.Fatalf("first submission not queued: %+v", ws)
		}
		findings1[ws["window"]] = waitFinding(t, hs1.URL, ws["window"])
	}
	var sawFound bool
	for _, data := range findings1 {
		f, err := store.DecodeFinding(data)
		if err != nil {
			t.Fatalf("served finding is not a finding: %v", err)
		}
		if f.Outcome == string(engine.Found) {
			sawFound = true
		}
	}
	if !sawFound {
		t.Fatal("campaign found nothing; the known window should be Found")
	}
	stats1 := getStats(t, hs1.URL)
	if stats1.Engine.VerifyExecs == 0 {
		t.Fatal("first campaign did no verification")
	}
	if stats1.Engine.BatchedExecs != stats1.Engine.VerifyExecs {
		t.Fatalf("batched execs %d != verify execs %d: every verified vector runs lane-batched",
			stats1.Engine.BatchedExecs, stats1.Engine.VerifyExecs)
	}
	if stats1.Store.Findings != len(corpus) {
		t.Fatalf("store holds %d findings, want %d", stats1.Store.Findings, len(corpus))
	}
	rb1, err := http.Get(hs1.URL + "/v1/rulebook")
	if err != nil {
		t.Fatal(err)
	}
	book1, _ := io.ReadAll(rb1.Body)
	rb1.Body.Close()
	stop1()

	// Second daemon, same store: resubmission must be answered from disk.
	srv2, hs2, _ := newServerT(t, dir)
	if stats1.Pool.Deposits > 0 && srv2.LoadedVectors() == 0 {
		t.Fatal("restart did not warm-load the counterexample pool")
	}
	for _, ws := range postWindows(t, hs2.URL, corpus...) {
		if ws["status"] != "cached" {
			t.Fatalf("resubmission not served from store: %+v", ws)
		}
		if data := waitFinding(t, hs2.URL, ws["window"]); !bytes.Equal(data, findings1[ws["window"]]) {
			t.Fatalf("finding %s changed across restart:\n%s\n--vs--\n%s",
				ws["window"], findings1[ws["window"]], data)
		}
	}
	stats2 := getStats(t, hs2.URL)
	if max := stats1.Engine.VerifyExecs / 20; stats2.Engine.VerifyExecs > max {
		t.Fatalf("restart run executed %d verifications, want <=%d (5%% of %d)",
			stats2.Engine.VerifyExecs, max, stats1.Engine.VerifyExecs)
	}
	if stats2.Engine.Sequences != 0 {
		t.Fatalf("restart run pushed %d sequences through the engine", stats2.Engine.Sequences)
	}
	rb2, err := http.Get(hs2.URL + "/v1/rulebook")
	if err != nil {
		t.Fatal(err)
	}
	book2, _ := io.ReadAll(rb2.Body)
	rb2.Body.Close()
	if !bytes.Equal(book1, book2) {
		t.Fatalf("rulebook changed across restart:\n%s\n--vs--\n%s", book1, book2)
	}
}

// TestServiceConcurrentSubmit hammers the submit endpoint with the same
// corpus from many goroutines: the store-plus-inflight dedup must schedule
// each window at most once and every concurrent client must eventually read
// the same finding. Run with -race this is the service's concurrency guard.
func TestServiceConcurrentSubmit(t *testing.T) {
	_, hs, _ := newServerT(t, t.TempDir())
	corpus := append([]string{knownWindow}, extraWindows...)

	const clients = 8
	var wg sync.WaitGroup
	bodies := make([]map[string][]byte, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			bodies[c] = make(map[string][]byte)
			for _, ws := range postWindows(t, hs.URL, corpus...) {
				switch ws["status"] {
				case "queued", "pending", "cached":
				default:
					t.Errorf("client %d: unexpected status %+v", c, ws)
					return
				}
				bodies[c][ws["window"]] = waitFinding(t, hs.URL, ws["window"])
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for c := 1; c < clients; c++ {
		for win, data := range bodies[c] {
			if !bytes.Equal(data, bodies[0][win]) {
				t.Fatalf("clients disagree on finding %s", win)
			}
		}
	}
	stats := getStats(t, hs.URL)
	if stats.Engine.Sequences > len(corpus) {
		t.Fatalf("engine processed %d sequences for %d distinct windows: dedup leaked",
			stats.Engine.Sequences, len(corpus))
	}
	if stats.Store.Findings != len(corpus) {
		t.Fatalf("store holds %d findings, want %d", stats.Store.Findings, len(corpus))
	}
}

// TestServiceRawLLSubmit pins the curl path: a raw .ll module body (no JSON)
// submits every function it defines.
func TestServiceRawLLSubmit(t *testing.T) {
	_, hs, _ := newServerT(t, t.TempDir())
	module := knownWindow + "\n\n" + extraWindows[0]
	resp, err := http.Post(hs.URL+"/v1/windows", "text/plain", strings.NewReader(module))
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
	if len(reply.Windows) != 2 {
		t.Fatalf("raw module produced %d windows, want 2", len(reply.Windows))
	}
	for _, ws := range reply.Windows {
		if ws["status"] != "queued" {
			t.Fatalf("raw window not queued: %+v", ws)
		}
		waitFinding(t, hs.URL, ws["window"])
	}
}

// TestServiceAPIErrors pins the failure envelope: bad hashes, unknown
// findings, invalid IR and empty submissions.
func TestServiceAPIErrors(t *testing.T) {
	_, hs, _ := newServerT(t, t.TempDir())

	resp, _ := http.Get(hs.URL + "/v1/findings/not-hex")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad hash: %d", resp.StatusCode)
	}
	resp, _ = http.Get(hs.URL + "/v1/findings/" + fmt.Sprintf("%016x", 0xbeef))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown finding: %d", resp.StatusCode)
	}
	statuses := postWindows(t, hs.URL, "this is not IR")
	if len(statuses) != 1 || statuses[0]["status"] != "invalid" {
		t.Fatalf("invalid IR: %+v", statuses)
	}
	resp, _ = http.Post(hs.URL+"/v1/windows", "application/json", strings.NewReader(`{}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty submission: %d", resp.StatusCode)
	}
}
