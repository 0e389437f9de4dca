package service

// Tests for the scaled ingest path at the service layer: concurrent
// multi-client submissions against a sharded store (dedup, per-shard
// durability, byte-identical restart re-serving), the SSE findings stream,
// wait-mode submits with the Lpod-Degraded contract, and the compaction
// admin endpoint.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/alive"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/store"
)

// newShardedServerT builds a daemon over a 4-shard store with group commit
// running — the full scaled ingest stack. It returns the daemon's teardown
// (see stopDaemonT), which a restart test must call before reopening dir.
func newShardedServerT(t *testing.T, dir string) (*Server, *store.Sharded, *httptest.Server, func()) {
	t.Helper()
	st, err := store.OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	st.StartGroupCommit(store.GroupCommitOptions{})
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
	return srv, st, hs, stopDaemonT(t, hs, srv, st)
}

// TestServiceShardedConcurrentRestart is the sharded extension of the PR-6
// restart-resume e2e, run with -race: N clients posting overlapping window
// sets against a 4-shard store must dedup to one engine sequence per
// window, land every record durable on the shard its key routes to, and a
// restarted daemon on the same shards re-serves every finding
// byte-identically from disk.
func TestServiceShardedConcurrentRestart(t *testing.T) {
	dir := t.TempDir()
	corpus := append([]string{knownWindow}, extraWindows...)

	_, st, hs, stop := newShardedServerT(t, dir)
	const clients = 8
	var wg sync.WaitGroup
	bodies := make([]map[string][]byte, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Overlapping, rotated window sets: every client submits most of
			// the corpus, so every window races between several clients.
			subset := append(append([]string{}, corpus[c%len(corpus):]...), corpus[:c%len(corpus)]...)
			bodies[c] = make(map[string][]byte)
			for _, ws := range postWindows(t, hs.URL, subset...) {
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
		t.Fatalf("engine processed %d sequences for %d distinct windows: dedup leaked across shards",
			stats.Engine.Sequences, len(corpus))
	}
	if stats.Store.Shards != 4 {
		t.Fatalf("stats report %d shards, want 4", stats.Store.Shards)
	}
	if stats.Store.Findings != len(corpus) {
		t.Fatalf("store holds %d findings, want %d", stats.Store.Findings, len(corpus))
	}

	// Per-shard durability ordering: once the findings are served, each
	// record must be durable on exactly the shard its key routes to — a
	// shard's Pending drains to zero and its on-disk log holds its keys.
	deadline := time.Now().Add(10 * time.Second)
	for getStats(t, hs.URL).Store.Pending != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("shards still pending after all findings served: %+v", st.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for win := range bodies[0] {
		found := 0
		for i := 0; i < st.N(); i++ {
			if st.Shard(i).Has(store.KindFinding, win) {
				found++
			}
		}
		if found != 1 {
			t.Fatalf("finding %s lives on %d shards, want exactly 1", win, found)
		}
	}

	stop()

	// Restart on the same shard set: everything is answered from disk,
	// byte-identical, with zero fresh engine work.
	_, _, hs2, _ := newShardedServerT(t, dir)
	for _, ws := range postWindows(t, hs2.URL, corpus...) {
		if ws["status"] != "cached" {
			t.Fatalf("resubmission not served from sharded store: %+v", ws)
		}
		if data := waitFinding(t, hs2.URL, ws["window"]); !bytes.Equal(data, bodies[0][ws["window"]]) {
			t.Fatalf("finding %s changed across sharded restart", ws["window"])
		}
	}
	if stats2 := getStats(t, hs2.URL); stats2.Engine.Sequences != 0 {
		t.Fatalf("sharded restart pushed %d sequences through the engine", stats2.Engine.Sequences)
	}
}

// sseEvent is one parsed SSE frame from the findings stream.
type sseEvent struct {
	id     string
	window string
}

// readSSE consumes the stream until want windows arrived or the deadline
// passed.
func readSSE(t *testing.T, body *bufio.Scanner, want int, deadline time.Time) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	for len(events) < want && time.Now().Before(deadline) {
		if !body.Scan() {
			break
		}
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			var payload struct {
				Window string `json:"window"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &payload); err != nil {
				t.Errorf("SSE data is not JSON: %v: %s", err, line)
				return events
			}
			cur.window = payload.Window
		case line == "":
			if cur.window != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
	return events
}

// TestServiceFindingsStream pins the streaming contract: an SSE subscriber
// sees every durable finding exactly once with monotonic ids, a late
// subscriber with cursor=0 replays the full corpus, and the non-watch JSON
// page serves the same entries with a resumable cursor.
func TestServiceFindingsStream(t *testing.T) {
	_, _, hs, _ := newShardedServerT(t, t.TempDir())
	corpus := append([]string{knownWindow}, extraWindows...)

	// Subscribe BEFORE submitting: the watcher must see findings as they
	// become durable.
	resp, err := http.Get(hs.URL + "/v1/findings?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch Content-Type = %q", ct)
	}

	want := make(map[string]bool)
	for _, ws := range postWindows(t, hs.URL, corpus...) {
		want[ws["window"]] = true
		waitFinding(t, hs.URL, ws["window"])
	}

	events := readSSE(t, bufio.NewScanner(resp.Body), len(corpus), time.Now().Add(30*time.Second))
	if len(events) != len(corpus) {
		t.Fatalf("subscriber saw %d findings, want %d", len(events), len(corpus))
	}
	seen := make(map[string]bool)
	lastID := 0
	for _, e := range events {
		if seen[e.window] {
			t.Fatalf("window %s streamed twice", e.window)
		}
		seen[e.window] = true
		if !want[e.window] {
			t.Fatalf("streamed unknown window %s", e.window)
		}
		var id int
		fmt.Sscanf(e.id, "%d", &id)
		if id <= lastID {
			t.Fatalf("SSE ids not monotonic: %d after %d", id, lastID)
		}
		lastID = id
	}

	// A late subscriber replaying from cursor 0 gets the whole corpus too.
	resp2, err := http.Get(hs.URL + "/v1/findings?watch=1&cursor=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay := readSSE(t, bufio.NewScanner(resp2.Body), len(corpus), time.Now().Add(10*time.Second))
	if len(replay) != len(corpus) {
		t.Fatalf("replay subscriber saw %d findings, want %d", len(replay), len(corpus))
	}

	// The plain JSON page serves the same stream with a resumable cursor.
	var page struct {
		NextCursor int               `json:"next_cursor"`
		Findings   []json.RawMessage `json:"findings"`
	}
	resp3, err := http.Get(hs.URL + "/v1/findings")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp3.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if len(page.Findings) != len(corpus) || page.NextCursor != len(corpus) {
		t.Fatalf("JSON page: %d findings, next_cursor %d, want %d/%d",
			len(page.Findings), page.NextCursor, len(corpus), len(corpus))
	}
	resp4, err := http.Get(hs.URL + fmt.Sprintf("/v1/findings?cursor=%d", page.NextCursor))
	if err != nil {
		t.Fatal(err)
	}
	var tail struct {
		Findings []json.RawMessage `json:"findings"`
	}
	if err := json.NewDecoder(resp4.Body).Decode(&tail); err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if len(tail.Findings) != 0 {
		t.Fatalf("resumed cursor replayed %d findings, want 0", len(tail.Findings))
	}
}

// TestServiceSubmitWaitDegraded pins the Lpod-Degraded submit contract:
// wait-mode submits answer 200 once durable on a healthy store, and 202 +
// Lpod-Degraded (never a 5xx) while the store cannot commit — the record is
// accepted, pending, and counted in /v1/stats.
func TestServiceSubmitWaitDegraded(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(5, fault.Plan{fault.SiteStoreSync: {ErrorRate: 1}})
	inj.Disable()
	st, err := store.OpenWith(dir, func(f store.File) store.File { return fault.NewFile(f, inj) })
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

	// Healthy store: wait-mode submit returns 200 only after the finding is
	// durable — a crash right now must not lose it.
	body, _ := json.Marshal(map[string]any{"windows": []string{knownWindow}})
	resp, err := http.Post(hs.URL+"/v1/windows?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Lpod-Degraded") != "" {
		t.Fatalf("healthy wait submit: %d (degraded=%q), want 200", resp.StatusCode, resp.Header.Get("Lpod-Degraded"))
	}
	if st.Stats().Pending != 0 {
		t.Fatal("wait-mode 200 with records still pending")
	}

	// Store down: the submission is accepted and computed but cannot become
	// durable — 202 + Lpod-Degraded, not an error.
	inj.Enable()
	body, _ = json.Marshal(map[string]any{"windows": []string{extraWindows[0]}})
	resp, err = http.Post(hs.URL+"/v1/windows?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reply struct {
		Windows []map[string]string `json:"windows"`
	}
	json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Lpod-Degraded") != "true" {
		t.Fatalf("degraded wait submit: %d (degraded=%q), want 202 + Lpod-Degraded",
			resp.StatusCode, resp.Header.Get("Lpod-Degraded"))
	}
	// The window resolved and serves from memory despite the dead disk.
	waitFinding(t, hs.URL, reply.Windows[0]["window"])
	stats := getStats(t, hs.URL)
	if stats.Server.DegradedAccepts == 0 {
		t.Fatal("degraded accept not counted in /v1/stats")
	}
	if stats.Store.Pending == 0 {
		t.Fatal("degraded accept left nothing pending")
	}

	// Fault clears: resubmitting with wait drains the backlog durable.
	inj.Disable()
	resp, err = http.Post(hs.URL+"/v1/windows?wait=1", "application/json",
		strings.NewReader(`{"windows":["define i8 @w9(i8 %x) { %r = sub i8 %x, 0 ret i8 %r }"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery wait submit: %d, want 200", resp.StatusCode)
	}
	if st.Stats().Pending != 0 {
		t.Fatal("post-recovery barrier left records pending")
	}
}

// TestServiceCompactEndpoint pins POST /v1/compact end to end: the rewrite
// keeps every finding and rule, reports its stats, and the compacted store
// serves identical finding bytes before and after a restart.
func TestServiceCompactEndpoint(t *testing.T) {
	dir := t.TempDir()
	corpus := append([]string{knownWindow}, extraWindows...)
	_, _, hs, stop := newShardedServerT(t, dir)

	findings := make(map[string][]byte)
	for _, ws := range postWindows(t, hs.URL, corpus...) {
		findings[ws["window"]] = waitFinding(t, hs.URL, ws["window"])
	}

	resp, err := http.Post(hs.URL+"/v1/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Kept        int   `json:"kept"`
		Dropped     int   `json:"dropped"`
		BytesBefore int64 `json:"bytes_before"`
		BytesAfter  int64 `json:"bytes_after"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/compact: %d", resp.StatusCode)
	}
	if rep.Kept == 0 {
		t.Fatalf("compact kept nothing: %+v", rep)
	}
	stats := getStats(t, hs.URL)
	if stats.Store.Compactions == 0 {
		t.Fatal("compaction not counted in /v1/stats")
	}
	if stats.Store.Findings != len(corpus) {
		t.Fatalf("compaction dropped findings: %d, want %d", stats.Store.Findings, len(corpus))
	}
	if stats.Store.Pending != 0 {
		t.Fatalf("compaction left %d records pending", stats.Store.Pending)
	}
	for win, want := range findings {
		if got := waitFinding(t, hs.URL, win); !bytes.Equal(got, want) {
			t.Fatalf("finding %s changed across compaction", win)
		}
	}

	// Restart on the compacted shards: everything still serves from disk.
	stop()
	_, _, hs2, _ := newShardedServerT(t, dir)
	for _, ws := range postWindows(t, hs2.URL, corpus...) {
		if ws["status"] != "cached" {
			t.Fatalf("post-compaction resubmission not cached: %+v", ws)
		}
		if got := waitFinding(t, hs2.URL, ws["window"]); !bytes.Equal(got, findings[ws["window"]]) {
			t.Fatalf("finding %s changed across compaction + restart", ws["window"])
		}
	}
}
