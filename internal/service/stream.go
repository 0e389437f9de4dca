package service

// Streaming findings: GET /v1/findings?watch=1 pushes every DURABLE finding
// to subscribers over Server-Sent Events, so multi-node campaign drivers
// consume results as they land instead of polling /v1/stats. The stream is
// an append-only in-memory log of window keys seeded from the store at
// startup (so a subscriber with cursor=0 replays the whole corpus) and
// extended by the persist workers as barriers succeed; per-subscriber
// cursors are just indexes into it, so a reconnecting subscriber resumes
// with ?cursor=N (or the SSE id it last saw) and misses nothing.
//
// Wire format (one frame per finding; ids are stream cursors):
//
//	event: finding
//	id: 42
//	data: {"window":"<16-hex>","finding":{...stored finding JSON...}}
//
// with a ": heartbeat" comment frame every streamHeartbeat to keep idle
// connections alive. Only durable findings are published — a finding
// whose persist barrier failed is deferred and published by the next
// successful barrier, preserving "servable once durable" on the stream.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/store"
)

// streamHeartbeat is the SSE keep-alive comment interval for
// GET /v1/findings?watch=1.
const streamHeartbeat = 15 * time.Second

// streamEntry is one published finding: the window key and the stored
// finding's bytes, nil when they are not valid JSON. The bytes are the
// store's own, which are immutable, so the log costs a few words per window
// rather than a second copy of every finding; data compacts them when a
// subscriber reads the entry.
type streamEntry struct {
	window  string
	finding []byte
}

// data renders the SSE data payload (compact JSON, single line — the SSE
// framing requirement): the window key and, when valid, the finding.
func (e streamEntry) data() []byte {
	var buf bytes.Buffer
	buf.Grow(len(e.window) + len(e.finding) + len(`{"window":"","finding":}`))
	buf.WriteString(`{"window":"`)
	buf.WriteString(e.window)
	if e.finding == nil {
		// A stored finding that is not valid JSON cannot be framed; publish
		// the window key alone so the subscriber still learns of it.
		buf.WriteString(`"}`)
		return buf.Bytes()
	}
	buf.WriteString(`","finding":`)
	_ = json.Compact(&buf, e.finding) // cannot fail: validated when appended
	buf.WriteByte('}')
	return buf.Bytes()
}

// stream is the durable-findings broadcast log.
type stream struct {
	st store.Backend

	mu       sync.Mutex
	entries  []streamEntry
	seen     map[string]bool
	deferred []string      // accepted-not-durable windows awaiting a barrier
	sig      chan struct{} // closed on append, then replaced
	subs     int
}

func newStream(st store.Backend) *stream {
	s := &stream{st: st, seen: make(map[string]bool), sig: make(chan struct{})}
	// Seed from the store so cursor=0 replays everything already durable
	// (shard by shard, append order within each).
	st.Scan(store.KindFinding, func(key string, val []byte) bool {
		s.append(key, val)
		return true
	})
	return s
}

// append publishes one finding's bytes under the lock-free fast checks done
// by callers; it is idempotent per window. val must be the store's own
// bytes (from Get or Scan), which the entry keeps.
func (s *stream) append(window string, val []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendLocked(window, val)
}

func (s *stream) appendLocked(window string, val []byte) {
	if s.seen[window] {
		return
	}
	finding := val
	if !json.Valid(val) {
		finding = nil
	}
	s.seen[window] = true
	s.entries = append(s.entries, streamEntry{window: window, finding: finding})
	close(s.sig)
	s.sig = make(chan struct{})
}

// publish looks the window's durable finding up in the store and appends it.
func (s *stream) publish(window string) {
	val, ok := s.st.Get(store.KindFinding, window)
	if !ok {
		return
	}
	s.append(window, val)
}

// defer_ parks a window whose persist barrier failed; publishDeferred moves
// the parked set onto the stream after the next successful barrier.
func (s *stream) defer_(window string) {
	s.mu.Lock()
	s.deferred = append(s.deferred, window)
	s.mu.Unlock()
}

func (s *stream) publishDeferred() {
	s.mu.Lock()
	parked := s.deferred
	s.deferred = nil
	s.mu.Unlock()
	for _, w := range parked {
		s.publish(w)
	}
}

// since returns the entries at positions >= cursor, the next cursor, and a
// channel that closes when anything further is appended.
func (s *stream) since(cursor int) ([]streamEntry, int, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cursor < 0 {
		cursor = 0
	}
	if cursor > len(s.entries) {
		cursor = len(s.entries)
	}
	return s.entries[cursor:], len(s.entries), s.sig
}

func (s *stream) counts() (entries, subscribers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries), s.subs
}

func (s *stream) addSub(d int) {
	s.mu.Lock()
	s.subs += d
	s.mu.Unlock()
}

// handleFindingsStream serves GET /v1/findings: without ?watch=1, a JSON
// page of durable findings from ?cursor=N plus the next cursor; with it, an
// SSE stream that replays from the cursor and then follows new durable
// findings until the client disconnects or the server shuts down.
func (s *Server) handleFindingsStream(w http.ResponseWriter, r *http.Request) {
	cursor := 0
	if c := r.URL.Query().Get("cursor"); c != "" {
		n, err := strconv.Atoi(c)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad cursor %q", c)
			return
		}
		cursor = n
	}
	if r.URL.Query().Get("watch") == "" {
		entries, next, _ := s.strm.since(cursor)
		findings := make([]json.RawMessage, 0, len(entries))
		for _, e := range entries {
			findings = append(findings, json.RawMessage(e.data()))
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"cursor":      cursor,
			"next_cursor": next,
			"findings":    findings,
		})
		return
	}

	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	s.strm.addSub(1)
	defer s.strm.addSub(-1)
	heartbeat := time.NewTicker(streamHeartbeat)
	defer heartbeat.Stop()
	for {
		entries, next, sig := s.strm.since(cursor)
		for i, e := range entries {
			fmt.Fprintf(w, "event: finding\nid: %d\ndata: %s\n\n", cursor+i+1, e.data())
		}
		if len(entries) > 0 {
			cursor = next
			fl.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			// Server shutting down: one final drain below, then close the
			// stream so subscribers reconnect to the successor.
			entries, _, _ := s.strm.since(cursor)
			for i, e := range entries {
				fmt.Fprintf(w, "event: finding\nid: %d\ndata: %s\n\n", cursor+i+1, e.data())
			}
			fl.Flush()
			return
		case <-sig:
		case <-heartbeat.C:
			fmt.Fprintf(w, ": heartbeat\n\n")
			fl.Flush()
		}
	}
}
