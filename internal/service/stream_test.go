package service

import "testing"

// TestStreamEntryFraming pins the SSE data payload of each kind of stored
// finding — compact, indented (as Finding.Encode writes them) and invalid
// JSON — and that the log shares the stored bytes rather than copying them.
func TestStreamEntryFraming(t *testing.T) {
	s := &stream{seen: make(map[string]bool), sig: make(chan struct{})}
	indented := []byte("{\n  \"outcome\": \"found\",\n  \"n\": 1\n}\n")
	for _, c := range []struct {
		window string
		val    []byte
		want   string
	}{
		{"k1", indented, `{"window":"k1","finding":{"outcome":"found","n":1}}`},
		{"k2", []byte(`{"outcome":"found","n":1}`), `{"window":"k2","finding":{"outcome":"found","n":1}}`},
		{"k3", []byte(`{oops`), `{"window":"k3"}`},
	} {
		s.append(c.window, c.val)
		e := s.entries[len(s.entries)-1]
		if got := string(e.data()); got != c.want {
			t.Errorf("%s: payload %s, want %s", c.window, got, c.want)
		}
	}
	if f := s.entries[0].finding; &f[0] != &indented[0] {
		t.Error("the stream copies a finding instead of sharing the stored bytes")
	}
	s.append("k1", []byte(`{"other":true}`))
	if len(s.entries) != 3 {
		t.Errorf("re-appending a window grew the log to %d entries", len(s.entries))
	}
}
