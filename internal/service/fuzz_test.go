package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/alive"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/wasm"
)

// fuzzMaxBody is the fuzz server's body limit: small, so an oversized seed
// stays cheap to mutate.
const fuzzMaxBody = 4 << 10

// submitContentTypes are the Content-Type headers a fuzz input picks from
// by its kind byte: the JSON, raw .ll and wasm paths of POST /v1/windows.
var submitContentTypes = []string{"application/json", "text/plain", "application/wasm"}

// FuzzSubmitBody sends arbitrary bodies to POST /v1/windows (without
// ?wait) through Handler(), as JSON, raw .ll or wasm. Whatever the bytes,
// the reply must not be a 500 — the recovery middleware's answer to a
// panic — and its body must be valid JSON.
func FuzzSubmitBody(f *testing.F) {
	single, _ := json.Marshal(submitRequest{IR: knownWindow})
	batch, _ := json.Marshal(submitRequest{IR: knownWindow, Windows: extraWindows})
	oversized := []byte(strings.Repeat(" ", fuzzMaxBody+1))
	seeds := [][]byte{
		single, batch, nil, oversized,
		[]byte(knownWindow),
		[]byte(strings.Join(extraWindows, "\n")),
		[]byte(`{"windows": ["define"]}`),
	}
	for _, fx := range wasm.Fixtures() {
		seeds = append(seeds, fx.Data)
	}
	for _, body := range seeds {
		for kind := range submitContentTypes {
			f.Add(uint8(kind), body)
		}
	}

	st, err := store.Open(f.TempDir(), store.Options{})
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{
		Store:        st,
		Seed:         1,
		MaxBodyBytes: fuzzMaxBody,
		Engine: engine.Config{
			Workers:   1,
			QueueSize: 1,
			Verify:    alive.Options{Samples: 64, Seed: 3},
		},
	})
	if err != nil {
		st.Close()
		f.Fatal(err)
	}
	f.Cleanup(func() {
		if err := srv.Close(); err != nil {
			f.Errorf("server close: %v", err)
		}
		if err := st.Close(); err != nil {
			f.Errorf("store close: %v", err)
		}
	})
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/windows", bytes.NewReader(body))
		req.Header.Set("Content-Type", submitContentTypes[int(kind)%len(submitContentTypes)])
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("500 reply: %s", rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("reply %d is not valid JSON: %q", rec.Code, rec.Body.Bytes())
		}
	})
}
