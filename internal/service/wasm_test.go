package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/wasm"
)

// postWasm submits a raw wasm binary to /v1/windows and returns the
// per-window statuses.
func postWasm(t *testing.T, base string, data []byte) []map[string]string {
	t.Helper()
	resp, err := http.Post(base+"/v1/windows", "application/wasm", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/windows (wasm): %d", resp.StatusCode)
	}
	var reply struct {
		Windows []map[string]string `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	return reply.Windows
}

// TestServiceWasmSubmit is the wasm half of the ISSUE's acceptance test:
// submit raw .wasm binaries over HTTP, watch findings appear, restart the
// daemon on the same store, and require the resubmission to be served from
// disk byte-identically.
func TestServiceWasmSubmit(t *testing.T) {
	dir := t.TempDir()
	fixtures := wasm.Fixtures()

	_, hs1, stop1 := newServerT(t, dir)
	findings1 := make(map[string][]byte)
	var queued, skipped int
	for _, fx := range fixtures {
		for _, ws := range postWasm(t, hs1.URL, fx.Data) {
			switch ws["status"] {
			case "queued":
				queued++
				findings1[ws["window"]] = waitFinding(t, hs1.URL, ws["window"])
			case "skipped":
				skipped++
			default:
				t.Fatalf("fixture %s: unexpected first-run status %+v", fx.Name, ws)
			}
		}
	}
	if queued == 0 {
		t.Fatal("no wasm function was lifted and queued")
	}
	if skipped == 0 {
		t.Fatal("the mixed fixture should produce skipped functions")
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
		t.Fatal("no verified finding from the wasm corpus; the planted windows should be Found")
	}
	stats1 := getStats(t, hs1.URL)
	if stats1.Engine.Lift.Funcs == 0 || stats1.Engine.Lift.Lifted != queued || stats1.Engine.Lift.Skipped != skipped {
		t.Fatalf("lift coverage %+v does not match statuses (queued %d, skipped %d)",
			stats1.Engine.Lift, queued, skipped)
	}
	if len(stats1.Engine.Lift.Reasons) == 0 {
		t.Fatal("lift coverage recorded no skip reasons")
	}
	stop1()

	// Second daemon, same store: the same binaries resolve from disk with
	// byte-identical finding bodies.
	_, hs2, _ := newServerT(t, dir)
	for _, fx := range fixtures {
		for _, ws := range postWasm(t, hs2.URL, fx.Data) {
			if ws["status"] == "skipped" {
				continue
			}
			if ws["status"] != "cached" {
				t.Fatalf("fixture %s: resubmission not served from store: %+v", fx.Name, ws)
			}
			if data := waitFinding(t, hs2.URL, ws["window"]); !bytes.Equal(data, findings1[ws["window"]]) {
				t.Fatalf("finding %s changed across restart", ws["window"])
			}
		}
	}
	if stats2 := getStats(t, hs2.URL); stats2.Engine.Sequences != 0 {
		t.Fatalf("restart run pushed %d sequences through the engine", stats2.Engine.Sequences)
	}
}

// TestServiceWasmBadModule rejects a malformed binary without touching the
// engine.
func TestServiceWasmBadModule(t *testing.T) {
	_, hs, _ := newServerT(t, t.TempDir())
	resp, err := http.Post(hs.URL+"/v1/windows", "application/wasm",
		bytes.NewReader([]byte{0x00, 0x61, 0x73, 0x6D, 0x01}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed wasm: got %d, want 400", resp.StatusCode)
	}
	if stats := getStats(t, hs.URL); stats.Server.Submitted != 0 {
		t.Fatalf("malformed wasm reached the engine: %+v", stats.Server)
	}
}
