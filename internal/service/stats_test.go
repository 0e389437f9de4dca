package service

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"
)

// statsWireKeys is every key GET /v1/stats has served, with the JSON kind
// of its value. Clients (the perfbench harness, the CI smokes, dashboards)
// decode these names, so a key may be added but never renamed, dropped or
// retyped. Keys tagged omitempty (engine.quarantined, engine.lift.reasons)
// are absent from an idle daemon's reply and are not listed.
var statsWireKeys = map[string]string{
	"engine":                    "object",
	"engine.sequences":          "number",
	"engine.outcomes":           "object",
	"engine.verify_execs":       "number",
	"engine.batched_execs":      "number",
	"engine.verify_cache_hits":  "number",
	"engine.store_hits":         "number",
	"engine.learned_findings":   "number",
	"engine.panics":             "number",
	"engine.tier_kills":         "object",
	"engine.tier_kills.pool":    "number",
	"engine.tier_kills.special": "number",
	"engine.tier_kills.random":  "number",
	"engine.lift":               "object",
	"engine.lift.funcs":         "number",
	"engine.lift.lifted":        "number",
	"engine.lift.skipped":       "number",

	"store":                 "object",
	"store.records":         "number",
	"store.findings":        "number",
	"store.rules":           "number",
	"store.vectors":         "number",
	"store.bytes":           "number",
	"store.put_new":         "number",
	"store.put_dup":         "number",
	"store.get_hits":        "number",
	"store.get_misses":      "number",
	"store.recovered_bytes": "number",
	"store.pending":         "number",
	"store.commit_fails":    "number",
	"store.commits":         "number",
	"store.compactions":     "number",
	"store.shards":          "number",

	"pool":           "object",
	"pool.windows":   "number",
	"pool.vectors":   "number",
	"pool.deposits":  "number",
	"pool.dups":      "number",
	"pool.loaded":    "number",
	"pool.evictions": "number",

	"server":                    "object",
	"server.submitted":          "number",
	"server.persisted":          "number",
	"server.inflight":           "number",
	"server.loaded_vectors":     "number",
	"server.degraded":           "bool",
	"server.degraded_accepts":   "number",
	"server.stream_findings":    "number",
	"server.stream_subscribers": "number",
}

// jsonKind names the kind of a value decoded by encoding/json into any.
func jsonKind(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case bool:
		return "bool"
	case float64:
		return "number"
	case string:
		return "string"
	case []any:
		return "array"
	case map[string]any:
		return "object"
	}
	return "unknown"
}

// flattenJSON records every key of an object tree under its dotted path.
func flattenJSON(prefix string, obj map[string]any, out map[string]any) {
	for k, v := range obj {
		path := k
		if prefix != "" {
			path = prefix + "." + k
		}
		out[path] = v
		if m, ok := v.(map[string]any); ok {
			flattenJSON(path, m, out)
		}
	}
}

func getStatsRaw(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", resp.StatusCode)
	}
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	flat := make(map[string]any)
	flattenJSON("", raw, flat)
	return flat
}

func checkStatsWire(t *testing.T, flat map[string]any) {
	t.Helper()
	var bad []string
	for key, kind := range statsWireKeys {
		v, ok := flat[key]
		switch {
		case !ok:
			bad = append(bad, key+": missing")
		case jsonKind(v) != kind:
			bad = append(bad, key+": "+jsonKind(v)+", want "+kind)
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Fatalf("/v1/stats broke its wire format:\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestStatsWireCompat pins the /v1/stats wire format: every key a client
// may decode keeps its name and JSON kind, on an idle daemon (where the
// outcome tally must still be an object, not null) and after a campaign.
func TestStatsWireCompat(t *testing.T) {
	_, hs, _ := newServerT(t, t.TempDir())

	idle := getStatsRaw(t, hs.URL)
	checkStatsWire(t, idle)
	if n := len(idle["engine.outcomes"].(map[string]any)); n != 0 {
		t.Fatalf("idle daemon reports %d outcomes", n)
	}

	windows := postWindows(t, hs.URL, append([]string{knownWindow}, extraWindows...)...)
	for _, w := range windows {
		waitFinding(t, hs.URL, w["window"])
	}
	busy := getStatsRaw(t, hs.URL)
	checkStatsWire(t, busy)
	if busy["engine.sequences"].(float64) == 0 || busy["store.findings"].(float64) == 0 {
		t.Fatalf("campaign not reflected in /v1/stats: sequences %v, findings %v",
			busy["engine.sequences"], busy["store.findings"])
	}
	if len(busy["engine.outcomes"].(map[string]any)) == 0 {
		t.Fatal("campaign reported no outcomes")
	}
}
