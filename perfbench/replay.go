package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/wasm"
)

const (
	// replayWindows is the size of the generated part of the replay set.
	replayWindows = 600
	// mixLen is the length of the recorded request mix; clients cycle it.
	mixLen = 1 << 16
	// wasmEvery puts one wasm fixture POST in every wasmEvery requests; the
	// rest alternate resubmits and finding reads.
	wasmEvery = 25
)

// replayOp is one request of the recorded mix.
type replayOp struct {
	kind byte // 's' resubmit a window, 'g' GET its finding, 'w' POST a wasm fixture
	idx  int
}

// recordMix draws the replay request mix from the seed.
func recordMix(seed uint64, nWindows, nFixtures int) []replayOp {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	mix := make([]replayOp, mixLen)
	for i := range mix {
		switch {
		case i%wasmEvery == 0:
			mix[i] = replayOp{kind: 'w', idx: rng.Intn(nFixtures)}
		case i%2 == 1:
			mix[i] = replayOp{kind: 's', idx: rng.Intn(nWindows)}
		default:
			mix[i] = replayOp{kind: 'g', idx: rng.Intn(nWindows)}
		}
	}
	return mix
}

// replaySet is a populated store and what it served before the restart.
type replaySet struct {
	dir      string
	windows  []window
	fixtures []wasm.Fixture
	served   map[string][]byte // window key -> finding bytes served before the restart
	findings int
	found    int
	rules    int
}

// runReplay measures the read and restart path: the store is populated
// untimed, the daemon restarted on it, and the clients replay a recorded
// mix of cached resubmits, finding reads and wasm fixture POSTs that must
// all be answered from the store.
func runReplay(cfg config) (*outcome, error) {
	out := &outcome{}
	work, err := workDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	rs, err := populate(cfg.seed, filepath.Join(work, "store"))
	if err != nil {
		return nil, err
	}
	out.note("replay set: %d windows + %d wasm fixtures, %d findings stored (%d found, %d rules)",
		len(rs.windows), len(rs.fixtures), rs.findings, rs.found, rs.rules)
	out.set("det.found", float64(rs.found), "count")
	out.set("det.rules", float64(rs.rules), "count")
	mix := recordMix(cfg.seed, len(rs.windows), len(rs.fixtures))
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		p, err := replayPhase(out, rs, mix, dur, nil)
		if err != nil {
			return nil, err
		}
		p.reportE2E(out)
	} else {
		plain, err := replayPhase(out, rs, mix, dur/2, nil)
		if err != nil {
			return nil, err
		}
		_, err = replayPhase(out, rs, mix, dur/2, func(d *daemon, p *phase) {
			reportTrace(out, d, plain, p, false)
		})
		if err != nil {
			return nil, err
		}
	}
	out.set("peak_rss_mb", peakRSSMB(), "MiB")
	return out, nil
}

// populate ingests the replay set into a fresh store in dir and records the
// bytes every stored finding is served as.
func populate(seed uint64, dir string) (*replaySet, error) {
	rs := &replaySet{dir: dir, fixtures: wasm.Fixtures(), served: make(map[string][]byte)}
	rs.windows = generateWindows(seed, replayWindows)
	d, _, err := startDaemon(dir, false)
	if err != nil {
		return nil, err
	}
	c := newClient(d.url)
	defer c.close()
	ops := closedLoop(0, len(rs.windows), func(i int) opResult {
		code, sts, err := c.submit("text/plain", []byte(rs.windows[i].text))
		return opResult{ok: err == nil && code == http.StatusOK && statusesOK(sts, "queued")}
	})
	if len(ops.failed) > 0 {
		d.stop()
		return nil, fmt.Errorf("populating the replay store: %d submits failed (windows %v)", len(ops.failed), ops.failed)
	}
	// A module lifts to several windows at once, which the daemon may shed
	// with 429 while its queue is full; retry those, one module at a time.
	for _, fx := range rs.fixtures {
		for try := 0; ; try++ {
			code, sts, err := c.submit("application/wasm", fx.Data)
			if err == nil && code == http.StatusOK && statusesOK(sts, "queued", "pending") {
				break
			}
			if code != http.StatusTooManyRequests || try == 100 {
				d.stop()
				return nil, fmt.Errorf("populating the replay store: submitting %s: %d %v", fx.Name, code, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for _, w := range rs.windows {
		k := store.WindowKey(w.hash)
		code, data, err := c.do(http.MethodGet, "/v1/findings/"+k, "", nil)
		if err != nil || code != http.StatusOK {
			d.stop()
			return nil, fmt.Errorf("reading back finding %s: %d %v", k, code, err)
		}
		rs.served[k] = data
	}
	st, err := c.stats()
	if err != nil {
		d.stop()
		return nil, err
	}
	rs.findings = st.Store.Findings
	rs.found = st.Engine.Outcomes[string(engine.Found)]
	rs.rules = st.Store.Rules
	return rs, d.stop()
}

// statusesOK reports whether every non-skipped status is one of want.
func statusesOK(sts []windowStatus, want ...string) bool {
	if len(sts) == 0 {
		return false
	}
	for _, s := range sts {
		if s.Status == "skipped" {
			continue
		}
		hit := false
		for _, w := range want {
			hit = hit || s.Status == w
		}
		if !hit {
			return false
		}
	}
	return true
}

// replayPhase restarts the daemon on the populated store and replays the
// mix for dur. Every reply is checked against what the store served before
// the restart, and the phase must leave the engine and the store's commit
// log untouched.
func replayPhase(out *outcome, rs *replaySet, mix []replayOp, dur time.Duration, traced func(*daemon, *phase)) (*phase, error) {
	d, setups, err := setUp(rs.dir, false, traced != nil)
	if err != nil {
		return nil, err
	}
	c := newClient(d.url)
	defer c.close()
	p := &phase{setups: setups}
	if p.before, err = c.stats(); err != nil {
		return nil, err
	}
	p.run(out, dur, math.MaxInt32, func(i int) opResult {
		op := mix[i%len(mix)]
		switch op.kind {
		case 'g':
			key := store.WindowKey(rs.windows[op.idx].hash)
			code, data, err := c.do(http.MethodGet, "/v1/findings/"+key, "", nil)
			return opResult{ok: err == nil && code == http.StatusOK && bytes.Equal(data, rs.served[key])}
		case 's':
			code, sts, err := c.submit("text/plain", []byte(rs.windows[op.idx].text))
			n := countStatus(sts, "cached")
			return opResult{ok: err == nil && code == http.StatusOK && n == 1 && len(sts) == 1,
				rejected: code == http.StatusTooManyRequests, cached: n, windows: len(sts)}
		default:
			code, sts, err := c.submit("application/wasm", rs.fixtures[op.idx].Data)
			return opResult{ok: err == nil && code == http.StatusOK && statusesOK(sts, "cached"),
				rejected: code == http.StatusTooManyRequests,
				cached:   countStatus(sts, "cached"),
				windows:  len(sts) - countStatus(sts, "skipped")}
		}
	})
	if p.after, err = c.stats(); err != nil {
		return nil, err
	}
	if traced != nil {
		traced(d, p)
	}
	out.set("service.cached_ratio", ratio(float64(p.cached), float64(p.windows)), "ratio")
	if n := len(p.failed); n > 0 {
		// Each failed replay op is a failed check, already counted as failed.
		out.checkFailures += n
		out.note("CHECK FAILED: %d of %d replayed requests were not served as before the restart", n, p.issued)
	}
	out.check(p.after.Engine.Sequences == 0, "engine ran %d sequences during replay", p.after.Engine.Sequences)
	out.check(p.after.Store.Commits == p.before.Store.Commits && p.after.Store.PutNew == p.before.Store.PutNew,
		"store committed during replay: commits %d -> %d, new records %d -> %d",
		p.before.Store.Commits, p.after.Store.Commits, p.before.Store.PutNew, p.after.Store.PutNew)
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping daemon: %w", err)
	}
	return p, p.setUpAgain(rs.dir, false)
}

// countStatus counts the statuses equal to want.
func countStatus(sts []windowStatus, want string) int {
	n := 0
	for _, s := range sts {
		if s.Status == want {
			n++
		}
	}
	return n
}
