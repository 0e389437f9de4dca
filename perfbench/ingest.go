package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

const (
	// ingestRate is how many distinct windows an lpod_ingest run generates
	// per second of its timed phase; a run that uses them all up ends its
	// timed phase early.
	ingestRate = 2000
	// detPrefix is how many leading windows the deterministic counts of
	// lpod_ingest cover: they are always acknowledged, whatever the timing.
	detPrefix = 200
)

// runIngest measures the write path: every op POSTs one novel window with
// ?wait=1 to a fresh store and succeeds when the daemon acknowledges it
// durable.
func runIngest(cfg config) (*outcome, error) {
	out := &outcome{}
	ws := generateWindows(cfg.seed, int(cfg.seconds*ingestRate))
	work, err := workDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		p, err := ingestPhase(out, filepath.Join(work, "plain"), ws, dur, nil)
		if err != nil {
			return nil, err
		}
		p.reportE2E(out)
	} else {
		plain, err := ingestPhase(out, filepath.Join(work, "plain"), ws, dur/2, nil)
		if err != nil {
			return nil, err
		}
		_, err = ingestPhase(out, filepath.Join(work, "traced"), ws, dur/2, func(d *daemon, p *phase) {
			reportTrace(out, d, plain, p, true)
		})
		if err != nil {
			return nil, err
		}
	}
	out.set("peak_rss_mb", peakRSSMB(), "MiB")
	return out, nil
}

// ingestPhase sets a daemon up on an empty store, ingests windows for dur,
// and checks that every acknowledged window reads back. A non-nil traced
// runs a traced daemon and is called right after the timed phase, before
// the checks add traffic of their own.
func ingestPhase(out *outcome, dir string, ws []window, dur time.Duration, traced func(*daemon, *phase)) (*phase, error) {
	d, setups, err := setUp(dir, true, traced != nil)
	if err != nil {
		return nil, err
	}
	c := newClient(d.url)
	defer c.close()
	p := &phase{setups: setups}
	p.run(out, dur, len(ws), func(i int) opResult {
		code, sts, err := c.submit("text/plain", []byte(ws[i].text))
		ok := err == nil && code == http.StatusOK && len(sts) == 1 &&
			sts[0].Status == "queued" && sts[0].Window == store.WindowKey(ws[i].hash)
		return opResult{ok: ok, rejected: code == http.StatusTooManyRequests}
	})
	if p.after, err = c.stats(); err != nil {
		return nil, err
	}
	if traced != nil {
		traced(d, p)
	}
	if p.issued == len(ws) {
		out.note("all %d generated windows ingested before the time was up", len(ws))
	}

	// Every acknowledged window must read back as its stored finding.
	nack := make(map[int32]bool, len(p.failed))
	for _, i := range p.failed {
		nack[i] = true
	}
	var acked []int32
	for i := int32(0); int(i) < p.issued; i++ {
		if !nack[i] {
			acked = append(acked, i)
		}
	}
	outcomes := make([]string, len(ws))
	learned := make([]bool, len(ws))
	reads := closedLoop(0, len(acked), func(k int) opResult {
		i := int(acked[k])
		key := store.WindowKey(ws[i].hash)
		code, data, err := c.do(http.MethodGet, "/v1/findings/"+key, "", nil)
		var f store.Finding
		if err != nil || code != http.StatusOK || json.Unmarshal(data, &f) != nil || f.Window != key {
			return opResult{}
		}
		outcomes[i], learned[i] = f.Outcome, f.LearnedID != ""
		return opResult{ok: !failedOutcome(f.Outcome)}
	})
	for _, k := range reads.failed {
		out.check(false, "acknowledged window %016x does not read back as a finding", ws[acked[k]].hash)
	}
	found, plantedFound, planted := 0, 0, 0
	for _, k := range acked {
		i := int(k)
		if outcomes[i] == string(engine.Found) {
			found++
			if ws[i].planted {
				plantedFound++
			}
		}
		if ws[i].planted {
			planted++
		}
	}
	out.note("%d windows acknowledged: found share %.3f (%d found; %d of %d planted windows found)",
		len(acked), ratio(float64(found), float64(len(acked))), found, plantedFound, planted)
	detFound, detRules := 0, 0
	for i := 0; i < min(detPrefix, len(ws)); i++ {
		if outcomes[i] == string(engine.Found) {
			detFound++
		}
		if learned[i] {
			detRules++
		}
	}
	out.set("det.found", float64(detFound), "count")
	out.set("det.rules", float64(detRules), "count")
	a := p.after
	out.check(a.Server.DegradedAccepts == 0 && a.Engine.Panics == 0 && a.Engine.DegradedSeqs == 0,
		"daemon degraded: %d degraded accepts, %d panics, %d degraded sequences",
		a.Server.DegradedAccepts, a.Engine.Panics, a.Engine.DegradedSeqs)
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping daemon: %w", err)
	}
	return p, p.setUpAgain(dir, true)
}
