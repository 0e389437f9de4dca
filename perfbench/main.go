// Command perfbench is the repository's end-to-end benchmark. It drives the
// discovery system only through its public packages — the campaign loop the
// way cmd/lpo wires it, and the lpod daemon the way cmd/lpod builds it,
// served over a loopback HTTP listener — and times it from outside.
//
//	perfbench --workload campaign|lpod_ingest|lpod_replay --seed N --seconds S --trace 0|1
//
// Every input is generated from --seed before timing starts. With --trace 0
// the run measures the end-to-end metrics with no instrumentation in the
// path; with --trace 1 it splits the time between plain work and work with
// timing wrappers at the public seams (llm.Client, engine.Source,
// store.Backend, the HTTP handler), and reports the per-layer metrics, each
// layer's share of the busy time and the tracing overhead. Outputs are
// checked for correctness outside the timed phase. The report goes to
// stdout; its last line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// run.sh builds the command from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produces: the op tally, the correctness
// verdict, and every metric the run measured.
type outcome struct {
	attempted, failed int
	// checkFailures counts failed correctness checks (also in failed).
	checkFailures int
	metrics       map[string]metric
	// notes are report lines printed above the metric table.
	notes []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// check records one correctness check; a failed check counts as a failed op.
func (o *outcome) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	o.checkFailures++
	o.failed++
	if o.checkFailures <= 5 {
		o.note("CHECK FAILED: "+format, args...)
	}
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"campaign":    runCampaign,
	"lpod_ingest": runIngest,
	"lpod_replay": runReplay,
}

// e2eMetrics are the end-to-end metrics the JSON line carries with --trace 0.
var e2eMetrics = []string{"ops_per_s", "latency_p50_ms", "latency_p99_ms", "setup_s", "alloc_kb_per_op", "peak_rss_mb"}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "campaign, lpod_ingest or lpod_replay")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload campaign|lpod_ingest|lpod_replay --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	report(cfg, out)
}

// report prints the human-readable table and, last, the JSON result line.
func report(cfg config, out *outcome) {
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Printf("  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("  %-32s %14.6g %s  (%d failed of %d attempted)\n", "error_rate", errRate, "ratio", out.failed, out.attempted)

	sel := make(map[string]metric)
	if cfg.trace {
		for _, m := range perLayer {
			sel[m.name] = metric{Value: out.metrics[m.name].Value, Unit: m.unit}
		}
	} else {
		for _, n := range e2eMetrics {
			sel[n] = out.metrics[n]
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.checkFailures == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   sel,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
