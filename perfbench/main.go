// Command perfbench is the DiCE benchmark. It runs three workloads, each
// centred on a different group of layers, and reports their end-to-end
// metrics (or, with --trace 1, per-layer metrics and a Chrome trace):
//
//	online-fig2        live update path of a table-scale router while a
//	                   DiCE explorer checkpoints it every 250 ms (router,
//	                   rib, bgp, netsim; exploration nearly idle)
//	federated-as200    cold federated rounds on a generated 200-AS fabric
//	                   (concolic, solver, core oracles)
//	distributed-as200  the same kind of round over the wire protocol to
//	                   200 in-memory agents (dist codec, client, relay)
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload online-fig2 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 1
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (name → value and unit). Every operation
// whose output check fails counts as failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dice/internal/telemetry"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every untraced run reports. The operation is
// a live update on online-fig2 and a federated round on the round
// workloads; an exploration round is DiCE's checkpoint + explore +
// oracle cycle on online-fig2 and the federated round elsewhere. So on
// the round workloads op_p50_ms and round_p50_ms are one number, and on
// distributed-as200, whose runs hold about twenty rounds, the tail rule
// falls back to p50 and op_tail_ms is that number too.
var endToEnd = []metricSpec{
	{"setup_s", "s"},             // median set-up of the run's set-ups
	{"live_heap_mb", "MB"},       // heap in use after set-up and a forced GC
	{"op_p50_ms", "ms"},          // update_p50_ms / round_p50_ms
	{"op_tail_ms", "ms"},         // update_p99_ms / round_tail_ms
	{"round_p50_ms", "ms"},       // explore_round_p50_ms / round_p50_ms
	{"alloc_mb_per_round", "MB"}, // heap allocation per exploration round
}

// perLayer are the metrics every traced run reports. A layer a workload
// does not drive reads 0. A _tail metric is the highest percentile with
// at least ten samples beyond it; the run's report says which.
var perLayer = []metricSpec{
	// Live write path (online-fig2).
	{"router.clone_ms_p50", "ms"}, // explorer's state-lock hold per round
	{"router.clone_ms_tail", "ms"},
	{"router.lock_wait_us_tail", "us"}, // generator's wait for the state lock
	{"bgp.send_update_us_p50", "us"},
	{"netsim.run_us_p50", "us"},
	{"bench.generator_late_ms_p99", "ms"},
	// Set-up split, medians over the run's set-ups.
	{"core.table_load_s", "s"},
	{"topo.generate_s", "s"},
	{"core.build_s", "s"},
	{"dist.connect_s", "s"},
	// Round phases, medians per round (federated-as200 driven phase by
	// phase; online-fig2 reports the engine's own explore time).
	{"core.prepare_ms", "ms"},
	{"concolic.explore_ms", "ms"},
	{"core.analyze_ms", "ms"},
	{"core.check_witness_ms", "ms"},
	// Exploration and oracle work, means per round.
	{"concolic.runs", "count"},
	{"concolic.paths", "count"},
	{"concolic.useful_ratio", "ratio"},
	{"solver.calls", "count"},
	{"solver.sat_ratio", "ratio"},
	{"solver.cache_hit_ratio", "ratio"},
	{"core.findings", "count"},
	{"core.witnesses", "count"},
	{"core.propagation_steps", "count"},
	{"core.violations", "count"},
	// Wire protocol (distributed-as200), per round.
	{"dist.calls.explore", "count"},
	{"dist.calls.inject_witness_batch", "count"},
	{"dist.calls.query_oracle", "count"},
	{"dist.calls.shadow_open", "count"},
	{"dist.calls.shadow_close", "count"},
	{"dist.rpc_ms.explore", "ms"},
	{"dist.rpc_ms.inject_witness_batch", "ms"},
	{"dist.rpc_ms.query_oracle", "ms"},
	{"dist.rpc_ms.shadow_open", "ms"},
	{"dist.rpc_ms.shadow_close", "ms"},
	{"dist.wire_bytes_per_round", "B"},
	// Runtime, over the timed phase.
	{"runtime.gc_cpu_share", "ratio"},
	// The traced run's own end-to-end numbers; set beside an untraced
	// run they show what tracing costs. On federated-as200 a traced round
	// is driven phase by phase (phasedRound), so there they also hold the
	// difference between that driver and FederatedExperiment.Round.
	{"traced.setup_s", "s"},
	{"traced.live_heap_mb", "MB"},
	{"traced.op_p50_ms", "ms"},
	{"traced.op_tail_ms", "ms"},
	{"traced.round_p50_ms", "ms"},
	{"traced.alloc_mb_per_round", "MB"},
}

// options is one run's command line.
type options struct {
	seed     int64
	duration time.Duration
	trace    bool
	tracer   *telemetry.Tracer // nil unless trace
}

// outcome is what one workload run measured.
type outcome struct {
	tally
	e2e    map[string]float64
	layer  map[string]float64
	report []string // human-readable lines, with the workload's own metric names
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) printf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// workload is one named benchmark scenario; BENCHMARK.json says why
// each was chosen.
type workload struct {
	name string
	run  func(options) (*outcome, error)
}

var workloads = []workload{
	{"online-fig2", runOnline},
	{"federated-as200", runFederated},
	{"distributed-as200", runDistributed},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// errMissingMetric flags an end-to-end metric a workload did not set;
// those are never legitimately 0.
var errMissingMetric = errors.New("end-to-end metric not measured")

// resultFor builds the result line: the end-to-end metrics, or the
// per-layer ones for a traced run.
func resultFor(o *outcome, traced bool) (result, error) {
	res := result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if traced {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{o.layer[m.name], m.unit}
		}
		return res, nil
	}
	for _, m := range endToEnd {
		v, ok := o.e2e[m.name]
		if !ok || v == 0 {
			return res, fmt.Errorf("%w: %s", errMissingMetric, m.name)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	return res, nil
}

// outDir is where build products and traces go, inside the checkout.
func outDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: fabric generator and update trace")
	seconds := fs.Float64("seconds", 20, "measured seconds per workload")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opts := options{seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), trace: *traceFlag == 1}

	if *name == "all" {
		return runAll(opts, stdout, stderr)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if opts.trace {
		opts.tracer = telemetry.NewTracer()
	}
	o, err := w.run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if opts.trace {
		if err := writeTrace(o, w.name, opts.tracer); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	printReport(stdout, w.name, o, opts.trace)
	res, err := resultFor(o, opts.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed: %v\n", w.name, o.failed, o.attempted, o.firstErr)
		return 1
	}
	return 0
}

// runAll runs every workload in this process and prints their metrics;
// with tracing on, each workload also runs traced, beside the untraced
// run, so the tracing overhead shows. The last line merges the runs,
// metric names prefixed by workload. Any failed check makes the exit
// code non-zero.
func runAll(opts options, stdout, stderr io.Writer) int {
	merged := result{Correct: true, Metrics: map[string]metricValue{}}
	collect := func(name string, o *outcome, traced bool) bool {
		res, err := resultFor(o, traced)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return false
		}
		printReport(stdout, name, o, traced)
		for k, v := range res.Metrics {
			merged.Metrics[name+"."+k] = v
		}
		merged.Attempted += o.attempted
		merged.Failed += o.failed
		if !res.Correct {
			merged.Correct = false
			fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed: %v\n", name, o.failed, o.attempted, o.firstErr)
		}
		return true
	}
	for _, w := range workloads {
		fmt.Fprintf(stderr, "perfbench: running %s\n", w.name)
		plain := opts
		plain.trace, plain.tracer = false, nil
		o, err := w.run(plain)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if !collect(w.name, o, false) {
			return 1
		}
		if !opts.trace {
			continue
		}
		traced := opts
		traced.tracer = telemetry.NewTracer()
		to, err := w.run(traced)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", w.name, err)
			return 1
		}
		if err := writeTrace(to, w.name, traced.tracer); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		for _, m := range endToEnd {
			t := to.layer["traced."+m.name]
			to.printf("tracing overhead %-20s untraced %10.4f  traced %10.4f %s (%+.1f%%)",
				m.name, o.e2e[m.name], t, m.unit, 100*(t/o.e2e[m.name]-1))
		}
		if !collect(w.name+"+trace", to, true) {
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(merged); err != nil {
		return 1
	}
	if !merged.Correct {
		return 1
	}
	return 0
}

// printReport writes a workload's human-readable block: its own lines,
// then every metric of the run by name and unit.
func printReport(w io.Writer, name string, o *outcome, traced bool) {
	fmt.Fprintf(w, "== %s: %d operations attempted, %d failed\n", name, o.attempted, o.failed)
	for _, l := range o.report {
		fmt.Fprintln(w, "  "+l)
	}
	specs := endToEnd
	vals := o.e2e
	if traced {
		specs, vals = perLayer, o.layer
	}
	for _, m := range specs {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
}

// writeTrace writes a traced run's spans as a Chrome trace under the
// build directory and notes where in the run's report.
func writeTrace(o *outcome, workload string, tr *telemetry.Tracer) error {
	path := filepath.Join(outDir(), "perfbench", "trace-"+workload+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	o.printf("chrome trace: %s (%d spans)", path, tr.Len())
	return nil
}
