// Command perfbench is the repository's benchmark: one command that runs
// a named workload against the public packages of the PCAPS reproduction
// (internal/sim, sched, workload, experiments, carbonapi, placement),
// checks the workload's outputs, and prints every metric with its unit.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload stream-pcaps --seed 7 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set, measured without any timing decorator. With
// --trace 1 the workload runs twice for --seconds each: untraced, then
// with the benchmark's timing decorators around the calls into each
// layer; the metrics are the per-layer set, including the tracing
// overhead between the two runs. Per-layer numbers stay in memory until
// the run ends and are printed next to the untraced end-to-end numbers.
//
// README.md in this directory lists the workloads, the metrics and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is the end-to-end metric set, in BENCHMARK.json order. Every
// workload reports every metric; README.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_heap_mib", "MiB"},
	{"ok_frac", "ratio"},
}

// perLayer is the per-layer metric set, in BENCHMARK.json order. A
// workload that does not drive a layer's decorator reports 0 for it.
var perLayer = append([]metricDef{
	{"sched.pick_calls", "count"},
	{"sched.pick_s", "s"},
	{"sched.pick_ns_mean", "ns"},
	{"sched.defer_ratio", "ratio"},
	{"sim.self_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.peak_inflight", "count"},
	{"sim.mean_inflight", "count"},
	{"sim.recycled_runs", "count"},
	{"sim.deferrals", "count"},
	{"sim.carbon_kg", "kg"},
	{"sim.avg_jct_s", "s"},
	{"sim.p99_jct_s", "s"},
	{"workload.next_calls", "count"},
	{"workload.next_s", "s"},
	{"runtime.alloc_mib", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"experiments.pcaps_co2_red_pct", "%"},
	{"experiments.pcaps_norm_jct", "ratio"},
	{"placement.small.place_us", "us"},
	{"placement.large.place_us", "us"},
	{"sim.small.restore_us", "us"},
	{"sim.large.restore_us", "us"},
	{"carbonapi.small.self_us", "us"},
	{"carbonapi.large.self_us", "us"},
	{"trace.overhead_pct", "%"},
}, artifactMetrics()...)

// runConfig is one measured run of a workload.
type runConfig struct {
	seed    int64
	seconds float64
	// traced wraps the calls into each layer in the benchmark's timing
	// decorators.
	traced bool
}

// outcome is what one run of a workload measured.
type outcome struct {
	attempted, failed int
	// e2e and layers map metric names to values. A per-layer metric a
	// workload does not drive is absent and reads 0.
	e2e    map[string]float64
	layers map[string]float64
	// sim is a canonical rendering of the deterministic simulated
	// outputs; a traced run must reproduce the untraced run's exactly.
	sim string
	// derived lists figures printed for the reader but not part of the
	// JSON metric sets (throughputs, simulated headline numbers).
	derived []derivedFigure
	// walls are the passes' host seconds, printed to show the spread.
	walls []float64
}

type derivedFigure struct {
	name  string
	value float64
	unit  string
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"stream-fifo":     runStreamFIFO,
	"stream-pcaps":    runStreamPCAPS,
	"reproduce":       runReproduce,
	"serve-placement": runServe,
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: stream-fifo, stream-pcaps, reproduce or serve-placement")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	setupOnly := fs.Bool("setup-only", false, "time the reproduce workload's set-up once and print its seconds; the benchmark runs itself so to repeat that set-up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", *name)
	case *seconds <= 0:
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}

	if *setupOnly {
		if *name != "reproduce" {
			return fmt.Errorf("--setup-only applies to the reproduce workload only")
		}
		return printReproduceSetup(*seed, stdout)
	}

	rc := runConfig{seed: *seed, seconds: *seconds}
	plain, err := w(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	res := report{Attempted: plain.attempted, Failed: plain.failed}
	fmt.Fprintf(stdout, "workload %s, seed %d, untraced run\n", *name, *seed)
	printFigures(stdout, endToEnd, plain.e2e, plain.derived)
	fmt.Fprintf(stdout, "  pass wall times (s): %.3f\n", plain.walls)
	if *trace == 0 {
		res.Metrics = pick(endToEnd, plain.e2e)
		return emit(stdout, res)
	}

	rc.traced = true
	traced, err := w(rc)
	if err != nil {
		return fmt.Errorf("%s, traced: %w", *name, err)
	}
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	if traced.sim != plain.sim {
		fmt.Fprintln(stdout, "MISMATCH: the traced run's simulated outputs differ from the untraced run's")
		res.Failed++
	}
	// The overhead compares the two runs' headline time, so it is only as
	// precise as the run-to-run spread of wall_s.
	traced.layers["trace.overhead_pct"] = (traced.e2e["wall_s"]/plain.e2e["wall_s"] - 1) * 100
	fmt.Fprintf(stdout, "workload %s, seed %d, traced run\n", *name, *seed)
	printFigures(stdout, perLayer, traced.layers, nil)
	res.Metrics = pick(perLayer, traced.layers)
	return emit(stdout, res)
}

// pick returns every metric of defs, reading absent values as 0.
func pick(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

func printFigures(w io.Writer, defs []metricDef, values map[string]float64, derived []derivedFigure) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %16.6f %s\n", d.name, values[d.name], d.unit)
	}
	for _, d := range derived {
		fmt.Fprintf(w, "  %-34s %16.6f %s\n", d.name, d.value, d.unit)
	}
}

// emit prints the result line. Correctness requires every attempt to
// have succeeded and every metric to be a finite number.
func emit(w io.Writer, res report) error {
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// latencies holds groups of call latencies, in ms: one group per pass,
// or one group whose samples are the passes themselves.
type latencies [][]float64

// at returns the median over groups of each group's q-quantile, so that
// one disturbed pass does not set a per-pass figure.
func (l latencies) at(q float64) float64 {
	var per []float64
	for _, pass := range l {
		if len(pass) > 0 {
			per = append(per, quantile(pass, q))
		}
	}
	return median(per)
}

// finish fills in the end-to-end metrics every workload reports.
func (o *outcome) finish(setup float64, walls []float64, lat latencies, heapMiB float64) {
	o.walls = walls
	o.e2e = map[string]float64{
		"setup_s":        setup,
		"wall_s":         median(walls),
		"latency_p50_ms": lat.at(0.50),
		"latency_p99_ms": lat.at(0.99),
		"peak_heap_mib":  heapMiB,
		"ok_frac":        1 - float64(o.failed)/float64(o.attempted),
	}
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, the same rule as numpy's default.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
