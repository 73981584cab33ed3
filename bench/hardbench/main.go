// Command hardbench is the repository's benchmark: it measures the
// certify, verify and serve paths end to end and, in a traced run, splits
// their time by layer. It drives the repository only through its public
// package APIs (and, for serve, the real `hardness serve` binary).
//
//	hardbench -workload certify-mds -seed 1 -seconds 20 -trace 0
//
// Each run prints its metadata and every metric it measured, one per line
// with its unit, and ends with one JSON line:
//
//	{"correct":true,"attempted":605,"failed":0,"metrics":{...}}
//
// With -trace 0 the JSON holds the end-to-end metrics, with -trace 1 the
// per-layer metrics, and the spans of the traced run are written as JSON
// lines under -workdir. See bench/README.md for the workloads and how
// each metric is derived.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef declares a metric of BENCHMARK.json; bound is set for the
// end-to-end metrics only.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports each of them; "op" is the workload's unit of work: one
// exhaustive sweep (certify-*), all seven verify families once (verify),
// one job (serve). The tail of the op times is printed but not gated:
// with ten samples above it, it moves too much from run to run on a
// shared machine to hold even a 25% bound.
var endToEnd = []metricDef{
	{"pairs_per_s", "pairs/s", "higher", 0.25},
	{"op_ms", "ms", "lower", 0.25},
	{"allocs_per_pair", "allocs", "lower", 0.05},
	{"bytes_per_pair", "bytes", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// verifyLabels name the seven verify families in per-layer metrics.
var verifyLabels = []string{"mdslb", "maxcutlb", "steinerlb", "hamlb", "kmdslb", "dir-steiner", "boundedlb"}

// perLayer are the traced run's metrics. A workload reports 0 for a layer
// it does not run (or, for serve, cannot see from outside the server).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"constructions.apply_us", "us", "lower", 0},
		{"constructions.toggles", "count", "lower", 0},
		{"constructions.base_ms", "ms", "lower", 0},
		{"algorithms.prepare_us", "us", "lower", 0},
		{"algorithms.init_us", "us", "lower", 0},
		{"algorithms.gossip_us", "us", "lower", 0},
		{"algorithms.finish_nonroot_us", "us", "lower", 0},
		{"algorithms.finish_root_us", "us", "lower", 0},
		{"algorithms.roots", "count", "lower", 0},
	}
	for _, sim := range []string{"congest", "dicongest"} {
		defs = append(defs,
			metricDef{sim + ".setup_us", "us", "lower", 0},
			metricDef{sim + ".round_self_us", "us", "lower", 0},
			metricDef{sim + ".rounds", "count", "lower", 0},
			metricDef{sim + ".msgs", "count", "lower", 0},
			metricDef{sim + ".cut_bits", "count", "lower", 0},
		)
	}
	defs = append(defs,
		metricDef{"reduction.decide_us", "us", "lower", 0},
		metricDef{"reduction.other_us", "us", "lower", 0},
		metricDef{"reduction.occupancy", "ratio", "higher", 0},
		metricDef{"reduction.pairs_per_s_w1", "pairs/s", "higher", 0},
		metricDef{"reduction.shard_efficiency", "ratio", "higher", 0},
	)
	for _, f := range verifyLabels {
		defs = append(defs,
			metricDef{"lbfamily.verify_ms." + f, "ms", "lower", 0},
			metricDef{"solver.oracle_us." + f, "us", "lower", 0},
			metricDef{"constructions.apply_us." + f, "us", "lower", 0},
			metricDef{"lbfamily.other_us." + f, "us", "lower", 0},
		)
	}
	return append(defs,
		metricDef{"serve.submit_ms", "ms", "lower", 0},
		metricDef{"serve.notify_ms", "ms", "lower", 0},
		metricDef{"serve.queue_ms", "ms", "lower", 0},
		metricDef{"loadgen.late_ms_p99", "ms", "lower", 0},
		metricDef{"serve.run_ms.collect", "ms", "lower", 0},
		metricDef{"serve.run_ms.collect-retry", "ms", "lower", 0},
		metricDef{"serve.pair_us", "us", "lower", 0},
		metricDef{"serve.rounds_per_pair.collect", "count", "lower", 0},
		metricDef{"serve.rounds_per_pair.collect-retry", "count", "lower", 0},
		metricDef{"serve.cache_misses", "count", "lower", 0},
		metricDef{"trace.overhead", "ratio", "lower", 0},
	)
}()

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	// quick shrinks every operation count to a smoke test of the same
	// code path.
	quick bool
	nproc int
}

// count returns n, or quick for a -quick run.
func (o options) count(n, quick int) int {
	if o.quick {
		return quick
	}
	return n
}

// scaled returns perSecond operations per second of run length, at least
// one, or quick for a -quick run.
func (o options) scaled(perSecond float64, quick int) int {
	return o.count(max(1, int(math.Round(perSecond*float64(o.seconds)))), quick)
}

// more reports whether a timed phase that started at start and has done
// done operations goes on: until -seconds of wall time have passed and
// atLeast operations are done, or, in a -quick run, quick operations.
func (o options) more(done, atLeast, quick int, start time.Time) bool {
	if o.quick {
		return done < quick
	}
	return done < atLeast || time.Since(start) < time.Duration(o.seconds)*time.Second
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	// ops describes the operation counts, for the metadata.
	ops      string
	names    []string
	values   map[string]float64
	units    map[string]string
	warnings []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, units: map[string]string{}}
}

// set records a measured metric; names outside BENCHMARK.json are printed
// but not part of the JSON result.
func (r *outcome) set(name string, v float64, unit string) {
	if _, ok := r.values[name]; !ok {
		r.names = append(r.names, name)
	}
	r.values[name], r.units[name] = v, unit
}

// check counts one attempted operation and reports a failed one.
func (r *outcome) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "hardbench: %s: %v\n", what, err)
	}
}

func (r *outcome) warn(format string, args ...any) {
	r.warnings = append(r.warnings, fmt.Sprintf(format, args...))
}

var workloads = []string{"certify-mds", "certify-hamlb", "verify", "serve"}

func run(o options) (*outcome, error) {
	switch o.workload {
	case "certify-mds":
		return runCertify(o, mdsTarget)
	case "certify-hamlb":
		return runCertify(o, hamlbTarget)
	case "verify":
		return runVerify(o)
	case "serve":
		return runServe(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("hardbench", flag.ContinueOnError)
	o := options{nproc: runtime.NumCPU()}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "wall time of a timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the built server binary and the span files")
	fs.BoolVar(&o.quick, "quick", false, "tiny operation counts: a smoke test of the same code path")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	o.trace = *trace == 1
	return o, nil
}

// metadata describes the run: the build's revision, the toolchain and
// the machine it ran on.
func metadata(o options) string {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
	}
	return fmt.Sprintf("meta rev=%s%s go=%s nproc=%d gomaxprocs=%d cpu=%q",
		rev, modified, runtime.Version(), o.nproc, runtime.GOMAXPROCS(0), cpuModel())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result selects the declared metrics of the run's kind. Every
// end-to-end metric must have been measured; a per-layer metric the
// workload did not measure is 0.
func (r *outcome) result(trace bool) (jsonResult, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := jsonResult{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !trace {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func report(w io.Writer, o options, r *outcome) error {
	res, err := r.result(o.trace)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "hardbench workload=%s seed=%d seconds=%d trace=%t quick=%t\n", o.workload, o.seed, o.seconds, o.trace, o.quick)
	fmt.Fprintln(w, metadata(o))
	fmt.Fprintf(w, "ops %s\n", r.ops)
	if runtime.GOMAXPROCS(0) > o.nproc {
		r.warn("GOMAXPROCS=%d exceeds nproc=%d: workers contend for cores", runtime.GOMAXPROCS(0), o.nproc)
	}
	for _, name := range r.names {
		fmt.Fprintf(w, "%s %.6g %s\n", name, r.values[name], r.units[name])
	}
	for _, msg := range r.warnings {
		fmt.Fprintf(w, "warning: %s\n", msg)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hardbench: %v\n", err)
		os.Exit(2)
	}
	r, err := run(o)
	if err == nil {
		err = report(os.Stdout, o, r)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hardbench: %v\n", err)
		os.Exit(1)
	}
}
