// Command perfbench is the repository's benchmark. It runs one workload
// per call, measures it for --seconds, checks the program's outputs and
// prints one JSON result line last:
//
//	bash perfbench/run.sh --workload mlp-flat8 --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics with no instrumentation in
// the program's path. --trace 1 alternates bare and traced runs of the
// workload (every layer, send, update and request traced), reports the
// per-layer metrics and the tracing overhead, and writes the spans to
// .bench_build/traces. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produces.
type outcome struct {
	errs      []string // failed output checks
	attempted int
	failed    int
	metrics   map[string]metric
	info      map[string]any // printed on the info line, not judged
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]metric), info: make(map[string]any)}
}

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

func (o *outcome) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// buildDir holds everything a run writes, relative to the checkout
// root the benchmark runs from; traced runs write spans to traceDir.
const (
	buildDir = ".bench_build"
	traceDir = buildDir + "/traces"
)

type workload struct {
	name string
	run  func(options) (*outcome, error)
}

var workloads = []workload{
	{mlpFlat8.name, func(o options) (*outcome, error) { return runTrain(mlpFlat8, o) }},
	{cifarCNN4.name, func(o options) (*outcome, error) { return runTrain(cifarCNN4, o) }},
	{ringTree64.name, func(o options) (*outcome, error) { return runTrain(ringTree64, o) }},
	{"serve-open", runServe},
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measuring time")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	var w *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}

	host := readHostFacts()
	steal := startSteal()
	out, err := w.run(options{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	host.StealShare = steal.share()

	info, _ := json.Marshal(map[string]any{"workload": w.name, "seed": *seed, "host": host, "info": out.info})
	fmt.Printf("# %s\n", info)
	for _, e := range out.errs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	keys := make([]string, 0, len(out.metrics))
	for k, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.errs = append(out.errs, fmt.Sprintf("metric %s is %v", k, m.Value))
			out.metrics[k] = metric{0, m.Unit}
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "%-40s %14.6g %s\n", k, out.metrics[k].Value, out.metrics[k].Unit)
	}
	res, _ := json.Marshal(map[string]any{
		"correct": len(out.errs) == 0, "attempted": out.attempted, "failed": out.failed, "metrics": out.metrics,
	})
	fmt.Println(string(res))
	if len(out.errs) > 0 {
		os.Exit(1)
	}
}

// timeSetups runs set-up at least three times, and on while the
// set-ups together take under a second (at most 15 times). It returns
// the last result and the median set-up time in seconds.
func timeSetups[T any](setup func() (T, error)) (T, float64, error) {
	var v T
	var ts []float64
	var total float64
	for len(ts) < 3 || total < 1 && len(ts) < 15 {
		t0 := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
		total += ts[len(ts)-1]
	}
	return v, median(ts), nil
}
