// Command perfbench is the repository's benchmark. It runs one of four
// workloads through the public seqpoint facade or the daemon's HTTP
// API, checks the outputs against recorded digests, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of its output:
//
//	perfbench --workload paper|fleet|serve|daemon --seed N --seconds S --trace 0|1
//
// Build and run it from the repository root with perfbench/run.sh;
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string // where the traced pass writes its spans
	// small shrinks every input for the benchmark's own tests; the
	// recorded digests hold only for full-size inputs and are skipped.
	small bool
}

// report is what a workload measured.
type report struct {
	setupCPUS []float64 // CPU seconds of each set-up repetition
	unitS     []float64 // wall-clock latency of each unit of work (daemon: of each request)
	wallS     float64   // wall-clock time of the measured work
	cpuS      float64
	allocMB   float64
	peakRSSMB float64
	attempted int
	failed    int
	layers    map[string]float64
	notes     []string
}

func newReport() *report { return &report{layers: make(map[string]float64)} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation; the first few are described.
func (r *report) fail(err error) {
	r.failed++
	if r.failed <= 5 {
		r.note("FAILED: %v", err)
	}
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics with their units, in the order
// BENCHMARK.json declares them: CPU time and memory. Wall-clock figures
// spread too widely on a shared host to hold a bound (README.md), so
// they are per-layer metrics.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

func (r *report) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":     median(r.setupCPUS),
		"cpu_s":       r.cpuS,
		"alloc_mb":    r.allocMB,
		"peak_rss_mb": r.peakRSSMB,
	}
}

// wallClock adds the wall-clock figures of the measured work to the
// per-layer metrics and describes them.
func (r *report) wallClock() {
	p50, tail := percentile(r.unitS, 50)*1e3, tailPercentile(r.unitS)*1e3
	r.layers["wallclock.wall_s"] = r.wallS
	r.layers["wallclock.p50_ms"] = p50
	r.layers["wallclock.tail_ms"] = tail
	r.note("wall clock: %.3f s measured, latency p50 %.3f ms, tail %.3f ms over %d samples",
		r.wallS, p50, tail, len(r.unitS))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "run length; fixes how much work the run measures")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced pass instead of end-to-end metrics")
	serveChild := fs.Bool("serve-child", false, "run the daemon workload's server process (started by the daemon workload itself)")
	record := fs.String("record-digests", "", "recompute every recorded output digest and write them to this file")
	calib := fs.Bool("calibrate", false, "measure the capacities the offered rates are set against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag == 1
	o.traceOut = fmt.Sprintf(".bench_build/trace-%s.json", o.workload)

	switch {
	case *serveChild:
		if err := serveChildMain(os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: server:", err)
			return 1
		}
		return 0
	case *calib:
		if err := calibrate(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *record != "":
		if err := recordDigests(*record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	runner, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	host, _ := json.Marshal(hostFacts())
	fmt.Fprintf(stdout, "host %s\n", host)
	r, err := runner(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if r.peakRSSMB == 0 {
		if r.peakRSSMB, err = peakRSSMB(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	r.wallClock()
	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	if o.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{r.layers[m.name], m.unit}
		}
	} else {
		vals := r.endToEndValues()
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// A run that measured prints its result and exits 0 even when an
	// output check failed: "correct" and "failed" carry the verdict.
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

var workloads = map[string]func(options) (*report, error){
	"paper": func(o options) (*report, error) {
		return runUnits(o, &paperWorkload{seed: o.seed, small: o.small})
	},
	"fleet":  func(o options) (*report, error) { return runUnits(o, newSimWorkload(fleetShape, o)) },
	"serve":  func(o options) (*report, error) { return runUnits(o, newSimWorkload(serveShape, o)) },
	"daemon": runDaemon,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
