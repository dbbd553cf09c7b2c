// Command bench is the repository's benchmark: one run measures one
// workload end to end (-trace 0) or layer by layer (-trace 1), checks every
// output against the cpu reference tier, and prints its metrics by name and
// unit with a one-line JSON result last. See README.md in this directory
// for the vocabulary, the estimators and how to run it.
//
//	bash bench/run.sh -workload serve_http -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: serve_http, serve_batch, predict_webgl or train_mnist")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("input-generation seed (image pool, digit set, shuffle order); %d is the hold-out seed for claims", holdOutSeed))
	seconds := flag.Int("seconds", 15, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	cold := flag.Bool("coldsetup", false, "internal: run the workload's cold set-up once and print its report")
	unpinned := flag.Bool("unpinned", false, "internal: run the workload's window on every CPU, at the machine's defaults, and print its report")
	selfcheck := flag.Bool("selfcheck", false, "run two interleaved sets of every workload and compare them within the bounds")
	flag.Parse()
	if *unpinned {
		releaseCPUs()
	}
	pinnedCPU = pinToOneCPU()

	if *selfcheck {
		os.Exit(selfCheck(*seed, *seconds))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *cold {
		if err := coldSetUp(w, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: want -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if *unpinned {
		if err := runUnpinned(w, *seed, time.Duration(*seconds)*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	var rep *report
	var err error
	if *trace == 0 {
		rep, err = runEndToEnd(w, *seed, time.Duration(*seconds)*time.Second)
	} else {
		rep, err = runTraced(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.Correct {
		os.Exit(1)
	}
}

// pinnedEnv marks a process that already re-executed itself pinned, and
// names the CPU, or notPinned in a process that is to run on every CPU;
// hostCPUsEnv carries how many CPUs the first process saw.
const (
	pinnedEnv   = "BENCH_PINNED_CPU"
	notPinned   = "-1"
	hostCPUsEnv = "BENCH_HOST_CPUS"
)

// pinnedCPU is the one CPU the process confined itself to, or -1.
var pinnedCPU int

// hostCPUs is how many CPUs the machine offered before the process pinned
// itself (runtime.NumCPU() reads 1 afterwards).
func hostCPUs() int {
	if n, err := strconv.Atoi(os.Getenv(hostCPUsEnv)); err == nil {
		return n
	}
	return runtime.NumCPU()
}

// Seeds. Numbers quoted in an issue are measured on defaultSeed; a claim
// must also hold on holdOutSeed, which is not to be used while developing
// the change.
const (
	defaultSeed = 1
	holdOutSeed = 20190331
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run prints.
type report struct {
	Workload string
	Trace    int
	Correct  bool
	Problems []string
	Phases   map[string]phaseCount
	Metrics  map[string]metric
	// Conditions records what the numbers were measured under.
	Conditions map[string]any
	// declared is the mode's metric names and units.
	declared map[string]string
	// wall is where the run's wall time went, in seconds per kind of
	// stretch, and lap when the current stretch began; see took.
	wall map[string]float64
	lap  time.Time
}

// took charges the wall time since the previous call to what.
func (r *report) took(what string) {
	now := time.Now()
	r.wall[what] += now.Sub(r.lap).Seconds()
	r.lap = now
}

func newReport(w workload, trace int, seed int64) *report {
	declared := endToEnd
	if trace == 1 {
		declared = perLayer
	}
	wall := map[string]float64{}
	return &report{
		Workload: w.name, Trace: trace, Correct: true, declared: declared, wall: wall, lap: time.Now(),
		Phases:  map[string]phaseCount{},
		Metrics: map[string]metric{},
		Conditions: map[string]any{
			"seed": seed, "host_cpus": hostCPUs(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "generators": w.generators, "pinned_cpu": pinnedCPU,
			"wall_s": wall,
		},
	}
}

// set records a metric under its declared unit; a name the run's mode does
// not declare is a bug in the benchmark and fails the run.
func (r *report) set(name string, value float64) {
	unit, ok := r.declared[name]
	if !ok {
		r.fail("metric %q is not declared for -trace %d", name, r.Trace)
		return
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail records a violated check; the run then reports correct=false and
// exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// phase records a phase's tally and turns its failures into problems.
func (r *report) phase(name string, win *window) {
	r.Phases[name] = win.count
	if win.count.Failed > 0 {
		r.fail("%s: %d of %d items failed, first: %v", name, win.count.Failed, win.count.Attempted, win.firstErr)
	}
}

// print writes every metric by name and unit, then a summary object ending
// in "claim": null (this benchmark measures; it claims nothing), then the
// one-line result the driver reads.
func (r *report) print(out io.Writer) {
	for name := range r.declared {
		if _, ok := r.Metrics[name]; !ok {
			r.fail("declared metric %q was not measured", name)
		}
	}
	fmt.Fprintf(out, "workload %s, trace %d\n", r.Workload, r.Trace)
	for _, n := range sortedNames(r.Metrics) {
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(out, "  PROBLEM: %s\n", p)
	}
	r.Conditions["calibration"] = map[string]any{
		"kernel": "8 float32 64x64x64 matrix products, median of 5", "ref_ms": refCalibrationMS, "samples_ms": calibrationSamples,
	}
	summary, _ := json.Marshal(struct {
		Workload   string                `json:"workload"`
		Trace      int                   `json:"trace"`
		Conditions map[string]any        `json:"conditions"`
		Phases     map[string]phaseCount `json:"phases"`
		Problems   []string              `json:"problems"`
		Claim      any                   `json:"claim"`
	}{r.Workload, r.Trace, r.Conditions, r.Phases, r.Problems, nil})
	fmt.Fprintf(out, "%s\n", summary)

	var total phaseCount
	for _, c := range r.Phases {
		total.add(c)
	}
	result, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, max(total.Attempted, 1), total.Failed, r.Metrics})
	fmt.Fprintf(out, "%s\n", result)
}
