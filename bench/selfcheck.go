package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// manifest is BENCHMARK.json's declarations.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gate `json:"end_to_end"`
	PerLayer []gate `json:"per_layer"`
}

// gate is one declared metric; only end-to-end metrics carry a bound.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// selfCheckRuns is how many runs each of the two sets makes per workload:
// with two sets that is ten values per metric, the number the acceptance
// statistic (quartileSpread) is taken over.
const selfCheckRuns = 5

// selfCheck is the A/A check: two sets of runs of this same binary,
// interleaved so both see the same host weather, compared metric by metric
// against the bounds in BENCHMARK.json. It prints a Markdown report (the
// committed SELFCHECK.md is one) and returns the exit code: non-zero if a
// gated metric's two medians differ by more than its bound, or any run was
// incorrect. It is the evidence that the bounds hold on this host, and the
// tool to restate the noise floor with on another.
func selfCheck(seed int64, seconds int) int {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: selfcheck runs from the repository root:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("# A/A self-check\n\n")
	fmt.Printf("Two interleaved sets of %d runs per workload of one binary, %d s windows, seeds %d–%d, `-trace 0`.\n",
		selfCheckRuns, seconds, seed, seed+selfCheckRuns-1)
	fmt.Printf("Host: %d CPUs, pinned to CPU %d (so nproc %d, GOMAXPROCS %d), %s, %s.\n\n",
		hostCPUs(), pinnedCPU, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), time.Now().Format("2006-01-02"))
	fmt.Printf("`A`, `B`: each set's median. `diff`: |A−B| ÷ A, must stay within `bound`. `spread`: the distance\n")
	fmt.Printf("between the first and third quartile of all %d values as a share of their median.\n\n", 2*selfCheckRuns)

	code := 0
	fastest := math.Inf(1) // calibration sample, over every run
	for _, wl := range m.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := range selfCheckRuns {
			// Alternate which set runs first.
			for _, set := range [][2]int{{0, 1}, {1, 0}}[i%2] {
				metrics, calibration, err := childRun(exe, wl.Name, seed+int64(i), seconds)
				fastest = min(fastest, calibration)
				if err != nil {
					fmt.Printf("**%s, set %c, seed %d failed: %v**\n\n", wl.Name, 'A'+set, seed+int64(i), err)
					code = 1
					continue
				}
				for name, v := range metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		fmt.Printf("## %s\n\n| metric | unit | A | B | diff | bound | spread | |\n|---|---|---|---|---|---|---|---|\n", wl.Name)
		for _, g := range m.EndToEnd {
			a, b := sets[0][g.Name], sets[1][g.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			diff := math.Abs(ma-mb) / ma
			verdict := "ok"
			if diff > g.Bound {
				verdict = "**FAIL**"
				code = 1
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.2f%% | %.0f%% | %.2f%% | %s |\n",
				g.Name, g.Unit, ma, mb, 100*diff, 100*g.Bound, 100*quartileSpread(append(a, b...)), verdict)
		}
		fmt.Println()
	}
	fmt.Printf("Calibration: the fastest sample of the kernel in any run took %.3f ms; the reference the time-based\n", fastest)
	fmt.Printf("metrics are scaled to (`refCalibrationMS`) is %.2f ms, a ratio of %.3f. Away from 1 by more than a few\n", refCalibrationMS, fastest/refCalibrationMS)
	fmt.Printf("percent, the hardware or the toolchain differs from the defining one and absolute values do not compare.\n\n")
	if code == 0 {
		fmt.Println("Every gated metric of every workload agrees within its bound.")
	} else {
		fmt.Println("**Some gated metric disagrees by more than its bound, or a run failed.**")
	}
	return code
}

// childRun runs one workload end to end in a child process and returns the
// metrics of its result line and the fastest calibration sample its summary
// line records.
func childRun(exe, workload string, seed int64, seconds int) (map[string]metric, float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, math.Inf(1), err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, math.Inf(1), fmt.Errorf("run printed %d lines, want a summary and a result", len(lines))
	}
	var summary struct {
		Conditions struct {
			Calibration struct {
				Samples []float64 `json:"samples_ms"`
			} `json:"calibration"`
		} `json:"conditions"`
	}
	var res struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &summary); err != nil {
		return nil, math.Inf(1), err
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, math.Inf(1), err
	}
	fastest := math.Inf(1)
	for _, ms := range summary.Conditions.Calibration.Samples {
		fastest = min(fastest, ms)
	}
	if !res.Correct {
		return nil, fastest, fmt.Errorf("run reported incorrect outputs")
	}
	return res.Metrics, fastest, nil
}

// quartileSpread is (Q3 − Q1) ÷ median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives — the statistic the benchmark's
// acceptance check uses.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	x := sortedCopy(values)
	quartile := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		j = min(max(j, 1), n-1)
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / quantileSorted(x, 0.5)
}

// sortedNames returns a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
