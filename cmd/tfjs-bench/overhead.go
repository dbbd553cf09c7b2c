package main

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"

	"repro/internal/converter"
	"repro/internal/telemetry"
	"repro/tf"
)

// overheadExperiment measures the continuous profiler's cost: serving
// throughput with profiling on (the default, with a profiler observer
// consuming kernel events) versus profiling hard-disabled, interleaved
// A-B-A-B so thermal and cache drift hits both arms equally. The
// comparison uses the median QPS of each arm's rounds; the run exits
// nonzero when the relative QPS loss exceeds budgetPct — the CI gate
// backing the "always-on, low overhead" claim.
func overheadExperiment(alpha float64, size, total int, budgetPct float64, costModel, outPath string) {
	fmt.Printf("\n=== Profiler overhead: QPS with profiling on vs off (budget %.1f%%) ===\n", budgetPct)
	fmt.Printf("MobileNet v1 alpha=%.2f input=%dx%dx3, native backend, %d CPU core(s), %d requests per round, cost-model=%s\n\n",
		alpha, size, size, runtime.NumCPU(), total, costModel)

	store := converter.NewMemStore()
	model, err := tf.MobileNetV1(tf.MobileNetConfig{
		Alpha: alpha, InputSize: size, NumClasses: 1000, IncludeTop: true, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	g, err := tf.ExportSavedModel(model, false)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := tf.Convert(g, store, tf.ConvertOptions{}); err != nil {
		log.Fatal(err)
	}
	model.Dispose()

	execOpts := []tf.ExecOption{tf.WithCostModel(tf.CostModel(costModel))}

	// Interleaved rounds: on, off, on, off, ... Median per arm discards
	// the odd slow round (GC pause, scheduler hiccup) symmetrically.
	const roundsPerArm = 3
	onQPS := make([]float64, 0, roundsPerArm)
	offQPS := make([]float64, 0, roundsPerArm)
	profiler := telemetry.NewProfiler()
	defer telemetry.EnableProfiling(true) // restore the default on exit
	for round := 0; round < 2*roundsPerArm; round++ {
		profilingOn := round%2 == 0
		telemetry.EnableProfiling(profilingOn)
		var removeProfiler func()
		if profilingOn {
			// The on-arm pays the full production path: per-chunk timing
			// feeding the cost accounts plus a hub observer aggregating
			// per-kernel events, exactly what tfjs-serve runs.
			removeProfiler = tf.WithTelemetry(profiler)
		}
		qps := serveThroughput(store, size, 16, total, execOpts)
		if removeProfiler != nil {
			removeProfiler()
		}
		if profilingOn {
			onQPS = append(onQPS, qps)
		} else {
			offQPS = append(offQPS, qps)
		}
	}

	on := median(onQPS)
	off := median(offQPS)
	overheadPct := (off - on) / off * 100
	fmt.Printf("%-14s %10s %10s %10s\n", "Arm", "QPS r1", "QPS r2", "QPS r3")
	fmt.Printf("%-14s %10.1f %10.1f %10.1f\n", "profiler on", onQPS[0], onQPS[1], onQPS[2])
	fmt.Printf("%-14s %10.1f %10.1f %10.1f\n", "profiler off", offQPS[0], offQPS[1], offQPS[2])
	fmt.Printf("\nmedian QPS: on %.1f, off %.1f — overhead %.2f%% (budget %.1f%%)\n",
		on, off, overheadPct, budgetPct)
	events, overheadNS := profiler.Events(), int64(0)
	if samples, ns := profiler.Overhead(); samples > 0 {
		overheadNS = ns / samples
	}
	fmt.Printf("profiler consumed %d kernel events; sampled observe cost %d ns/event\n", events, overheadNS)

	if outPath != "" {
		bench := newBenchResult("overhead", alpha, size, total, 32)
		bench.Modes = map[string]ModeResult{
			"profiler_on":  {QPS: on},
			"profiler_off": {QPS: off},
		}
		if err := bench.writeJSON(outPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote results to %s\n", outPath)
	}

	if overheadPct > budgetPct {
		fmt.Printf("\nprofiler overhead gate FAILED: %.2f%% > %.1f%% budget\n", overheadPct, budgetPct)
		os.Exit(1)
	}
	fmt.Printf("profiler overhead gate passed: %.2f%% ≤ %.1f%%\n", max(overheadPct, 0), budgetPct)
}

// median returns the middle value of xs (mean of the middle two for even
// lengths).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
