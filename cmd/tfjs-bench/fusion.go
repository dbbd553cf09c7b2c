package main

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/converter"
	"repro/internal/telemetry"
	"repro/tf"
)

// fusionExperiment is the graph-optimizer A/B: the same converted MobileNet
// is loaded twice — optimizer on (the default) and off — and run on the
// native backend. For each arm it measures kernel dispatches, average
// Predict latency and peak engine memory via the telemetry hub, checks the
// two arms agree numerically, and prints the per-kernel dispatch and byte
// deltas and which fusion patterns fired.
//
// outPath writes the numbers as a BenchResult JSON with modes "fusion_on"
// and "fusion_off" (the CI artifact); traceDir, when set, writes Chrome
// traces trace_fusion_on.json and trace_fusion_off.json there.
func fusionExperiment(alpha float64, size, runs int, outPath, traceDir string) {
	fmt.Printf("\n=== Graph optimizer A/B: operator fusion on vs off ===\n")
	fmt.Printf("MobileNet v1 alpha=%.2f input=%dx%dx3, native backend, %d runs per arm\n\n", alpha, size, size, runs)

	if err := tf.SetBackend("node"); err != nil {
		log.Fatal(err)
	}
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

	vals := make([]float32, size*size*3)
	for i := range vals {
		vals[i] = float32(i%251) / 251
	}

	results := newBenchResult("fusion", alpha, size, runs, 1)
	arms := map[string]fusionArm{}
	for _, arm := range []struct {
		mode    string
		enabled bool
	}{
		{"fusion_on", true},
		{"fusion_off", false},
	} {
		a := runFusionArm(store, vals, size, runs, arm.enabled)
		arms[arm.mode] = a
		results.Modes[arm.mode] = ModeResult{
			QPS:              1000 / a.predictMS,
			PredictMS:        a.predictMS,
			KernelDispatches: a.dispatches,
			KernelCounts:     a.kernelCounts,
			PeakBytes:        a.peakBytes,
		}
		if traceDir != "" {
			path := filepath.Join(traceDir, "trace_"+arm.mode+".json")
			if err := writeFusionTrace(path, a.trace); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %d trace events to %s\n", a.trace.Len(), path)
		}
	}

	on, off := arms["fusion_on"], arms["fusion_off"]
	fmt.Printf("\n%-12s %12s %12s %12s\n", "Mode", "Predict (ms)", "dispatches", "peak MiB")
	fmt.Printf("%-12s %12.2f %12d %12.2f\n", "fusion off", off.predictMS, off.dispatches, float64(off.peakBytes)/(1<<20))
	fmt.Printf("%-12s %12.2f %12d %12.2f\n", "fusion on", on.predictMS, on.dispatches, float64(on.peakBytes)/(1<<20))

	diff := maxAbsDiff(on.output, off.output)
	fmt.Printf("\nspeedup:            %.2fx\n", off.predictMS/on.predictMS)
	fmt.Printf("dispatch reduction: %d -> %d (%.0f%%)\n", off.dispatches, on.dispatches,
		100*(1-float64(on.dispatches)/float64(off.dispatches)))
	fmt.Printf("peak memory:        %.2f -> %.2f MiB\n", float64(off.peakBytes)/(1<<20), float64(on.peakBytes)/(1<<20))
	fmt.Printf("max |on-off| over %d outputs: %.2g\n", len(on.output), diff)

	fmt.Printf("\nper-kernel dispatches and bytes added per inference:\n")
	fmt.Printf("%-28s %10s %10s %14s %14s\n", "Kernel", "off calls", "on calls", "off bytes", "on bytes")
	kernels := map[string]bool{}
	for _, a := range arms {
		for k := range a.kernelCounts {
			kernels[k] = true
		}
	}
	for _, k := range sortedKeys(kernels) {
		fmt.Printf("%-28s %10d %10d %14d %14d\n", k, off.kernelCounts[k], on.kernelCounts[k], off.kernelBytes[k], on.kernelBytes[k])
	}

	fmt.Printf("\npatterns fired at load (optimizer on): %d -> %d nodes\n", on.stats.NodesBefore, on.stats.NodesAfter)
	for _, p := range sortedKeys(on.stats.Patterns) {
		fmt.Printf("  %-44s %4d\n", p, on.stats.Patterns[p])
	}

	if diff > 1e-5 {
		fmt.Printf("\nfused and unfused outputs disagree beyond 1e-5; failing\n")
		os.Exit(1)
	}
	if outPath != "" {
		if err := results.writeJSON(outPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote results to %s\n", outPath)
	}
}

// fusionArm is one side of the A/B measurement.
type fusionArm struct {
	predictMS    float64
	dispatches   int64
	kernelCounts map[string]int64 // per inference
	kernelBytes  map[string]int64 // bytes added, per inference
	peakBytes    int64
	output       []float32
	stats        tf.OptimizeStats
	trace        *tf.TraceRecorder
}

// runFusionArm loads the converted model with the optimizer on or off and
// measures runs inferences under the telemetry hub: dispatch counts and
// per-kernel tallies from a Stats aggregator, peak engine memory from the
// kernel events' live-byte gauge, and the event stream for the Chrome trace.
func runFusionArm(store converter.Store, vals []float32, size, runs int, optimize bool) fusionArm {
	m, err := tf.LoadGraphModel(store, tf.WithOptimize(optimize))
	if err != nil {
		log.Fatal(err)
	}
	defer m.Dispose()

	x := tf.Tensor4D(vals, 1, size, size, 3)
	defer x.Dispose()
	infer := func() []float32 {
		out, err := m.Predict(x)
		if err != nil {
			log.Fatal(err)
		}
		defer out.Dispose()
		return append([]float32(nil), out.DataSync()...)
	}
	output := infer() // warmup, and the numeric-parity sample

	stats := tf.NewKernelStats()
	rec := tf.NewTraceRecorder(0)
	var peak int64
	peakObs := tf.TelemetryObserverFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KindKernel && ev.TotalBytes > peak {
			peak = ev.TotalBytes
		}
	})
	remove := tf.WithTelemetry(stats, rec, peakObs)
	start := time.Now()
	for i := 0; i < runs; i++ {
		infer()
	}
	elapsed := time.Since(start)
	remove()

	var dispatches int64
	counts, added := map[string]int64{}, map[string]int64{}
	for _, k := range stats.Kernels() {
		dispatches += k.Count
		counts[k.Name] = k.Count
		added[k.Name] = k.BytesAdded
	}
	return fusionArm{
		predictMS:    float64(elapsed) / float64(time.Millisecond) / float64(runs),
		dispatches:   dispatches / int64(runs),
		kernelCounts: perRun(counts, runs),
		kernelBytes:  perRun(added, runs),
		peakBytes:    peak,
		output:       output,
		stats:        m.OptimizeStats(),
		trace:        rec,
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// perRun normalizes accumulated per-kernel counts to a single inference.
func perRun(counts map[string]int64, runs int) map[string]int64 {
	out := make(map[string]int64, len(counts))
	for k, v := range counts {
		out[k] = v / int64(runs)
	}
	return out
}

func maxAbsDiff(a, b []float32) float64 {
	var max float64
	for i := range a {
		if d := math.Abs(float64(a[i] - b[i])); d > max {
			max = d
		}
	}
	return max
}

// writeFusionTrace renders one arm's recorder as validated Chrome trace
// JSON, the CI artifact pair for eyeballing the dispatch reduction.
func writeFusionTrace(path string, rec *tf.TraceRecorder) error {
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf, time.Time{}); err != nil {
		return fmt.Errorf("rendering trace: %w", err)
	}
	if err := telemetry.ValidateChromeTrace(buf.Bytes()); err != nil {
		return fmt.Errorf("generated trace fails schema validation: %w", err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
