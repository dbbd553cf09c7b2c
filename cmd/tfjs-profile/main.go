// Command tfjs-profile is the debugging/profiling tool of Section 3.8 as a
// CLI. It is a thin formatter over the telemetry subsystem: it registers a
// kernel-stats aggregator and a trace recorder on the engine's hub, runs
// MobileNet inferences, and prints the per-kernel breakdown (calls,
// total/p50/p95 wall time, device time, bytes added) plus the data-movement
// counters. With -trace it also writes the recorded events as Chrome
// trace-event JSON — validated against the schema before writing — which
// loads directly in chrome://tracing or perfetto. With -debug it downloads
// every output and reports the first kernel that introduces a NaN.
//
// With -leaks it instead runs the inferences under a tensor-lifetime
// tracker and prints the leak report: tensors allocated and never
// disposed, attributed to the source line that allocated them, plus
// device-memory pressure (texture residency, recycler occupancy,
// paging) on the webgl backend. -inject-leak deliberately leaks one
// tensor to demonstrate the attribution. The static tensorleak analyzer
// (tfjs-vet) reports the same bug class at vet time with the same
// "func (file:line)" site naming, so the two reports cross-reference.
//
// With -plan-report it instead loads the converted MobileNet (running the
// planvet dataflow verifier every load performs) and prints the
// compiled plan's per-root lifetime table: when each container is
// produced, last read, and returned to the recycler. `tfjs-vet -plan`
// gates CI on the same verification.
//
// -workers sets the node backend's worker budget through the same
// tf.ConfigureExec options API the library exposes, so a profile of
// "-workers 1" measures exactly what that configuration runs.
//
//	tfjs-profile -backend webgl -alpha 0.25 -size 96
//	tfjs-profile -backend node -workers 1
//	tfjs-profile -backend webgl -trace trace.json
//	tfjs-profile -backend webgl -debug -inject-nan
//	tfjs-profile -backend webgl -leaks -inject-leak
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/data"
	"repro/internal/telemetry"
	"repro/tf"
)

func main() {
	backend := flag.String("backend", "webgl", "backend: cpu, webgl or node")
	alpha := flag.Float64("alpha", 0.25, "MobileNet width multiplier")
	size := flag.Int("size", 96, "input resolution")
	runs := flag.Int("runs", 1, "profiled inferences (after one warmup)")
	top := flag.Int("top", 15, "show the N slowest kernels")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON to this file")
	debug := flag.Bool("debug", false, "enable NaN-checking debug mode")
	injectNaN := flag.Bool("inject-nan", false, "inject a NaN to demonstrate debug mode")
	leaks := flag.Bool("leaks", false, "run under the tensor-lifetime tracker and print the leak report")
	injectLeak := flag.Bool("inject-leak", false, "deliberately leak one tensor to demonstrate -leaks attribution")
	planRep := flag.Bool("plan-report", false, "verify the compiled plan and print its per-root lifetime table")
	planOpt := flag.Bool("plan-optimize", true, "with -plan-report: run the graph optimizer before compiling the plan")
	workers := flag.Int("workers", 0, "intra-op worker budget on the node backend (0 = leave default, <0 = reset)")
	liveURL := flag.String("url", "", "live top mode: poll this /metrics URL (e.g. http://localhost:8500/metrics) instead of profiling locally")
	interval := flag.Duration("interval", 2*time.Second, "live top mode: poll interval")
	iterations := flag.Int("iterations", 0, "live top mode: number of frames to render (0 = until interrupted)")
	flag.Parse()

	if *liveURL != "" {
		// Live mode is a pure metrics consumer: no local model, no local
		// backend — everything comes from the polled server's exposition,
		// parsed with the same strict OpenMetrics parser the tests use.
		if err := liveTop(*liveURL, *interval, *iterations, *top, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	if err := tf.SetBackend(*backend); err != nil {
		log.Fatal(err)
	}
	// The worker budget routes through the same options API as library
	// callers (tf.ConfigureExec) — profiling a configuration means
	// profiling exactly what that configuration runs.
	if err := tf.ConfigureExec(tf.WithWorkers(*workers)); err != nil {
		log.Fatal(err)
	}

	if *planRep {
		planReport(*alpha, *size, *planOpt)
		return
	}

	if *debug {
		tf.EnableDebugMode()
		defer tf.DisableDebugMode()
	}
	if *injectNaN {
		demonstrateNaNCatch()
		return
	}

	model, err := tf.MobileNetV1(tf.MobileNetConfig{
		Alpha: *alpha, InputSize: *size, NumClasses: 1000, IncludeTop: true, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer model.Dispose()
	img := data.SyntheticPhoto(*size, 42)
	x := tf.FromPixelsBatch(img)
	defer x.Dispose()

	infer := func() {
		out := model.Predict(x)
		out.DataSync()
		out.Dispose()
	}
	infer() // warmup: first call pays upload + shader-compile analogues

	if *leaks {
		runLeakCheck(infer, *runs, *injectLeak)
		return
	}

	// The whole profile is two telemetry consumers over one hub: the stats
	// aggregator feeds the tables, the recorder feeds -trace.
	stats := tf.NewKernelStats()
	rec := tf.NewTraceRecorder(0)
	remove := tf.WithTelemetry(stats, rec)
	span := fmt.Sprintf("mobilenet_a%.2f_%d:predict", *alpha, *size)
	for i := 0; i < *runs; i++ {
		end := tf.EngineOf().BeginSpan(span)
		infer()
		end()
	}
	remove()

	kernels := stats.Kernels()
	fmt.Printf("profiled %d inference(s) of MobileNet α=%.2f @%dx%d on %q: %d kernel names\n\n",
		*runs, *alpha, *size, *size, tf.GetBackendName(), len(kernels))

	mem := tf.Memory()
	fmt.Printf("engine memory: %.2f MiB live, peak %.2f MiB, %d tensors\n",
		float64(mem.NumBytes)/(1<<20), float64(mem.PeakBytes)/(1<<20), mem.NumTensors)
	tr := stats.Transfers()
	fmt.Printf("transfers: %d uploads (%.2f MiB), %d downloads (%.2f MiB), %d fences, paged %.2f MiB out / %.2f MiB in\n\n",
		tr.UploadCount, float64(tr.UploadBytes)/(1<<20),
		tr.DownloadCount, float64(tr.DownloadBytes)/(1<<20),
		tr.FenceCount, float64(tr.PageOutBytes)/(1<<20), float64(tr.PageInBytes)/(1<<20))

	if *top > len(kernels) {
		*top = len(kernels)
	}
	fmt.Printf("%-26s %6s %11s %10s %10s %11s %14s\n",
		"Kernel", "Calls", "Total (ms)", "p50 (ms)", "p95 (ms)", "GPU (ms)", "Bytes added")
	for _, k := range kernels[:*top] {
		gpu := "-"
		if k.HasKernel {
			gpu = fmt.Sprintf("%.3f", k.KernelMS)
		}
		fmt.Printf("%-26s %6d %11.3f %10.3f %10.3f %11s %14d\n",
			k.Name, k.Count, k.TotalMS, k.P50MS, k.P95MS, gpu, k.BytesAdded)
	}

	if *tracePath != "" {
		if err := writeTrace(*tracePath, rec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %d trace events to %s (load in chrome://tracing)\n", rec.Len(), *tracePath)
		if dropped := rec.Dropped(); dropped > 0 {
			fmt.Printf("warning: the trace ring overwrote %d event(s) — the file holds only the most recent; per-shard drops: %v\n",
				dropped, rec.DroppedByShard())
		}
	}
}

// runLeakCheck runs the inferences under tf.LeakCheck and prints the
// report. A clean run reports zero live tensors — every intermediate
// was tidied or disposed; -inject-leak shows what a real leak looks
// like: the report names this file and line as the allocation site.
func runLeakCheck(infer func(), runs int, injectLeak bool) {
	rep, err := tf.LeakCheck(func() {
		for i := 0; i < runs; i++ {
			infer()
		}
		if injectLeak {
			leaked := tf.Tensor1D([]float32{1, 2, 3}) // deliberately never disposed
			_ = leaked
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("leak check over %d inference(s) on %q:\n\n%s", runs, tf.GetBackendName(), rep)
	if rep.LiveTensors == 0 {
		fmt.Println("\nno leaks: every tensor allocated during the run was disposed")
	}
}

// writeTrace renders the recorder as Chrome trace JSON, self-validates it
// against the trace-event schema, and writes it out — a malformed trace
// fails loudly here rather than silently in the browser.
func writeTrace(path string, rec *tf.TraceRecorder) error {
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf, time.Time{}); err != nil {
		return fmt.Errorf("rendering trace: %w", err)
	}
	if err := telemetry.ValidateChromeTrace(buf.Bytes()); err != nil {
		return fmt.Errorf("generated trace fails schema validation: %w", err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// demonstrateNaNCatch shows the §3.8 behaviour: with debug mode on, the
// first kernel that introduces a NaN throws with its name.
func demonstrateNaNCatch() {
	tf.EnableDebugMode()
	defer tf.DisableDebugMode()
	defer func() {
		if r := recover(); r != nil {
			fmt.Printf("debug mode caught the instability:\n  %v\n", r)
			fmt.Println("(the exception names the first kernel that introduced a NaN, §3.8)")
			return
		}
		log.Fatal("expected debug mode to catch the injected NaN")
	}()
	tf.Tidy(func() []*tf.Tensor {
		x := tf.Scalar(0)
		y := tf.Log(x)               // log(0) = -Inf: fine
		z := tf.Mul(y, tf.Scalar(0)) // -Inf * 0 = NaN: caught here
		z.DataSync()
		return nil
	})
}
