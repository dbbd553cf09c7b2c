package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"time"

	"repro/tf"
)

// ladderExperiment measures the native backend's acceleration ladder on
// single-image MobileNet inference — each rung enables one more piece of
// the execution config, all through the unified options API:
//
//	native   ×1   the native kernels (AVX2 vector cores where the CPU has
//	              them), one worker
//	native   ×N   same kernels sharded across GOMAXPROCS workers
//	measured ×N   chunk grain from the continuous profiler's measured
//	              ns/element accounts instead of static flop estimates
//
// One gate rides on the ladder. The measured rung must be bitwise
// identical to native ×N — the cost model only moves chunk boundaries,
// and kernels never split one output element's accumulation across
// chunks, so any drift is a bug, and the run exits nonzero. outPath, when
// set, writes the measured numbers as JSON (the CI artifact behind the
// README ladder table).
func ladderExperiment(alpha float64, size, runs int, outPath string) {
	procs := runtime.GOMAXPROCS(0)
	fmt.Printf("\n=== Native acceleration ladder: MobileNet v1 alpha=%.2f @%dx%d, %d runs, GOMAXPROCS=%d ===\n\n",
		alpha, size, size, runs, procs)
	if err := tf.SetBackend("node"); err != nil {
		log.Fatal(err)
	}

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
	model.Dispose()
	store := tf.NewMemStore()
	if _, err := tf.Convert(g, store, tf.ConvertOptions{}); err != nil {
		log.Fatal(err)
	}

	vals := make([]float32, size*size*3)
	for i := range vals {
		vals[i] = float32(i%251) / 251
	}

	rungs := []struct {
		label    string
		workers  int
		measured bool
	}{
		{"native ×1", 1, false},
		{fmt.Sprintf("native ×%d", procs), procs, false},
		{fmt.Sprintf("measured ×%d", procs), procs, true},
	}
	defer func() {
		if err := tf.ConfigureExec(tf.WithWorkers(-1)); err != nil {
			log.Fatal(err)
		}
	}()

	results := map[string]ModeResult{}
	outputs := map[string][]float32{}
	var baseMS float64
	fmt.Printf("%-14s %12s %10s\n", "Rung", "ms/infer", "speedup")
	for _, r := range rungs {
		if err := tf.ConfigureExec(tf.WithWorkers(r.workers)); err != nil {
			log.Fatal(err)
		}
		var loadOpts []tf.ExecOption
		if r.measured {
			loadOpts = append(loadOpts, tf.WithCostModel(tf.CostModelMeasured))
		}
		m, err := tf.LoadGraphModel(store, loadOpts...)
		if err != nil {
			log.Fatal(err)
		}
		infer := func() []float32 {
			x := tf.Tensor4D(vals, 1, size, size, 3)
			defer x.Dispose()
			out, err := m.Predict(x)
			if err != nil {
				log.Fatal(err)
			}
			defer out.Dispose()
			return append([]float32(nil), out.DataSync()...)
		}
		outputs[r.label] = infer() // warmup, and the parity sample
		start := time.Now()
		for i := 0; i < runs; i++ {
			infer()
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond) / float64(runs)
		m.Dispose()
		if baseMS == 0 {
			baseMS = ms
		}
		fmt.Printf("%-14s %12.2f %9.2fx\n", r.label, ms, baseMS/ms)
		results[r.label] = ModeResult{PredictMS: ms, QPS: 1000 / ms}
	}
	fmt.Println("\n(the ×N rung needs GOMAXPROCS physical cores to show its gain; on fewer")
	fmt.Println(" cores the workers time-slice and the rung measures scheduling overhead)")

	// Bit-identity gate: the measured rung against native ×N. The cost
	// model may only move chunk boundaries, never arithmetic, so the two
	// float32 vectors must match bit for bit.
	f32Out := outputs[rungs[1].label]
	measOut := outputs[rungs[2].label]
	for i := range f32Out {
		if math.Float32bits(measOut[i]) != math.Float32bits(f32Out[i]) {
			fmt.Printf("\nmeasured-cost bit-identity gate FAILED: class %d measured=%x static=%x\n",
				i, math.Float32bits(measOut[i]), math.Float32bits(f32Out[i]))
			os.Exit(1)
		}
	}
	fmt.Printf("\nmeasured-cost bit-identity gate: all %d class probabilities bitwise equal to native ×%d\n",
		len(f32Out), procs)

	if outPath != "" {
		bench := newBenchResult("ladder", alpha, size, runs, 1)
		bench.Modes = results
		if err := bench.writeJSON(outPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote results to %s\n", outPath)
	}
}
