// Command tfjs-bench regenerates the paper's evaluation tables and figures
// in their published form:
//
//	tfjs-bench table1    — Table 1: backend speedups on MobileNet v1 inference
//	tfjs-bench fig23     — Figures 2/3: main-thread blocking, dataSync vs data
//	tfjs-bench packing   — §3.9: packed (4 values/texel) vs unpacked ablation
//	tfjs-bench squeeze   — §4.1: logical-shape squeezing ablation
//	tfjs-bench recycling — §4.1.2: texture recycler ablation
//	tfjs-bench census    — §4.1.3: device support shares (WebGLStats analogue)
//	tfjs-bench fusion    — graph optimizer A/B: operator fusion on vs off
//	tfjs-bench ladder    — native acceleration ladder: native ×1 →
//	                       native ×N → measured-cost ×N, with the
//	                       measured-vs-static bit-identity gate
//	tfjs-bench overhead  — telemetry cost: QPS with the server's observers and
//	                       profiling on vs nothing attached and profiling off,
//	                       exit nonzero beyond -overhead-budget (CI gate)
//	tfjs-bench all       — the paper tables and figures above
//
// Flags -alpha, -size and -runs scale the MobileNet workload; the defaults
// keep the plain-CPU baseline tractable. Absolute times differ from the
// paper (the WebGL device is simulated; see EXPERIMENTS.md), but the
// orderings and ratios are the reproduction targets. Every WebGL/WebGPU
// time printed by table1, packing, squeeze, recycling and webgpu is
// modelled GPU time read from the device's clock through tf.Time: a
// function of the programs dispatched, identical to the last digit on any
// host. The plain-CPU and Node rows of table1 and all of fig23 are host
// wall-clock.
//
// The fusion command is the graph-optimizer A/B: it loads the same
// converted MobileNet with the optimizer on and off, reports kernel
// dispatches, Predict latency and peak memory per arm, verifies the arms
// agree to 1e-5, and (with -tracedir) writes a Chrome trace per arm.
//
// The ladder command measures three rungs in one run — native ×1 worker,
// native ×N cores, measured ×N (the measured cost model: the continuous
// profiler's ns/element accounts drive the parallelism grain) — and
// enforces one gate: the measured rung must be bitwise identical to
// native ×N (grain changes may never change results), or it exits
// nonzero.
//
// The serving benchmark is bench/ (BENCHMARK.json): `bash bench/run.sh`.
//
// The overhead command is telemetry's cost gate: it alternates serving
// rounds with exactly serving.NewServer's observers attached and profiling
// enabled against rounds with an inactive hub and profiling disabled, ten
// pairs, and exits nonzero when the median per-pair QPS loss exceeds
// -overhead-budget (default 3%) — CI runs it blocking. For fusion, ladder
// and overhead, -out writes the measured numbers as JSON.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/data"
	"repro/internal/environment"
	"repro/internal/glsim"
	"repro/tf"
)

func main() {
	alpha := flag.Float64("alpha", 0.25, "MobileNet width multiplier (paper: 1.0)")
	size := flag.Int("size", 96, "MobileNet input resolution (paper: 224)")
	runs := flag.Int("runs", 10, "inference runs to average (paper: 100)")
	out := flag.String("out", "", "fusion/ladder/overhead: write measured results as JSON to this file")
	costModel := flag.String("cost-model", "static", "overhead: parallelism cost source, static or measured")
	overheadBudget := flag.Float64("overhead-budget", 3.0, "overhead: max median telemetry QPS overhead in percent before exiting nonzero")
	traceDir := flag.String("tracedir", "", "fusion: write trace_fusion_{on,off}.json Chrome traces to this directory")
	flag.Parse()
	if cm := tf.CostModel(*costModel); cm != tf.CostModelStatic && cm != tf.CostModelMeasured {
		fmt.Fprintf(os.Stderr, "-cost-model must be static or measured, got %q\n", *costModel)
		os.Exit(2)
	}

	cmd := "all"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
	}
	switch cmd {
	case "table1":
		table1(*alpha, *size, *runs)
	case "fig23":
		fig23()
	case "packing":
		packing()
	case "squeeze":
		squeeze()
	case "recycling":
		recycling()
	case "census":
		census()
	case "cache":
		cacheExperiment()
	case "webgpu":
		webgpuExperiment()
	case "fusion":
		fusionExperiment(*alpha, *size, *runs, *out, *traceDir)
	case "ladder":
		ladderExperiment(*alpha, *size, *runs, *out)
	case "overhead":
		overheadExperiment(*alpha, *size, 10**runs, *overheadBudget, *costModel, *out)
	case "all":
		table1(*alpha, *size, *runs)
		fig23()
		packing()
		squeeze()
		recycling()
		census()
		cacheExperiment()
		webgpuExperiment()
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", cmd)
		os.Exit(2)
	}
}

// mobileNetMS measures average single-inference latency on the active
// backend, mirroring Table 1's methodology (single image, averaged runs,
// with one warmup excluded).
func mobileNetMS(alpha float64, size, runs int) float64 {
	model, err := tf.MobileNetV1(tf.MobileNetConfig{
		Alpha: alpha, InputSize: size, NumClasses: 1000, IncludeTop: true, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer model.Dispose()
	img := data.SyntheticPhoto(size, 42)
	x := tf.FromPixelsBatch(img)
	defer x.Dispose()

	infer := func() {
		out := model.Predict(x)
		out.DataSync()
		out.Dispose()
	}
	infer() // warmup (first-run shader/kernel setup)
	ti := tf.Time(func() {
		for i := 0; i < runs; i++ {
			infer()
		}
	})
	// CPU backends report wall time. The WebGL backend reports the
	// device's modelled kernel time — excluding upload/download, "the exact
	// GPU time" of Section 3.8 — from the simulated device's counted-work
	// clock (see DESIGN.md: the GPU executes functionally on the host, so
	// host wall time of the webgl backend is not the quantity Table 1
	// compares).
	if ti.HasKernelMS {
		return ti.KernelMS / float64(runs)
	}
	return ti.WallMS / float64(runs)
}

func table1(alpha float64, size, runs int) {
	fmt.Printf("\n=== Table 1: backend speedups over the plain CPU baseline ===\n")
	fmt.Printf("MobileNet v1 alpha=%.2f input=%dx%dx3, single inference averaged over %d runs\n", alpha, size, size, runs)
	fmt.Printf("(paper config: alpha=1.0, 224x224x3, 100 runs; use -alpha/-size/-runs)\n\n")

	backends := []struct{ name, label string }{
		{"cpu", "Plain CPU (plain JS)"},
		{"webgl", "WebGL (simulated device)"},
		{"node", "Node CPU (native binding)"},
	}
	times := map[string]float64{}
	for _, b := range backends {
		if err := tf.SetBackend(b.name); err != nil {
			log.Fatal(err)
		}
		times[b.name] = mobileNetMS(alpha, size, runs)
	}
	base := times["cpu"]
	fmt.Printf("%-28s %12s %10s\n", "Backend", "Time (ms)", "Speedup")
	for _, b := range backends {
		fmt.Printf("%-28s %12.3f %9.1fx\n", b.label, times[b.name], base/times[b.name])
	}
	fmt.Printf("\nPaper (MacBook Pro / GTX 1080): Plain JS 3426ms 1x | WebGL 49/5ms 71x/685x | Node CPU 87ms 39x | Node CUDA 3ms 1105x\n")
}

func fig23(args ...string) {
	fmt.Printf("\n=== Figures 2 & 3: main-thread blocking, dataSync() vs data() ===\n")
	if err := tf.SetBackend("webgl"); err != nil {
		log.Fatal(err)
	}

	workload := func() *tf.Tensor {
		return tf.Tidy1(func() *tf.Tensor {
			a := tf.Fill([]int{256, 256}, 1.0/256)
			x := a
			for i := 0; i < 12; i++ {
				x = tf.MatMul(x, a, false, false)
			}
			return x
		})
	}

	measure := func(sync bool) (blockedMS float64, events int64) {
		loop := tf.NewEventLoop()
		defer loop.Stop()
		done := make(chan struct{})
		loop.Post(func() {
			t := workload()
			if sync {
				// Figure 2: the main thread blocks inside dataSync()
				// until the GPU finishes.
				//lint:ignore syncread deliberate: the sync arm of the Figure 2/3 A/B measures the blocking cost dataSync imposes
				t.DataSync()
				t.Dispose()
				close(done)
			} else {
				// Figure 3: data() returns immediately; the promise
				// resolves when the fence fires, and the main thread is
				// free meanwhile.
				t.Data().ThenOn(loop, func([]float32, error) {
					t.Dispose()
					close(done)
				})
			}
		})
		// Simulate user events arriving while the GPU works.
		var handled int64
		stop := make(chan struct{})
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					loop.Post(func() { handled++ })
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
		<-done
		close(stop)
		stats := loop.Stats()
		return float64(stats.LongestTask) / float64(time.Millisecond), handled
	}

	syncBlocked, _ := measure(true)
	asyncBlocked, _ := measure(false)
	fmt.Printf("%-34s %18s\n", "Readback", "main-thread stall")
	fmt.Printf("%-34s %15.1f ms   (Fig 2: blocks until GPU is done)\n", "tensor.DataSync()", syncBlocked)
	fmt.Printf("%-34s %15.1f ms   (Fig 3: released; promise resolves on fence)\n", "tensor.Data()", asyncBlocked)
	fmt.Printf("stall ratio sync/async: %.0fx\n", syncBlocked/asyncBlocked)
}

// modelled runs work on the named webgl-family backend — once to warm the
// texture recycler, then runs times under tf.Time — and returns what the
// device's clock and counters say one run costs: modelled GPU milliseconds
// and texture fetches. Both are functions of the programs dispatched, so
// they print the same on every host, every time.
func modelled(backend string, runs int, work func()) (gpuMS, fetches float64) {
	if err := tf.SetBackend(backend); err != nil {
		log.Fatal(err)
	}
	dev, ok := tf.EngineOf().Backend().(interface{ Device() *glsim.Device })
	if !ok {
		log.Fatalf("backend %q has no simulated device", backend)
	}
	work()
	before := dev.Device().Stats().Fetches
	ti := tf.Time(func() {
		for i := 0; i < runs; i++ {
			work()
		}
	})
	after := dev.Device().Stats().Fetches
	return ti.KernelMS / float64(runs), float64(after-before) / float64(runs)
}

func packing() {
	fmt.Printf("\n=== §3.9 packing: 4 values per texel vs 1 (paper: 1.3-1.4x) ===\n")
	// A PoseNet-class mixture of matmuls and element-wise chains.
	work := func() {
		tf.Tidy(func() []*tf.Tensor {
			a := tf.Fill([]int{256, 256}, 0.5)
			b := tf.Fill([]int{256, 256}, 0.25)
			x := tf.MatMul(a, b, false, false)
			for i := 0; i < 8; i++ {
				x = tf.Relu(tf.Add(tf.Mul(x, b), a))
			}
			x.DataSync()
			return nil
		})
	}
	packed, packedFetches := modelled("webgl", 20, work)
	unpacked, unpackedFetches := modelled("webgl-unpacked", 20, work)
	fmt.Printf("unpacked (R channel only):  %8.4f gpu-ms %12.0f fetches\n", unpacked, unpackedFetches)
	fmt.Printf("packed (RGBA texels):       %8.4f gpu-ms %12.0f fetches\n", packed, packedFetches)
	fmt.Printf("speedup: %.2fx\n", unpacked/packed)
}

func squeeze() {
	fmt.Printf("\n=== §4.1 logical-shape squeezing in the shader compiler (paper: ~1.3x) ===\n")
	work := func() {
		tf.Tidy(func() []*tf.Tensor {
			// Degenerate-dimension shapes like the paper's 1x3x1x2
			// example, at benchmark scale.
			x := tf.Fill([]int{1, 64, 1, 2048}, 0.5)
			y := tf.Fill([]int{1, 64, 1, 1}, 2)
			z := x
			for i := 0; i < 10; i++ {
				z = tf.Add(tf.Mul(z, y), x)
			}
			z.DataSync()
			return nil
		})
	}
	squeezed, _ := modelled("webgl", 20, work)
	naive, _ := modelled("webgl-nosqueeze", 20, work)
	fmt.Printf("naive sampler (all dims):     %8.4f gpu-ms\n", naive)
	fmt.Printf("squeezed sampler (non-1 dims):%8.4f gpu-ms\n", squeezed)
	fmt.Printf("speedup: %.2fx\n", naive/squeezed)
}

func recycling() {
	fmt.Printf("\n=== §4.1.2 texture recycling (repeated same-shape model passes) ===\n")
	work := func() {
		tf.Tidy(func() []*tf.Tensor {
			a := tf.Fill([]int{128, 128}, 0.5)
			x := a
			for i := 0; i < 20; i++ {
				x = tf.Relu(tf.MatMul(x, a, false, false))
			}
			x.DataSync()
			return nil
		})
	}
	on, _ := modelled("webgl", 30, work)
	off, _ := modelled("webgl-norecycle", 30, work)
	fmt.Printf("recycling off (delete+realloc): %8.4f gpu-ms\n", off)
	fmt.Printf("recycling on  (reuse pool):     %8.4f gpu-ms\n", on)
	fmt.Printf("speedup: %.2fx\n", off/on)
}

// cacheExperiment demonstrates why the converter packs weights into 4 MB
// shards: with a browser-style cache in front of the model host, a second
// load transfers nothing, and a fine-tuned weight update re-transfers only
// the shards it touched (§5.1).
func cacheExperiment() {
	fmt.Printf("\n=== §5.1 shard caching: browser auto-cache simulation ===\n")
	if err := tf.SetBackend("node"); err != nil {
		log.Fatal(err)
	}
	tf.SetLayerSeed(23)
	model, err := tf.MobileNetV1(tf.MobileNetConfig{Alpha: 0.25, InputSize: 96, NumClasses: 100, IncludeTop: true})
	if err != nil {
		log.Fatal(err)
	}
	defer model.Dispose()
	origin := tf.NewMemStore()
	if _, err := tf.SaveLayersModel(model, origin, tf.ConvertOptions{ShardBytes: 256 << 10}); err != nil {
		log.Fatal(err)
	}
	cache := tf.NewCachingStore(origin)

	if _, err := tf.LoadLayersModel(cache); err != nil {
		log.Fatal(err)
	}
	_, _, cold := cache.Stats()
	fmt.Printf("first load:       %8.1f KiB transferred (cold cache)\n", float64(cold)/1024)

	if _, err := tf.LoadLayersModel(cache); err != nil {
		log.Fatal(err)
	}
	_, _, afterWarm := cache.Stats()
	fmt.Printf("second load:      %8.1f KiB transferred (everything cached)\n", float64(afterWarm-cold)/1024)

	// Fine-tune the classifier head and redeploy.
	weights := model.GetWeights()
	last := weights[len(weights)-1]
	last.Values[0] += 0.5
	if err := model.SetWeights([]tf.NamedWeight{last}); err != nil {
		log.Fatal(err)
	}
	if _, err := tf.SaveLayersModel(model, origin, tf.ConvertOptions{ShardBytes: 256 << 10}); err != nil {
		log.Fatal(err)
	}
	if _, err := tf.LoadLayersModel(cache); err != nil {
		log.Fatal(err)
	}
	_, _, afterUpdate := cache.Stats()
	fmt.Printf("after fine-tune:  %8.1f KiB transferred (only invalidated shards)\n", float64(afterUpdate-afterWarm)/1024)
}

// webgpuExperiment compares the §4.3 future-work compute-shader backend
// (workgroups + shared memory) against the fragment-shader WebGL kernels
// on dense matmul, the workload behind the paper's observed 3-10x
// WebGL-to-CUDA gap (§3.9).
func webgpuExperiment() {
	fmt.Printf("\n=== §4.3 future work: WebGPU compute shaders vs WebGL fragments ===\n")
	// x is created on whichever backend is active and migrates to each
	// measured backend on that backend's warm-up run.
	x := tf.Fill([]int{256, 256}, 1.0/256)
	defer x.Dispose()
	work := func() {
		tf.Tidy(func() []*tf.Tensor {
			tf.MatMul(x, x, false, false).DataSync()
			return nil
		})
	}
	fragment, fragmentFetches := modelled("webgl", 10, work)
	compute, computeFetches := modelled("webgpu", 10, work)
	fmt.Printf("WebGL fragment matmul (256³):   %8.4f gpu-ms %12.0f fetches\n", fragment, fragmentFetches)
	fmt.Printf("WebGPU compute matmul (256³):   %8.4f gpu-ms %12.0f fetches\n", compute, computeFetches)
	fmt.Printf("speedup from workgroups+shared memory: %.2fx (paper: 3-10x headroom vs CUDA)\n", fragment/compute)
}

func census() {
	fmt.Printf("\n=== §4.1.3 device support census (WebGLStats analogue) ===\n")
	devices := environment.SyntheticCensus(200000, 1)
	fmt.Printf("%-16s %10s %10s %12s %10s\n", "Class", "Devices", "Supported", "Measured", "Paper")
	for _, r := range environment.Report(devices) {
		fmt.Printf("%-16s %10d %10d %11.1f%% %9.0f%%\n",
			r.Class, r.Total, r.Supported, r.SupportRate*100, r.PaperRate*100)
	}
}
