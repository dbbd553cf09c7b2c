// Package repro's benchmark suite regenerates the paper's evaluation:
// one benchmark per table and figure, plus ablation benches for the design
// decisions called out in DESIGN.md. `go test -bench=. -benchmem` runs
// everything; `cmd/tfjs-bench` prints the same results formatted like the
// paper's tables. See EXPERIMENTS.md for paper-vs-measured discussion.
package repro

import (
	"math"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/environment"
	"repro/internal/glsim"
	"repro/tf"
)

// timeOnDevice runs op once outside the timer (first-run kernel setup, and
// the texture recycler's steady state), then b.N iterations under tf.Time,
// and on backends with a simulated device reports what the device's clock
// and counters say one iteration costs: gpu-ms/op (modelled, the Table 1
// quantity for WebGL) and fetches/op. Both are functions of the programs
// dispatched and repeat to the digit on any host; ns/op beside them is the
// simulator's host time.
func timeOnDevice(b *testing.B, op func()) {
	op()
	dev, ok := tf.EngineOf().Backend().(interface{ Device() *glsim.Device })
	var before int64
	if ok {
		before = dev.Device().Stats().Fetches
	}
	b.ResetTimer()
	ti := tf.Time(func() {
		for i := 0; i < b.N; i++ {
			op()
		}
	})
	b.StopTimer()
	if ok {
		b.ReportMetric(ti.KernelMS/float64(b.N), "gpu-ms/op")
		b.ReportMetric(float64(dev.Device().Stats().Fetches-before)/float64(b.N), "fetches/op")
	}
}

// benchMobileNet measures one MobileNet v1 inference per iteration on the
// named backend — the Table 1 workload. The default geometry (alpha 0.25,
// 96x96) keeps the plain baseline tractable; cmd/tfjs-bench scales it up.
func benchMobileNet(b *testing.B, backend string) {
	if err := tf.SetBackend(backend); err != nil {
		b.Fatal(err)
	}
	op, done := mobileNetOp(b)
	defer done()
	timeOnDevice(b, op)
}

// mobileNetOp builds the Table 1 model and image on the active backend and
// returns one inference as an op.
func mobileNetOp(tb testing.TB) (op func(), done func()) {
	model, err := tf.MobileNetV1(tf.MobileNetConfig{
		Alpha: 0.25, InputSize: 96, NumClasses: 1000, IncludeTop: true, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	x := tf.FromPixelsBatch(data.SyntheticPhoto(96, 42))
	op = func() {
		out := model.Predict(x)
		out.DataSync()
		out.Dispose()
	}
	return op, func() { x.Dispose(); model.Dispose() }
}

// BenchmarkTable1_PlainCPU is the Table 1 baseline: the naive float64
// per-element backend standing in for plain JS.
func BenchmarkTable1_PlainCPU(b *testing.B) { benchMobileNet(b, "cpu") }

// BenchmarkTable1_WebGL is Table 1's WebGL row; the gpu-ms/op metric is the
// device's modelled kernel time (see DESIGN.md on the timing model).
func BenchmarkTable1_WebGL(b *testing.B) { benchMobileNet(b, "webgl") }

// BenchmarkTable1_NodeCPU is Table 1's "Node.js CPU" row: the optimized
// native-binding stand-in.
func BenchmarkTable1_NodeCPU(b *testing.B) { benchMobileNet(b, "node") }

// fig23Workload enqueues a chain of matmuls on the webgl device and returns
// the un-downloaded result, as the timelines of Figures 2 and 3 assume.
func fig23Workload() *tf.Tensor {
	return tf.Tidy1(func() *tf.Tensor {
		a := tf.Fill([]int{192, 192}, 1.0/192)
		x := a
		for i := 0; i < 8; i++ {
			x = tf.MatMul(x, a, false, false)
		}
		return x
	})
}

// BenchmarkFig2_DataSyncBlocking measures the main-thread stall of the
// synchronous readback path: the event loop's longest task spans the whole
// GPU execution (Figure 2).
func BenchmarkFig2_DataSyncBlocking(b *testing.B) {
	if err := tf.SetBackend("webgl"); err != nil {
		b.Fatal(err)
	}
	var totalStall time.Duration
	for i := 0; i < b.N; i++ {
		loop := tf.NewEventLoop()
		done := make(chan struct{})
		loop.Post(func() {
			t := fig23Workload()
			t.DataSync() // blocks the "main thread" until the GPU finishes
			t.Dispose()
			close(done)
		})
		<-done
		totalStall += loop.Stats().LongestTask
		loop.Stop()
	}
	b.ReportMetric(float64(totalStall)/float64(time.Millisecond)/float64(b.N), "mainThreadStall-ms/op")
}

// BenchmarkFig3_AsyncData measures the same workload through the
// asynchronous data() path: the main thread is released while the GPU
// works and the promise resolves on the fence (Figure 3).
func BenchmarkFig3_AsyncData(b *testing.B) {
	if err := tf.SetBackend("webgl"); err != nil {
		b.Fatal(err)
	}
	var totalStall time.Duration
	for i := 0; i < b.N; i++ {
		loop := tf.NewEventLoop()
		done := make(chan struct{})
		loop.Post(func() {
			t := fig23Workload()
			t.Data().ThenOn(loop, func([]float32, error) {
				t.Dispose()
				close(done)
			})
		})
		<-done
		totalStall += loop.Stats().LongestTask
		loop.Stop()
	}
	b.ReportMetric(float64(totalStall)/float64(time.Millisecond)/float64(b.N), "mainThreadStall-ms/op")
}

// BenchmarkFig4_ElementwiseAdd executes the element-wise addition of two
// equally shaped matrices as a fragment-shader program (Figure 4).
func BenchmarkFig4_ElementwiseAdd(b *testing.B) {
	if err := tf.SetBackend("webgl"); err != nil {
		b.Fatal(err)
	}
	x := tf.Fill([]int{512, 512}, 1)
	y := tf.Fill([]int{512, 512}, 2)
	defer x.Dispose()
	defer y.Dispose()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := tf.Add(x, y)
		out.DataSync()
		out.Dispose()
	}
}

// onBackend activates backend and times op on it.
func onBackend(b *testing.B, backend string, op func()) {
	if err := tf.SetBackend(backend); err != nil {
		b.Fatal(err)
	}
	timeOnDevice(b, op)
}

// packingOp is the matmul + element-wise mixture used by the §3.9 packing
// ablation.
func packingOp() {
	tf.Tidy(func() []*tf.Tensor {
		a := tf.Fill([]int{256, 256}, 0.5)
		c := tf.Fill([]int{256, 256}, 0.25)
		x := tf.MatMul(a, c, false, false)
		for j := 0; j < 8; j++ {
			x = tf.Relu(tf.Add(tf.Mul(x, c), a))
		}
		x.DataSync()
		return nil
	})
}

// BenchmarkPacking_Packed stores four values per RGBA texel (§3.9; the
// paper reports 1.3-1.4x over unpacked).
func BenchmarkPacking_Packed(b *testing.B) { onBackend(b, "webgl", packingOp) }

// BenchmarkPacking_Unpacked is the one-value-per-texel baseline.
func BenchmarkPacking_Unpacked(b *testing.B) { onBackend(b, "webgl-unpacked", packingOp) }

// squeezeOp exercises shapes with size-1 dimensions, where the shader
// compiler's logical-shape squeezing saves coordinate arithmetic (§4.1,
// ~1.3x in the paper).
func squeezeOp() {
	tf.Tidy(func() []*tf.Tensor {
		x := tf.Fill([]int{1, 64, 1, 2048}, 0.5)
		y := tf.Fill([]int{1, 64, 1, 1}, 2)
		z := x
		for j := 0; j < 10; j++ {
			z = tf.Add(tf.Mul(z, y), x)
		}
		z.DataSync()
		return nil
	})
}

// BenchmarkLogicalMapping_Squeezed compiles samplers over non-degenerate
// dimensions only.
func BenchmarkLogicalMapping_Squeezed(b *testing.B) { onBackend(b, "webgl", squeezeOp) }

// BenchmarkLogicalMapping_Naive decodes every dimension per texel.
func BenchmarkLogicalMapping_Naive(b *testing.B) { onBackend(b, "webgl-nosqueeze", squeezeOp) }

// recyclingOp repeats same-shape model passes, the pattern that makes the
// texture recycler win (§4.1.2).
func recyclingOp() {
	tf.Tidy(func() []*tf.Tensor {
		a := tf.Fill([]int{128, 128}, 0.5)
		x := a
		for j := 0; j < 20; j++ {
			x = tf.Relu(tf.MatMul(x, a, false, false))
		}
		x.DataSync()
		return nil
	})
}

// BenchmarkTextureRecycling_On reuses disposed textures from the pool.
func BenchmarkTextureRecycling_On(b *testing.B) { onBackend(b, "webgl", recyclingOp) }

// BenchmarkTextureRecycling_Off deletes and reallocates every texture.
func BenchmarkTextureRecycling_Off(b *testing.B) { onBackend(b, "webgl-norecycle", recyclingOp) }

// BenchmarkConverter measures converting a MobileNet-sized weight set:
// pruning, packing into 4MB shards and uint8 quantization (§5.1).
func BenchmarkConverter(b *testing.B) {
	if err := tf.SetBackend("node"); err != nil {
		b.Fatal(err)
	}
	model, err := tf.MobileNetV1(tf.MobileNetConfig{
		Alpha: 0.5, InputSize: 96, NumClasses: 1000, IncludeTop: true, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer model.Dispose()
	graph, err := tf.ExportSavedModel(model, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := tf.NewMemStore()
		if _, err := tf.Convert(graph, store, tf.ConvertOptions{QuantizationBytes: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceCensus measures generating and summarizing the synthetic
// WebGLStats population (§4.1.3).
func BenchmarkDeviceCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		devices := environment.SyntheticCensus(100000, 1)
		environment.Report(devices)
	}
}

// BenchmarkPagingOverhead measures webgl execution under a tight device
// memory budget, where the backend pages textures to host memory (§4.1.2).
func BenchmarkPagingOverhead(b *testing.B) {
	if err := tf.SetBackend("webgl"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tf.Tidy(func() []*tf.Tensor {
			var kept []*tf.Tensor
			for j := 0; j < 24; j++ {
				kept = append(kept, tf.Fill([]int{128, 1024}, float32(j)))
			}
			sum := kept[0]
			for _, t := range kept[1:] {
				sum = tf.Add(sum, t)
			}
			sum.DataSync()
			return nil
		})
	}
}

// asyncReadLatency measures enqueue-to-resolution latency of tensor.Data()
// on the given webgl variant: WebGL 2 resolves on a fence, WebGL 1 polls
// the disjoint-timer-query bit (§4.1.1's two approaches).
func asyncReadLatency(b *testing.B, backend string) {
	if err := tf.SetBackend(backend); err != nil {
		b.Fatal(err)
	}
	x := tf.Fill([]int{64, 64}, 2)
	defer x.Dispose()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := tf.Mul(x, x)
		if _, err := y.Data().Await(); err != nil {
			b.Fatal(err)
		}
		y.Dispose()
	}
}

// BenchmarkAsyncRead_WebGL2Fence uses gl.fenceSync-style completion.
func BenchmarkAsyncRead_WebGL2Fence(b *testing.B) { asyncReadLatency(b, "webgl") }

// BenchmarkAsyncRead_WebGL1Polling uses EXT_disjoint_timer_query polling.
func BenchmarkAsyncRead_WebGL1Polling(b *testing.B) { asyncReadLatency(b, "webgl1") }

// BenchmarkFreeReshape measures the §3.4 claim that reshape is free: it
// re-views a 4M-element tensor without touching the data.
func BenchmarkFreeReshape(b *testing.B) {
	if err := tf.SetBackend("node"); err != nil {
		b.Fatal(err)
	}
	x := tf.Zeros(2048, 2048)
	defer x.Dispose()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := tf.Reshape(x, 1024, 4096)
		y.Dispose()
	}
}

// matmulOp is a dense 256³ matmul, the workload where the §4.3
// compute-shader advantage (workgroups + shared memory) shows.
func matmulOp() (op func(), done func()) {
	x := tf.Fill([]int{256, 256}, 1.0/256)
	op = func() {
		tf.Tidy(func() []*tf.Tensor {
			tf.MatMul(x, x, false, false).DataSync()
			return nil
		})
	}
	return op, x.Dispose
}

func matmulThroughput(b *testing.B, backend string) {
	if err := tf.SetBackend(backend); err != nil {
		b.Fatal(err)
	}
	op, done := matmulOp()
	defer done()
	timeOnDevice(b, op)
}

// BenchmarkWebGPU_MatMul runs the tiled compute-shader pipeline (§4.3
// future work: workgroups + shared memory).
func BenchmarkWebGPU_MatMul(b *testing.B) { matmulThroughput(b, "webgpu") }

// BenchmarkWebGL_MatMul runs the per-texel fragment-shader kernel the
// paper's backend uses today.
func BenchmarkWebGL_MatMul(b *testing.B) { matmulThroughput(b, "webgl") }

// TestModelledGPUTimeIsPinned pins, in picoseconds, what the device clock
// charges for one run of each workload behind a modelled number printed in
// EXPERIMENTS.md (Table 1's WebGL row and the §3.9, §4.1, §4.1.2 and §4.3
// ablations). The clock counts declared work, so these are equalities: a
// change that only makes the simulator faster must leave every one of them
// alone, and a change to the model updates them and the tables together.
func TestModelledGPUTimeIsPinned(t *testing.T) {
	plain := func(op func()) func(testing.TB) (func(), func()) {
		return func(testing.TB) (func(), func()) { return op, func() {} }
	}
	matmul := func(testing.TB) (func(), func()) { return matmulOp() }
	for _, c := range []struct {
		name, backend string
		setup         func(testing.TB) (op func(), done func())
		wantPS        int64
	}{
		{"table1", "webgl", mobileNetOp, 426_279_887},
		{"packing/packed", "webgl", plain(packingOp), 703_116_000},
		{"packing/unpacked", "webgl-unpacked", plain(packingOp), 1_480_332_000},
		{"squeeze/squeezed", "webgl", plain(squeezeOp), 443_122_625},
		{"squeeze/naive", "webgl-nosqueeze", plain(squeezeOp), 519_922_625},
		{"recycling/on", "webgl", plain(recyclingOp), 1_235_972_000},
		{"recycling/off", "webgl-norecycle", plain(recyclingOp), 4_310_972_000},
		{"matmul/fragment", "webgl", matmul, 467_044_000},
		{"matmul/compute", "webgpu", matmul, 262_244_000},
	} {
		if err := tf.SetBackend(c.backend); err != nil {
			t.Fatal(err)
		}
		op, done := c.setup(t)
		op() // first-run setup and the recycler's steady state
		var runs [2]int64
		for i := range runs {
			runs[i] = int64(math.Round(tf.Time(op).KernelMS * 1e9))
		}
		done()
		if runs[0] != runs[1] {
			t.Errorf("%s: two runs modelled %d ps and %d ps", c.name, runs[0], runs[1])
		}
		if runs[0] != c.wantPS {
			t.Errorf("%s: modelled %d ps, pinned %d ps", c.name, runs[0], c.wantPS)
		}
	}
}
