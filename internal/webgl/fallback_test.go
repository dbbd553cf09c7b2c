package webgl_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/ops"
	"repro/internal/tensor"
	"repro/internal/webgl"
)

// TestFallbackKernelsOnWebGL: the kernels that once had no shader program
// here and ran on the reference kernel through host memory — CumSum and
// Reverse — and the ones outside the range table, Gather and Tile's view,
// run as device programs in one eager pipeline, each output feeding the
// next program.
func TestFallbackKernelsOnWebGL(t *testing.T) {
	setBackend(t, "webgl")
	e := core.Global()
	e.Tidy("programs", func() []*tensor.Tensor {
		x := ops.FromValues([]float32{10, 11, 20, 21, 30, 31}, 3, 2)
		idx := ops.FromValuesTyped([]float32{2, 0}, []int{2}, tensor.Int32)
		g := ops.Gather(x, idx, 0)
		almostEqual(t, g.DataSync(), []float32{30, 31, 10, 11}, 0, "gather program")

		tiled := ops.Tile(ops.FromValues([]float32{1, 2}, 2), []int{3})
		almostEqual(t, tiled.DataSync(), []float32{1, 2, 1, 2, 1, 2}, 0, "tile program")

		cum := ops.CumSum(ops.FromValues([]float32{1, 2, 3, 4}, 1, 4), 1, false, false)
		almostEqual(t, cum.DataSync(), []float32{1, 3, 6, 10}, 0, "cumsum program")

		rev := ops.Reverse(ops.FromValues([]float32{1, 2, 3}, 3), 0)
		almostEqual(t, rev.DataSync(), []float32{3, 2, 1}, 0, "reverse program")

		y := ops.Relu(ops.SubScalar(ops.Reverse(g, 0), 15))
		almostEqual(t, y.DataSync(), []float32{0, 0, 15, 16}, 0, "reverse into program")
		return nil
	})
}

// TestTrainingOnWebGL runs a full optimizer step on the webgl backend:
// gradients flow through shader programs — the in-browser training the
// paper calls its major differentiator.
func TestTrainingOnWebGL(t *testing.T) {
	setBackend(t, "webgl")
	e := core.Global()
	init := ops.FromValues([]float32{0, 0}, 2)
	w := e.NewVariable(init, "webgl_w", true)
	init.Dispose()
	defer w.Dispose()

	x := ops.FromValues([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	target := ops.FromValues([]float32{5, 11, 17}, 3) // w = [1, 2]
	defer x.Dispose()
	defer target.Dispose()

	var loss float32
	for i := 0; i < 1000; i++ {
		e.Tidy("step", func() []*tensor.Tensor {
			res := e.VariableGrads(func() *tensor.Tensor {
				pred := ops.Reshape(ops.MatMul(x, ops.Reshape(w.Value(), 2, 1), false, false), 3)
				diff := ops.Sub(pred, target)
				return ops.Mean(ops.Mul(diff, diff), nil, false)
			}, []*core.Variable{w})
			loss = res.Value.DataSync()[0]
			w.Assign(ops.Sub(w.Value(), ops.MulScalar(res.Grads[w], 0.02)))
			return nil
		})
	}
	if loss > 1e-3 {
		t.Fatalf("webgl training did not converge: loss=%g w=%v", loss, w.Value().DataSync())
	}
	got := w.Value().DataSync()
	if math.Abs(float64(got[0])-1) > 0.05 || math.Abs(float64(got[1])-2) > 0.05 {
		t.Fatalf("learned w = %v, want [1 2]", got)
	}
}

// TestFP16ComputePipeline runs a computation on a 16-bit-float device and
// checks the results carry half precision (values rounded through fp16 at
// every store).
func TestFP16ComputePipeline(t *testing.T) {
	cfg := webgl.DefaultConfig()
	cfg.Device.HalfFloatOnly = true
	e := core.Global()
	e.RegisterBackend("webgl-fp16", func() (kernels.Backend, error) { return webgl.New(cfg), nil })
	setBackend(t, "webgl-fp16")

	e.Tidy("fp16", func() []*tensor.Tensor {
		x := ops.FromValues([]float32{1.0001, 2.0002, 3.0003}, 3)
		y := ops.AddScalar(x, 0)
		got := y.DataSync()
		for i, v := range got {
			want := glsim.RoundToFloat16(glsim.RoundToFloat16(x.DataSync()[i]))
			if v != want {
				t.Fatalf("element %d: %g not fp16-rounded (want %g)", i, v, want)
			}
		}
		// The epsilon failure mode: adding 1e-8 on fp16 is a no-op.
		tiny := ops.AddScalar(ops.Zeros(1), 1e-8)
		if tiny.DataSync()[0] != 0 {
			t.Fatal("1e-8 survived on a 16-bit device")
		}
		// The adjusted epsilon works.
		adjusted := ops.AddScalar(ops.Zeros(1), 1e-4)
		if adjusted.DataSync()[0] == 0 {
			t.Fatal("1e-4 vanished on a 16-bit device")
		}
		return nil
	})
}

// TestWebGLProfileKernelTime verifies tf.time semantics on the device:
// kernel time is positive and below wall time (upload/download excluded).
func TestWebGLProfileKernelTime(t *testing.T) {
	setBackend(t, "webgl")
	e := core.Global()
	ti := e.Time(func() {
		e.Tidy("timed", func() []*tensor.Tensor {
			a := ops.Fill([]int{128, 128}, 0.5)
			ops.MatMul(a, a, false, false).DataSync()
			return nil
		})
	})
	if !ti.HasKernelMS || ti.KernelMS <= 0 {
		t.Fatalf("device kernel time missing: %+v", ti)
	}
	if ti.KernelMS >= ti.WallMS {
		t.Fatalf("kernel time %.3f should exclude transfer (wall %.3f)", ti.KernelMS, ti.WallMS)
	}
}

// TestWebGLMemoryInfoFields checks the backend-specific memory counters.
func TestWebGLMemoryInfoFields(t *testing.T) {
	cfg := webgl.DefaultConfig()
	b := webgl.New(cfg)
	defer b.Close()
	id := tensor.NewDataID()
	b.Write(id, make([]float32, 1024), []int{32, 32}, tensor.Float32)
	mem := b.Memory()
	if mem.NumBuffers != 1 || mem.NumTextures != 1 || mem.TextureBytes == 0 {
		t.Fatalf("memory info %+v", mem)
	}
	b.DisposeData(id)
	mem = b.Memory()
	if mem.NumBuffers != 0 {
		t.Fatalf("buffer not released: %+v", mem)
	}
	// The texture went to the recycler, not back to the driver.
	if mem.FreeTextures != 1 {
		t.Fatalf("expected 1 recycled texture, got %+v", mem)
	}
}

// TestConvGradientsOnWebGL verifies that the backward convolution programs
// agree with the reference gradients, using the autodiff path end to end.
func TestConvGradientsOnWebGL(t *testing.T) {
	e := core.Global()
	grads := func(backend string) [][]float32 {
		if err := e.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
		x := ops.FromValues(seq(1*5*5*2), 1, 5, 5, 2)
		w := ops.FromValues(seq(3*3*2*3), 3, 3, 2, 3)
		dw := ops.FromValues(seq(3*3*2*2), 3, 3, 2, 2)
		defer x.Dispose()
		defer w.Dispose()
		defer dw.Dispose()
		res := e.Gradients(func() *tensor.Tensor {
			conv := ops.Conv2D(x, w, ops.ConvOpts{Strides: []int{2, 2}, Pad: "same"})
			pooled := ops.MaxPool(ops.DepthwiseConv2D(x, dw, ops.ConvOpts{Strides: []int{1, 1}, Pad: "same"}),
				ops.PoolOpts{FilterSize: []int{2, 2}, Strides: []int{1, 1}, Pad: "valid"})
			avg := ops.AvgPool(conv, ops.PoolOpts{FilterSize: []int{2, 2}, Strides: []int{1, 1}, Pad: "same"})
			return ops.Add(ops.Sum(ops.Square(pooled), nil, false), ops.Sum(avg, nil, false))
		}, []*tensor.Tensor{x, w, dw}, nil)
		out := make([][]float32, 3)
		for i, g := range res.Grads {
			out[i] = g.DataSync()
			g.Dispose()
		}
		res.Value.Dispose()
		return out
	}
	want := grads("cpu")
	got := grads("webgl")
	e.SetBackend("cpu")
	for i := range want {
		almostEqual(t, got[i], want[i], 1e-4, "conv grad input "+string(rune('0'+i)))
	}
}

// seq produces a deterministic, tie-free value pattern.
func seq(n int) []float32 {
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32((i*37)%91)/13 - 3
	}
	return vals
}

// TestDispatchIsAsync tests the §4.1.1 scheduling claim on its own terms:
// enqueueing an operation "typically takes sub-millisecond time, and
// [returns] a handle to the resulting tensor despite the computation not
// being done". Six chained 512² matmuls are enqueued on a one-worker
// device, and the enqueue is pinned by what it costs the host, against
// what the device's own clock says it bought:
//   - allocations: a whole cycle — the six enqueues, the device running
//     them, the fence and the disposes — stays within dispatchAllocs on a
//     warmed texture recycler (a count, so it holds on any host);
//   - host time: an enqueue returns within enqueueBudget (the best of five
//     cycles), and one matmul's modelled device time, which repeats to the
//     picosecond on any host, is at least ten such budgets. A host loop
//     over the output on the dispatching goroutine (an O(texels) pass of a
//     512² texture) blows the budget however fast the device's own work
//     becomes.
//
// Comparing the enqueue with the host's wall-clock time of the execution
// stays only as a sanity check, when the execution is long enough to read.
// Under the race detector only that ordering is checked: instrumented code
// on a loaded host has read 462 µs an enqueue on code that reads well
// under the budget alone, so the host-time bound, like the allocation
// count, holds in plain builds only.
func TestDispatchIsAsync(t *testing.T) {
	const (
		dispatchAllocs = 450 // 425 at the time of writing
		enqueueBudget  = 200 * time.Microsecond
	)
	setBackend(t, "webgl-serial")
	backend := core.Global().Backend()
	a := ops.Fill([]int{512, 512}, 1.0/512)
	defer a.Dispose()
	a.DataSync()
	var y [6]*tensor.Tensor
	var enqueue, execution time.Duration
	cycle := func() kernels.TimeInfo {
		info := backend.Time(func() {
			start := time.Now()
			x := a
			for i := range y {
				y[i] = ops.MatMul(x, a, false, false)
				x = y[i]
			}
			enqueue = time.Since(start)
		})
		execution = time.Duration(info.WallMS*float64(time.Millisecond)) - enqueue
		for _, yi := range y {
			yi.Dispose()
		}
		return info
	}
	gpu := cycle() // also warms the recycler: later cycles reuse its textures
	modelled := time.Duration(gpu.KernelMS / float64(len(y)) * float64(time.Millisecond))
	if modelled < 10*enqueueBudget {
		t.Fatalf("one 512² matmul is %v of modelled device time, under ten enqueue budgets (%v)", modelled, enqueueBudget)
	}
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		cycle()
		best = min(best, enqueue/time.Duration(len(y)))
		if execution >= 2*time.Millisecond && enqueue > execution {
			t.Errorf("enqueueing six matmuls took %v, longer than the %v they ran for", enqueue, execution)
		}
	}
	t.Logf("an enqueue: %v of host time (budget %v) for %v of modelled device time", best, enqueueBudget, modelled)
	if bufpool.RaceEnabled {
		// The detector's instrumentation sets the host time, and sync.Pool
		// drops entries at random under it.
		return
	}
	if best > enqueueBudget {
		t.Errorf("an enqueue took %v of host time at best, over its %v budget", best, enqueueBudget)
	}
	allocs := testing.AllocsPerRun(10, func() { cycle() })
	t.Logf("a cycle of six enqueues: %.0f allocations (budget %d)", allocs, dispatchAllocs)
	if allocs > dispatchAllocs {
		t.Errorf("a cycle of six enqueues made %.0f allocations, over its budget of %d", allocs, dispatchAllocs)
	}
}
