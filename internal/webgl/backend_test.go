package webgl_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/ops"
	"repro/internal/tensor"
	"repro/internal/webgl"
)

func init() {
	e := core.Global()
	e.RegisterBackend("cpu", func() (kernels.Backend, error) { return cpu.New(), nil })
	e.RegisterBackend("webgl", func() (kernels.Backend, error) { return webgl.New(webgl.DefaultConfig()), nil })

	unpacked := webgl.DefaultConfig()
	unpacked.Packed = false
	e.RegisterBackend("webgl-unpacked", func() (kernels.Backend, error) { return webgl.New(unpacked), nil })

	nosqueeze := webgl.DefaultConfig()
	nosqueeze.SqueezeLogicalShapes = false
	e.RegisterBackend("webgl-nosqueeze", func() (kernels.Backend, error) { return webgl.New(nosqueeze), nil })

	v1 := webgl.DefaultConfig()
	v1.Device.WebGLVersion = 1
	e.RegisterBackend("webgl1", func() (kernels.Backend, error) { return webgl.New(v1), nil })

	// One device worker: a program runs on the device goroutine itself, so
	// what the device allocates does not depend on the host's CPU count.
	serial := webgl.DefaultConfig()
	serial.Device.Workers = 1
	e.RegisterBackend("webgl-serial", func() (kernels.Backend, error) { return webgl.New(serial), nil })
}

func setBackend(t testing.TB, name string) {
	t.Helper()
	if err := core.Global().SetBackend(name); err != nil {
		t.Fatalf("SetBackend(%q): %v", name, err)
	}
	t.Cleanup(func() {
		if err := core.Global().SetBackend("cpu"); err != nil {
			t.Fatalf("restore backend: %v", err)
		}
	})
}

func almostEqual(t *testing.T, got, want []float32, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length mismatch got %d want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := float64(got[i]), float64(want[i])
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Abs(g-w) > tol+tol*math.Abs(w) {
			t.Fatalf("%s: element %d: got %g want %g", label, i, got[i], want[i])
		}
	}
}

// runCase evaluates fn on the cpu backend and on the named webgl variant
// and compares results element-wise.
func runCase(t *testing.T, backend, label string, fn func() *tensor.Tensor) {
	t.Helper()
	e := core.Global()
	if err := e.SetBackend("cpu"); err != nil {
		t.Fatal(err)
	}
	var want []float32
	var wantShape []int
	e.Tidy("cpu-"+label, func() []*tensor.Tensor {
		out := fn()
		want = out.DataSync()
		wantShape = tensor.CopyShape(out.Shape)
		return nil
	})
	if err := e.SetBackend(backend); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.SetBackend("cpu"); err != nil {
			t.Fatal(err)
		}
	}()
	var got []float32
	var gotShape []int
	e.Tidy("webgl-"+label, func() []*tensor.Tensor {
		out := fn()
		got = out.DataSync()
		gotShape = tensor.CopyShape(out.Shape)
		return nil
	})
	if !tensor.ShapesEqual(gotShape, wantShape) {
		t.Fatalf("%s on %s: shape mismatch got %v want %v", label, backend, gotShape, wantShape)
	}
	almostEqual(t, got, want, 2e-5, label+" on "+backend)
}

func randT(rng *rand.Rand, shape ...int) []float32 {
	vals := make([]float32, tensor.ShapeSize(shape))
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	return vals
}

func TestWebGLKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	av := randT(rng, 2, 3, 4)
	bv := randT(rng, 2, 3, 4)
	cv := randT(rng, 3, 1) // broadcast operand
	mv := randT(rng, 5, 7)
	nv := randT(rng, 7, 6)
	xv := randT(rng, 2, 9, 9, 3)
	wv := randT(rng, 3, 3, 3, 4)
	dwv := randT(rng, 3, 3, 3, 2)

	cases := map[string]func() *tensor.Tensor{
		"add":      func() *tensor.Tensor { return ops.Add(ops.FromValues(av, 2, 3, 4), ops.FromValues(bv, 2, 3, 4)) },
		"addBcast": func() *tensor.Tensor { return ops.Add(ops.FromValues(av, 2, 3, 4), ops.FromValues(cv, 3, 1)) },
		"mul":      func() *tensor.Tensor { return ops.Mul(ops.FromValues(av, 2, 3, 4), ops.FromValues(bv, 2, 3, 4)) },
		"div": func() *tensor.Tensor {
			return ops.Div(ops.FromValues(av, 2, 3, 4), ops.AddScalar(ops.Abs(ops.FromValues(bv, 2, 3, 4)), 1))
		},
		"relu":    func() *tensor.Tensor { return ops.Relu(ops.FromValues(av, 2, 3, 4)) },
		"relu6":   func() *tensor.Tensor { return ops.Relu6(ops.MulScalar(ops.FromValues(av, 2, 3, 4), 5)) },
		"sigmoid": func() *tensor.Tensor { return ops.Sigmoid(ops.FromValues(av, 2, 3, 4)) },
		"tanh":    func() *tensor.Tensor { return ops.Tanh(ops.FromValues(av, 2, 3, 4)) },
		"exp":     func() *tensor.Tensor { return ops.Exp(ops.FromValues(av, 2, 3, 4)) },
		"sqrtAbs": func() *tensor.Tensor { return ops.Sqrt(ops.Abs(ops.FromValues(av, 2, 3, 4))) },
		"clip":    func() *tensor.Tensor { return ops.ClipByValue(ops.FromValues(av, 2, 3, 4), -0.5, 0.5) },
		"greater": func() *tensor.Tensor { return ops.Greater(ops.FromValues(av, 2, 3, 4), ops.FromValues(bv, 2, 3, 4)) },
		"where": func() *tensor.Tensor {
			a := ops.FromValues(av, 2, 3, 4)
			b := ops.FromValues(bv, 2, 3, 4)
			return ops.Where(ops.Greater(a, b), a, b)
		},
		"matmul": func() *tensor.Tensor {
			return ops.MatMul(ops.FromValues(mv, 5, 7), ops.FromValues(nv, 7, 6), false, false)
		},
		"matmulTA": func() *tensor.Tensor {
			return ops.MatMul(ops.FromValues(mv, 5, 7), ops.FromValues(randT(rand.New(rand.NewSource(3)), 5, 6), 5, 6), true, false)
		},
		"matmulTB": func() *tensor.Tensor {
			return ops.MatMul(ops.FromValues(mv, 5, 7), ops.FromValues(randT(rand.New(rand.NewSource(4)), 6, 7), 6, 7), false, true)
		},
		"conv2d": func() *tensor.Tensor {
			return ops.Conv2D(ops.FromValues(xv, 2, 9, 9, 3), ops.FromValues(wv, 3, 3, 3, 4), ops.ConvOpts{Strides: []int{2, 2}, Pad: "same"})
		},
		"conv2dV": func() *tensor.Tensor {
			return ops.Conv2D(ops.FromValues(xv, 2, 9, 9, 3), ops.FromValues(wv, 3, 3, 3, 4), ops.ConvOpts{Strides: []int{1, 1}, Pad: "valid"})
		},
		"depthwise": func() *tensor.Tensor {
			return ops.DepthwiseConv2D(ops.FromValues(xv, 2, 9, 9, 3), ops.FromValues(dwv, 3, 3, 3, 2), ops.ConvOpts{Strides: []int{1, 1}, Pad: "same"})
		},
		"maxpool": func() *tensor.Tensor {
			return ops.MaxPool(ops.FromValues(xv, 2, 9, 9, 3), ops.PoolOpts{FilterSize: []int{2, 2}, Strides: []int{2, 2}, Pad: "same"})
		},
		"avgpool": func() *tensor.Tensor {
			return ops.AvgPool(ops.FromValues(xv, 2, 9, 9, 3), ops.PoolOpts{FilterSize: []int{3, 3}, Strides: []int{1, 1}, Pad: "valid"})
		},
		"sumAll":    func() *tensor.Tensor { return ops.Sum(ops.FromValues(av, 2, 3, 4), nil, false) },
		"sumAxis":   func() *tensor.Tensor { return ops.Sum(ops.FromValues(av, 2, 3, 4), []int{1}, false) },
		"meanKeep":  func() *tensor.Tensor { return ops.Mean(ops.FromValues(av, 2, 3, 4), []int{0, 2}, true) },
		"maxAxis":   func() *tensor.Tensor { return ops.Max(ops.FromValues(av, 2, 3, 4), []int{2}, false) },
		"argmax":    func() *tensor.Tensor { return ops.ArgMax(ops.FromValues(av, 2, 3, 4), 2) },
		"softmax":   func() *tensor.Tensor { return ops.Softmax(ops.FromValues(mv, 5, 7)) },
		"transpose": func() *tensor.Tensor { return ops.Transpose(ops.FromValues(av, 2, 3, 4), 2, 0, 1) },
		"reshape":   func() *tensor.Tensor { return ops.Reshape(ops.FromValues(av, 2, 3, 4), 4, 6) },
		"pad":       func() *tensor.Tensor { return ops.Pad(ops.FromValues(mv, 5, 7), [][2]int{{1, 2}, {0, 3}}, 0.5) },
		"slice":     func() *tensor.Tensor { return ops.Slice(ops.FromValues(av, 2, 3, 4), []int{0, 1, 1}, []int{2, 2, -1}) },
		"concat": func() *tensor.Tensor {
			return ops.Concat([]*tensor.Tensor{ops.FromValues(mv, 5, 7), ops.FromValues(mv, 5, 7)}, 1)
		},
		"batchnorm": func() *tensor.Tensor {
			x := ops.FromValues(xv, 2, 9, 9, 3)
			mean := ops.FromValues([]float32{0.1, -0.2, 0.3}, 3)
			variance := ops.FromValues([]float32{1, 2, 0.5}, 3)
			offset := ops.FromValues([]float32{0, 0.5, -0.5}, 3)
			scale := ops.FromValues([]float32{1, 0.7, 1.3}, 3)
			return ops.BatchNorm(x, mean, variance, offset, scale, 1e-3)
		},
		"squeezy1x3x1x2": func() *tensor.Tensor {
			// The 1x3x1x2 example of Section 4.1's mapping optimization.
			x := ops.FromValues(randT(rand.New(rand.NewSource(5)), 1, 3, 1, 2), 1, 3, 1, 2)
			y := ops.FromValues(randT(rand.New(rand.NewSource(6)), 1, 3, 1, 2), 1, 3, 1, 2)
			return ops.Add(ops.Mul(x, y), x)
		},
		"fill": func() *tensor.Tensor { return ops.Fill([]int{3, 5}, 2.5) },
		"gather": func() *tensor.Tensor {
			idx := ops.FromValuesTyped([]float32{2, 0, 1, 2}, []int{4}, tensor.Int32)
			return ops.Gather(ops.FromValues(mv, 5, 7), idx, 0)
		},
		"onehot": func() *tensor.Tensor {
			idx := ops.FromValuesTyped([]float32{1, 3, 0}, []int{3}, tensor.Int32)
			return ops.OneHot(idx, 5)
		},
		"tile": func() *tensor.Tensor {
			return ops.Tile(ops.FromValues(mv, 5, 7), []int{2, 3})
		},
		"conv2dDilated": func() *tensor.Tensor {
			return ops.Conv2D(ops.FromValues(xv, 2, 9, 9, 3), ops.FromValues(wv, 3, 3, 3, 4),
				ops.ConvOpts{Strides: []int{1, 1}, Dilations: []int{2, 2}, Pad: "same"})
		},
	}
	for _, backend := range []string{"webgl", "webgl-unpacked", "webgl-nosqueeze"} {
		for name, fn := range cases {
			t.Run(backend+"/"+name, func(t *testing.T) { runCase(t, backend, name, fn) })
		}
	}
}

func TestAsyncReadReleasesCaller(t *testing.T) {
	setBackend(t, "webgl")
	e := core.Global()
	e.Tidy("async", func() []*tensor.Tensor {
		a := ops.Fill([]int{256, 256}, 1)
		b := ops.MatMul(a, a, false, false)
		fut := b.Data()
		vals, err := fut.Await()
		if err != nil {
			t.Fatalf("async read: %v", err)
		}
		if vals[0] != 256 {
			t.Fatalf("got %g want 256", vals[0])
		}
		return nil
	})
}

func TestWebGL1PollingRead(t *testing.T) {
	setBackend(t, "webgl1")
	e := core.Global()
	e.Tidy("poll", func() []*tensor.Tensor {
		a := ops.Fill([]int{64, 64}, 2)
		b := ops.Mul(a, a)
		vals, err := b.Data().Await()
		if err != nil {
			t.Fatalf("webgl1 read: %v", err)
		}
		if vals[0] != 4 {
			t.Fatalf("got %g want 4", vals[0])
		}
		return nil
	})
}

func TestTextureRecycling(t *testing.T) {
	cfg := webgl.DefaultConfig()
	b := webgl.New(cfg)
	defer b.Close()
	e := core.NewEngine()
	e.RegisterBackend("webgl-local", func() (kernels.Backend, error) { return b, nil })
	if err := e.SetBackend("webgl-local"); err != nil {
		t.Fatal(err)
	}
	// Repeated same-shape passes should hit the recycler after warmup.
	for i := 0; i < 10; i++ {
		id := tensor.NewDataID()
		b.Write(id, make([]float32, 64*64), []int{64, 64}, tensor.Float32)
		b.DisposeData(id)
	}
	acquires, hits := b.RecyclingStats()
	if hits < 8 {
		t.Fatalf("expected >=8 recycle hits out of %d acquires, got %d", acquires, hits)
	}
	created := b.Device().Stats().TexturesCreated
	if created > 2 {
		t.Fatalf("expected at most 2 texture creations with recycling, got %d", created)
	}
}

func TestPagingAvoidsOOM(t *testing.T) {
	cfg := webgl.DefaultConfig()
	cfg.PagingThresholdBytes = 1 << 20 // 1 MiB budget
	cfg.Recycling = false
	b := webgl.New(cfg)
	defer b.Close()

	// Allocate ~4 MiB of tensors: without paging this would exceed the
	// device budget; with paging, device memory stays bounded and all
	// values remain readable.
	const n = 64
	ids := make([]tensor.DataID, n)
	for i := 0; i < n; i++ {
		vals := make([]float32, 64*1024/4) // 64 KiB each
		for j := range vals {
			vals[j] = float32(i)
		}
		ids[i] = tensor.NewDataID()
		b.Write(ids[i], vals, []int{len(vals)}, tensor.Float32)
	}
	outs, _ := b.PagingStats()
	if outs == 0 {
		t.Fatal("expected page-outs above the memory threshold")
	}
	// Every tensor still reads back correctly, including paged ones.
	for i := 0; i < n; i++ {
		vals := b.ReadSync(ids[i])
		if vals[0] != float32(i) || vals[len(vals)-1] != float32(i) {
			t.Fatalf("tensor %d corrupted after paging: got %g", i, vals[0])
		}
	}
	if got := b.Memory().TextureBytes; got > 4<<20 {
		t.Fatalf("device memory %d far exceeds threshold despite paging", got)
	}
}

func TestEpsilonAdjustmentFP16(t *testing.T) {
	// On a 16-bit device, 1e-8 rounds to zero: log(x + 1e-8) at x=0 is
	// -Inf — the Android bug of Section 4.1.3. The adjusted epsilon
	// (1e-4) survives fp16 rounding.
	if glsim.RoundToFloat16(1e-8) != 0 {
		t.Fatal("1e-8 should round to zero in fp16")
	}
	if glsim.RoundToFloat16(1e-4) == 0 {
		t.Fatal("1e-4 must be representable in fp16")
	}

	cfg := webgl.DefaultConfig()
	cfg.Device.HalfFloatOnly = true
	b := webgl.New(cfg)
	defer b.Close()
	if b.Epsilon() != 1e-4 {
		t.Fatalf("fp16 device epsilon = %g, want 1e-4", b.Epsilon())
	}
	full := webgl.New(webgl.DefaultConfig())
	defer full.Close()
	if full.Epsilon() != 1e-7 {
		t.Fatalf("fp32 device epsilon = %g, want 1e-7", full.Epsilon())
	}

	// Demonstrate the failure mode end to end on the fp16 device: write
	// the naive epsilon, observe it vanish.
	id := tensor.NewDataID()
	b.Write(id, []float32{1e-8}, []int{1}, tensor.Float32)
	if got := b.ReadSync(id)[0]; got != 0 {
		t.Fatalf("fp16 texture stored 1e-8 as %g, want 0", got)
	}
	id2 := tensor.NewDataID()
	b.Write(id2, []float32{1e-4}, []int{1}, tensor.Float32)
	if got := b.ReadSync(id2)[0]; got == 0 {
		t.Fatal("fp16 texture must represent 1e-4")
	}
}

func TestFig4ElementwiseAddShader(t *testing.T) {
	// Figure 4: the addition of two equally shaped matrices executed by
	// the WebGL backend — main() runs per output value, in parallel.
	setBackend(t, "webgl")
	e := core.Global()
	dev := func() *glsim.Device {
		b, _ := e.Backend().(*webgl.Backend)
		return b.Device()
	}()
	before := dev.Stats()
	e.Tidy("fig4", func() []*tensor.Tensor {
		a := ops.FromValues([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
		b := ops.FromValues([]float32{10, 20, 30, 40, 50, 60}, 2, 3)
		c := ops.Add(a, b)
		almostEqual(t, c.DataSync(), []float32{11, 22, 33, 44, 55, 66}, 0, "fig4 add")
		return nil
	})
	after := dev.Stats()
	if after.ProgramsExecuted <= before.ProgramsExecuted {
		t.Fatal("expected the addition to execute as a device program")
	}
}
