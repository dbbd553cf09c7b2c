package native_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernels"
	"repro/internal/native"
	"repro/internal/ops"
	"repro/internal/tensor"
)

func init() {
	e := core.Global()
	e.RegisterBackend("cpu", func() (kernels.Backend, error) { return cpu.New(), nil })
	e.RegisterBackend("node", func() (kernels.Backend, error) { return native.New(), nil })
}

func randVals(rng *rand.Rand, n int) []float32 {
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	return vals
}

// runBoth evaluates fn on cpu (reference) and node and compares.
func runBoth(t *testing.T, label string, fn func() *tensor.Tensor) {
	t.Helper()
	e := core.Global()
	if err := e.SetBackend("cpu"); err != nil {
		t.Fatal(err)
	}
	var want []float32
	var wantShape []int
	e.Tidy("cpu", func() []*tensor.Tensor {
		out := fn()
		want = out.DataSync()
		wantShape = tensor.CopyShape(out.Shape)
		return nil
	})
	if err := e.SetBackend("node"); err != nil {
		t.Fatal(err)
	}
	defer e.SetBackend("cpu")
	var got []float32
	var gotShape []int
	e.Tidy("node", func() []*tensor.Tensor {
		out := fn()
		got = out.DataSync()
		gotShape = tensor.CopyShape(out.Shape)
		return nil
	})
	if !tensor.ShapesEqual(gotShape, wantShape) {
		t.Fatalf("%s: shape %v vs %v", label, gotShape, wantShape)
	}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 2e-5*(1+math.Abs(float64(want[i]))) {
			t.Fatalf("%s: element %d: node %g vs cpu %g", label, i, got[i], want[i])
		}
	}
}

func TestNativeKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	av := randVals(rng, 24)
	bv := randVals(rng, 24)
	mv := randVals(rng, 35)
	nv := randVals(rng, 42)
	xv := randVals(rng, 2*9*9*3)
	wv := randVals(rng, 3*3*3*4)
	dwv := randVals(rng, 3*3*3*2)

	cases := map[string]func() *tensor.Tensor{
		"add":      func() *tensor.Tensor { return ops.Add(ops.FromValues(av, 2, 3, 4), ops.FromValues(bv, 2, 3, 4)) },
		"addBcast": func() *tensor.Tensor { return ops.Add(ops.FromValues(av, 2, 3, 4), ops.Scalar(3)) },
		"mulDiv": func() *tensor.Tensor {
			a := ops.FromValues(av, 2, 3, 4)
			return ops.Div(ops.Mul(a, a), ops.AddScalar(ops.Abs(ops.FromValues(bv, 2, 3, 4)), 1))
		},
		"matmul": func() *tensor.Tensor {
			return ops.MatMul(ops.FromValues(mv, 5, 7), ops.FromValues(nv, 7, 6), false, false)
		},
		"matmulTA": func() *tensor.Tensor {
			return ops.MatMul(ops.FromValues(mv, 7, 5), ops.FromValues(nv, 7, 6), true, false)
		},
		"matmulTB": func() *tensor.Tensor {
			return ops.MatMul(ops.FromValues(mv, 5, 7), ops.FromValues(nv, 6, 7), false, true)
		},
		"conv2d": func() *tensor.Tensor {
			return ops.Conv2D(ops.FromValues(xv, 2, 9, 9, 3), ops.FromValues(wv, 3, 3, 3, 4),
				ops.ConvOpts{Strides: []int{2, 2}, Pad: "same"})
		},
		"depthwise": func() *tensor.Tensor {
			return ops.DepthwiseConv2D(ops.FromValues(xv, 2, 9, 9, 3), ops.FromValues(dwv, 3, 3, 3, 2),
				ops.ConvOpts{Strides: []int{1, 1}, Pad: "same"})
		},
		"maxpool": func() *tensor.Tensor {
			return ops.MaxPool(ops.FromValues(xv, 2, 9, 9, 3), ops.PoolOpts{FilterSize: []int{3, 3}, Strides: []int{2, 2}, Pad: "same"})
		},
		"avgpool": func() *tensor.Tensor {
			return ops.AvgPool(ops.FromValues(xv, 2, 9, 9, 3), ops.PoolOpts{FilterSize: []int{2, 2}})
		},
		"softmax": func() *tensor.Tensor { return ops.Softmax(ops.FromValues(mv, 5, 7)) },
		"sum":     func() *tensor.Tensor { return ops.Sum(ops.FromValues(av, 2, 3, 4), []int{1, 2}, false) },
		"mean":    func() *tensor.Tensor { return ops.Mean(ops.FromValues(av, 2, 3, 4), nil, false) },
		"batchnorm": func() *tensor.Tensor {
			x := ops.FromValues(xv, 2, 9, 9, 3)
			return ops.BatchNorm(x,
				ops.FromValues([]float32{0.1, 0.2, 0.3}, 3),
				ops.FromValues([]float32{1, 2, 3}, 3),
				ops.FromValues([]float32{0, 1, -1}, 3),
				ops.FromValues([]float32{1, 0.5, 2}, 3), 1e-3)
		},
		"batchnormFallback": func() *tensor.Tensor {
			// Full-shape parameters exercise the reference fallback path.
			x := ops.FromValues(av, 2, 3, 4)
			m := ops.FromValues(bv, 2, 3, 4)
			v := ops.AddScalar(ops.Abs(ops.FromValues(bv, 2, 3, 4)), 1)
			return ops.BatchNorm(x, m, v, nil, nil, 1e-3)
		},
		"relu6": func() *tensor.Tensor { return ops.Relu6(ops.MulScalar(ops.FromValues(av, 24), 4)) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) { runBoth(t, name, fn) })
	}
}

func TestNativeTrainingParity(t *testing.T) {
	// A gradient computation must agree between cpu and node backends.
	e := core.Global()
	rng := rand.New(rand.NewSource(5))
	xv := randVals(rng, 12)
	wv := randVals(rng, 8)

	grads := func(backend string) []float32 {
		if err := e.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
		x := ops.FromValues(xv, 3, 4)
		w := ops.FromValues(wv, 4, 2)
		defer x.Dispose()
		defer w.Dispose()
		res := e.Gradients(func() *tensor.Tensor {
			return ops.Sum(ops.Sigmoid(ops.MatMul(x, w, false, false)), nil, false)
		}, []*tensor.Tensor{w}, nil)
		out := res.Grads[0].DataSync()
		res.Value.Dispose()
		res.Grads[0].Dispose()
		return out
	}
	want := grads("cpu")
	got := grads("node")
	e.SetBackend("cpu")
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-5 {
			t.Fatalf("grad[%d]: node %g vs cpu %g", i, got[i], want[i])
		}
	}
}

// TestWorkersConfiguration: the worker budget defaults to GOMAXPROCS — the
// bound Go already lets an operator set — and SetWorkers(<1) returns to it.
func TestWorkersConfiguration(t *testing.T) {
	if got, want := native.DefaultWorkers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("DefaultWorkers() = %d, want GOMAXPROCS = %d", got, want)
	}
	b := native.New()
	if got := b.Workers(); got != native.DefaultWorkers() {
		t.Fatalf("New(): Workers() = %d, want %d", got, native.DefaultWorkers())
	}
	b.SetWorkers(7)
	if got := b.Workers(); got != 7 {
		t.Fatalf("SetWorkers(7): Workers() = %d, want 7", got)
	}
	b.SetWorkers(-1)
	if got := b.Workers(); got != native.DefaultWorkers() {
		t.Fatalf("SetWorkers(-1): Workers() = %d, want default %d", got, native.DefaultWorkers())
	}
}
