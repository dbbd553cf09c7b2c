package webgpu_test

import (
	"errors"
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
	"repro/internal/webgpu"
)

func init() {
	e := core.Global()
	e.RegisterBackend("cpu", func() (kernels.Backend, error) { return cpu.New(), nil })
	e.RegisterBackend("webgl", func() (kernels.Backend, error) { return webgl.New(webgl.DefaultConfig()), nil })
	e.RegisterBackend("webgpu", func() (kernels.Backend, error) {
		return webgpu.New(webgl.DefaultConfig()), nil
	})
}

func onBackend(t *testing.T, backend string, fn func() []float32) []float32 {
	t.Helper()
	e := core.Global()
	if err := e.SetBackend(backend); err != nil {
		t.Fatal(err)
	}
	defer e.SetBackend("cpu")
	var out []float32
	e.Tidy("webgpu-test", func() []*tensor.Tensor {
		out = fn()
		return nil
	})
	return out
}

func TestComputeMatMulParity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dims := range [][3]int{{3, 5, 4}, {16, 16, 16}, {17, 33, 19}, {50, 20, 70}, {1, 100, 1}} {
		m, k, n := dims[0], dims[1], dims[2]
		av := make([]float32, m*k)
		bv := make([]float32, k*n)
		for i := range av {
			av[i] = float32(rng.NormFloat64())
		}
		for i := range bv {
			bv[i] = float32(rng.NormFloat64())
		}
		run := func() []float32 {
			return ops.MatMul(ops.FromValues(av, m, k), ops.FromValues(bv, k, n), false, false).DataSync()
		}
		want := onBackend(t, "cpu", run)
		got := onBackend(t, "webgpu", run)
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-4*(1+math.Abs(float64(want[i]))) {
				t.Fatalf("%dx%dx%d: element %d: webgpu %g vs cpu %g", m, k, n, i, got[i], want[i])
			}
		}
	}
}

func TestComputeMatMulBatchBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	av := make([]float32, 4*6)
	bv := make([]float32, 3*6*5)
	for i := range av {
		av[i] = float32(rng.NormFloat64())
	}
	for i := range bv {
		bv[i] = float32(rng.NormFloat64())
	}
	run := func() []float32 {
		a := ops.FromValues(av, 1, 4, 6)
		b := ops.FromValues(bv, 3, 6, 5)
		return ops.BatchMatMul(a, b, false, false).DataSync()
	}
	want := onBackend(t, "cpu", run)
	got := onBackend(t, "webgpu", run)
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-4 {
			t.Fatalf("element %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestTransposedMatMulFallsBackToFragmentPath: what the compute pipeline
// declines runs on the inherited fragment-shader kernel — one device
// program, nothing read back to the host and nothing uploaded before the
// caller reads the result. A malformed call is declined the same way and
// fails on the device side, with the fragment kernel's error and no
// readback.
func TestTransposedMatMulFallsBackToFragmentPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return v
	}
	av, bv := vals(6*4), vals(6*5)
	for _, c := range []struct {
		name    string
		run     func() *tensor.Tensor
		wantErr bool
	}{
		{name: "transposed A", run: func() *tensor.Tensor {
			return ops.MatMul(ops.FromValues(av, 6, 4), ops.FromValues(bv, 6, 5), true, false)
		}},
		{name: "transposed B", run: func() *tensor.Tensor {
			return ops.MatMul(ops.FromValues(av, 4, 6), ops.FromValues(bv, 5, 6), false, true)
		}},
		{name: "rank-mismatched operands", wantErr: true, run: func() *tensor.Tensor {
			return ops.BatchMatMul(ops.FromValues(av, 4, 6), ops.FromValues(bv, 1, 6, 5), false, false)
		}},
		{name: "batch dims that do not broadcast", wantErr: true, run: func() *tensor.Tensor {
			return ops.BatchMatMul(ops.FromValues(av, 2, 3, 4), ops.FromValues(vals(3*4*5), 3, 4, 5), false, false)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var want []float32
			if !c.wantErr {
				want = onBackend(t, "cpu", func() []float32 { return c.run().DataSync() })
			}
			e := core.Global()
			got := onBackend(t, "webgpu", func() []float32 {
				dev := e.Backend().(*webgpu.Backend).Device()
				// The run uploads its two operands (FromValues), and
				// nothing else.
				<-dev.FenceSync()
				before := dev.Stats()
				var out *tensor.Tensor
				var failed any
				func() {
					defer func() { failed = recover() }()
					out = c.run()
				}()
				<-dev.FenceSync()
				after := dev.Stats()
				if reads := after.Readbacks - before.Readbacks; reads != 0 {
					t.Errorf("%d readbacks before the result is read, want 0: the reference kernel ran", reads)
				}
				if ups := after.Uploads - before.Uploads; ups != 2 {
					t.Errorf("%d uploads, want the 2 operands only", ups)
				}
				programs := after.ProgramsExecuted - before.ProgramsExecuted
				if c.wantErr {
					var opErr *core.OpError
					if err, _ := failed.(error); !errors.As(err, &opErr) {
						t.Errorf("panic value %v, want the fragment kernel's *core.OpError", failed)
					}
					if programs != 0 {
						t.Errorf("%d device programs for a malformed call, want 0", programs)
					}
					return nil
				}
				if failed != nil {
					panic(failed)
				}
				if programs != 1 {
					t.Errorf("%d device programs, want the one fragment-shader matmul", programs)
				}
				return out.DataSync()
			})
			for i := range want {
				if math.Abs(float64(got[i]-want[i])) > 1e-4 {
					t.Fatalf("element %d: %g vs %g", i, got[i], want[i])
				}
			}
		})
	}
}

// TestWebGPUSharedMemoryReducesFetches is the point of workgroups + shared
// memory (§4.3): each operand value is fetched once per tile instead of
// once per output element. For a 128³ matmul the packed fragment shader
// fetches B once and A a quarter of a time per multiply-add,
// 1.25·128³; the tiled pipeline fetches each operand element once per
// opposing tile, 2·128²·(128/16) — a tenth as many — and reads the staged
// tiles from workgroup memory instead. The device counts both.
func TestWebGPUSharedMemoryReducesFetches(t *testing.T) {
	e := core.Global()
	counted := func(backend string) (fetches, shared int64) {
		if err := e.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
		defer e.SetBackend("cpu")
		dev := e.Backend().(interface{ Device() *glsim.Device }).Device()
		e.Tidy("fetch-count", func() []*tensor.Tensor {
			a := ops.Fill([]int{128, 128}, 0.5)
			a.DataSync()
			before := dev.Stats()
			ops.MatMul(a, a, false, false).DataSync()
			after := dev.Stats()
			fetches, shared = after.Fetches-before.Fetches, after.SharedReads-before.SharedReads
			return nil
		})
		return fetches, shared
	}
	const n = 128
	if fetches, shared := counted("webgl"); fetches != n*n*n+n*n*n/4 || shared != 0 {
		t.Errorf("fragment matmul: %d fetches, %d shared reads; want %d and 0", fetches, shared, n*n*n+n*n*n/4)
	}
	if fetches, shared := counted("webgpu"); fetches != 2*n*n*(n/webgpu.TileSize) || shared != n*n*n+n*n*(n/webgpu.TileSize) {
		t.Errorf("compute matmul: %d fetches, %d shared reads; want %d and %d",
			fetches, shared, 2*n*n*(n/webgpu.TileSize), n*n*n+n*n*(n/webgpu.TileSize))
	}
}
