package core_test

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernels"
	"repro/internal/ops"
	"repro/internal/tensor"
)

func init() {
	e := core.Global()
	e.RegisterBackend("cpu", func() (kernels.Backend, error) { return cpu.New(), nil })
	e.RegisterBackend("cpu2", func() (kernels.Backend, error) { return cpu.NewNamed("cpu2"), nil })
}

func TestFreeReshapeSharesContainer(t *testing.T) {
	e := core.Global()
	memBefore := e.Memory()
	a := ops.FromValues([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	afterCreate := e.Memory()
	b := ops.Reshape(a, 3, 2)
	c := ops.Reshape(b, 6)
	afterReshapes := e.Memory()

	if a.DataID != b.DataID || b.DataID != c.DataID {
		t.Fatal("reshapes must share the data container (Section 3.4)")
	}
	if afterReshapes.NumBytes != afterCreate.NumBytes {
		t.Fatalf("reshape allocated bytes: %d -> %d", afterCreate.NumBytes, afterReshapes.NumBytes)
	}
	if afterReshapes.NumDataBuffers != afterCreate.NumDataBuffers {
		t.Fatal("reshape created a new buffer")
	}
	if afterReshapes.NumTensors != memBefore.NumTensors+3 {
		t.Fatalf("expected 3 live tensors, got %d", afterReshapes.NumTensors-memBefore.NumTensors)
	}

	// Disposal is reference-counted: the container frees only when the
	// last view goes away.
	a.Dispose()
	b.Dispose()
	if got := c.DataSync(); got[5] != 6 {
		t.Fatal("container freed while a view was still alive")
	}
	c.Dispose()
	if end := e.Memory(); end.NumBytes != memBefore.NumBytes || end.NumDataBuffers != memBefore.NumDataBuffers {
		t.Fatalf("container leaked: %+v vs %+v", end, memBefore)
	}
}

func TestDoubleDisposeIsSafe(t *testing.T) {
	a := ops.Scalar(1)
	a.Dispose()
	a.Dispose() // no-op
	if !a.Disposed() {
		t.Fatal("Disposed() should report true")
	}
}

func TestUseAfterDisposePanics(t *testing.T) {
	a := ops.Scalar(1)
	a.Dispose()
	defer func() {
		if recover() == nil {
			t.Fatal("DataSync on disposed tensor must panic")
		}
	}()
	a.DataSync()
}

func TestNestedTidyScopes(t *testing.T) {
	e := core.Global()
	before := e.NumTensors()
	var inner *tensor.Tensor
	e.Tidy("outer", func() []*tensor.Tensor {
		a := ops.Scalar(1)
		e.Tidy("inner", func() []*tensor.Tensor {
			b := ops.Add(a, a)
			inner = ops.Mul(b, b)
			return []*tensor.Tensor{inner}
		})
		// inner escaped the inner scope into the outer scope; it is
		// still alive here.
		if inner.DataSync()[0] != 4 {
			t.Fatal("escaped tensor lost its value")
		}
		return nil
	})
	if e.NumTensors() != before {
		t.Fatalf("nested tidy leaked: %d -> %d", before, e.NumTensors())
	}
	if !inner.Disposed() {
		t.Fatal("outer scope should have disposed the escaped tensor")
	}
}

func TestKeepSurvivesTidy(t *testing.T) {
	e := core.Global()
	var kept *tensor.Tensor
	e.Tidy("scope", func() []*tensor.Tensor {
		kept = ops.Scalar(7).Keep()
		return nil
	})
	if kept.Disposed() {
		t.Fatal("Keep() tensor was disposed by tidy")
	}
	if kept.DataSync()[0] != 7 {
		t.Fatal("kept tensor corrupted")
	}
	kept.Dispose()
}

func TestBackendMigration(t *testing.T) {
	e := core.Global()
	if err := e.SetBackend("cpu"); err != nil {
		t.Fatal(err)
	}
	a := ops.FromValues([]float32{1, 2, 3}, 3)
	view := ops.Reshape(a, 3, 1)
	if err := e.SetBackend("cpu2"); err != nil {
		t.Fatal(err)
	}
	defer e.SetBackend("cpu")
	// Using a on the new backend migrates the container; the shared view
	// must keep working.
	b := ops.MulScalar(a, 2)
	if got := b.DataSync(); got[2] != 6 {
		t.Fatalf("migrated compute wrong: %v", got)
	}
	if got := view.DataSync(); got[0] != 1 {
		t.Fatalf("shared view broken after migration: %v", got)
	}
	a.Dispose()
	view.Dispose()
	b.Dispose()
}

func TestProfileReportsKernelsAndMemory(t *testing.T) {
	e := core.Global()
	info := e.Profile(func() {
		e.Tidy("profiled", func() []*tensor.Tensor {
			a := ops.FromValues([]float32{1, 2, 3, 4}, 2, 2)
			b := ops.MatMul(a, a, false, false)
			ops.Softmax(b).DataSync()
			return nil
		})
	})
	if len(info.Kernels) == 0 {
		t.Fatal("profile recorded no kernels")
	}
	names := strings.Join(info.KernelNames(), ",")
	if !strings.Contains(names, "BatchMatMul") || !strings.Contains(names, "Softmax") {
		t.Fatalf("kernel names = %s", names)
	}
	if info.PeakBytes <= 0 {
		t.Fatalf("peak bytes = %d", info.PeakBytes)
	}
	if info.NewTensors != 0 {
		t.Fatalf("tidied profile should leave 0 new tensors, got %d", info.NewTensors)
	}
	// Each record carries shapes, the §3.8 "output shape ... memory
	// footprint" report.
	for _, k := range info.Kernels {
		if len(k.OutputShapes) == 0 {
			t.Fatalf("kernel %s has no output shapes", k.Name)
		}
	}
}

func TestDebugModeCatchesNaN(t *testing.T) {
	e := core.Global()
	e.SetDebugMode(true)
	defer e.SetDebugMode(false)

	// A NaN-producing op must panic with the kernel name (§3.8: throw at
	// the first line a NaN is introduced).
	var caught *core.OpError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("debug mode did not catch NaN")
			}
			opErr, ok := r.(*core.OpError)
			if !ok {
				t.Fatalf("panic value %T", r)
			}
			caught = opErr
		}()
		e.Tidy("nan", func() []*tensor.Tensor {
			neg := ops.Scalar(-1)
			ops.Sqrt(neg) // sqrt(-1) = NaN
			return nil
		})
	}()
	if caught.Kernel != "Sqrt" {
		t.Fatalf("NaN blamed on %q, want Sqrt", caught.Kernel)
	}
	if len(e.DebugKernels()) == 0 {
		t.Fatal("debug mode recorded no kernels")
	}
}

func TestVariablesAssignAndDispose(t *testing.T) {
	e := core.Global()
	before := e.NumTensors()
	init := ops.FromValues([]float32{1, 2}, 2)
	v := e.NewVariable(init, "v_test", true)
	init.Dispose()

	if got := v.Value().DataSync(); got[0] != 1 {
		t.Fatalf("initial value %v", got)
	}
	next := ops.FromValues([]float32{3, 4}, 2)
	v.Assign(next)
	next.Dispose()
	if got := v.Value().DataSync(); got[1] != 4 {
		t.Fatalf("assigned value %v", got)
	}

	// Shape mismatch panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mismatched assign must panic")
			}
		}()
		bad := ops.Scalar(0)
		defer bad.Dispose()
		v.Assign(bad)
	}()

	v.Dispose()
	if e.NumTensors() != before {
		t.Fatalf("variable leaked tensors: %d -> %d", before, e.NumTensors())
	}
}

func TestVariableSurvivesTidy(t *testing.T) {
	e := core.Global()
	var v *core.Variable
	e.Tidy("scope", func() []*tensor.Tensor {
		init := ops.Scalar(5)
		v = e.NewVariable(init, "", true)
		return nil
	})
	if got := v.Value().DataSync(); got[0] != 5 {
		t.Fatal("variable value disposed by tidy")
	}
	v.Dispose()
}

func TestGradientsOfComposedFunction(t *testing.T) {
	e := core.Global()
	x := ops.FromValues([]float32{0.5}, 1)
	defer x.Dispose()
	// y = sigmoid(x)² ; dy/dx = 2 sigmoid(x) sigmoid'(x).
	res := e.Gradients(func() *tensor.Tensor {
		s := ops.Sigmoid(x)
		return ops.Reshape(ops.Mul(s, s))
	}, []*tensor.Tensor{x}, nil)
	defer res.Value.Dispose()
	defer res.Grads[0].Dispose()
	s := 1 / (1 + math.Exp(-0.5))
	want := 2 * s * s * (1 - s)
	if got := float64(res.Grads[0].DataSync()[0]); math.Abs(got-want) > 1e-5 {
		t.Fatalf("grad = %g, want %g", got, want)
	}
}

func TestGradientsUnusedInputGetsZeros(t *testing.T) {
	e := core.Global()
	x := ops.Scalar(2)
	unused := ops.FromValues([]float32{1, 1}, 2)
	defer x.Dispose()
	defer unused.Dispose()
	res := e.Gradients(func() *tensor.Tensor {
		return ops.Mul(x, x)
	}, []*tensor.Tensor{x, unused}, nil)
	if got := res.Grads[1].DataSync(); got[0] != 0 || got[1] != 0 {
		t.Fatalf("unused input grad = %v, want zeros", got)
	}
	res.Value.Dispose()
	res.Grads[0].Dispose()
	res.Grads[1].Dispose()
}

func TestGradientsRequireScalarWithoutDy(t *testing.T) {
	e := core.Global()
	x := ops.FromValues([]float32{1, 2}, 2)
	defer x.Dispose()
	defer func() {
		if recover() == nil {
			t.Fatal("non-scalar output without dy must panic")
		}
	}()
	e.Gradients(func() *tensor.Tensor { return ops.Mul(x, x) }, []*tensor.Tensor{x}, nil)
}

func TestGradientsWithExplicitDy(t *testing.T) {
	e := core.Global()
	x := ops.FromValues([]float32{1, 2}, 2)
	dy := ops.FromValues([]float32{10, 100}, 2)
	defer x.Dispose()
	defer dy.Dispose()
	res := e.Gradients(func() *tensor.Tensor { return ops.Mul(x, x) }, []*tensor.Tensor{x}, dy)
	got := res.Grads[0].DataSync()
	if got[0] != 20 || got[1] != 400 {
		t.Fatalf("weighted grads = %v", got)
	}
}

func TestCustomGrad(t *testing.T) {
	e := core.Global()
	x := ops.Scalar(3)
	defer x.Dispose()
	// Define f(x) = x² but with a lying custom gradient of 7.
	res := e.Gradients(func() *tensor.Tensor {
		outs := e.CustomGrad("lyingSquare", []*tensor.Tensor{x}, func() ([]*tensor.Tensor, core.GradFunc) {
			y := ops.Mul(x, x)
			grad := func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
				return []*tensor.Tensor{ops.Fill(inputs[0].Shape, 7)}
			}
			return []*tensor.Tensor{y}, grad
		})
		return ops.Reshape(outs[0])
	}, []*tensor.Tensor{x}, nil)
	if got := res.Grads[0].DataSync()[0]; got != 7 {
		t.Fatalf("custom grad = %g, want 7", got)
	}
	if got := res.Value.DataSync()[0]; got != 9 {
		t.Fatalf("custom value = %g, want 9", got)
	}
}

func TestGradientComputationDoesNotLeak(t *testing.T) {
	e := core.Global()
	x := ops.FromValues([]float32{1, 2, 3}, 3)
	defer x.Dispose()
	// Warm up any lazily-allocated state.
	res := e.Gradients(func() *tensor.Tensor {
		return ops.Sum(ops.Mul(ops.Sigmoid(x), x), nil, false)
	}, []*tensor.Tensor{x}, nil)
	res.Value.Dispose()
	res.Grads[0].Dispose()

	before := e.NumTensors()
	for i := 0; i < 5; i++ {
		res := e.Gradients(func() *tensor.Tensor {
			return ops.Sum(ops.Mul(ops.Sigmoid(x), x), nil, false)
		}, []*tensor.Tensor{x}, nil)
		res.Value.Dispose()
		res.Grads[0].Dispose()
	}
	if after := e.NumTensors(); after != before {
		t.Fatalf("gradient loop leaked: %d -> %d", before, after)
	}
}

func TestOpErrorIsTyped(t *testing.T) {
	defer func() {
		r := recover()
		opErr, ok := r.(*core.OpError)
		if !ok {
			t.Fatalf("panic value %T, want *core.OpError", r)
		}
		var target *core.OpError
		if !errors.As(opErr, &target) {
			t.Fatal("OpError must satisfy errors.As")
		}
	}()
	a := ops.FromValues([]float32{1, 2}, 2)
	b := ops.FromValues([]float32{1, 2, 3}, 3)
	defer a.Dispose()
	defer b.Dispose()
	ops.MatMul(a, b, false, false) // rank error
}

func TestUnknownBackend(t *testing.T) {
	if err := core.Global().SetBackend("tpu"); err == nil {
		t.Fatal("unknown backend must error")
	}
}

// TestMemoryInvariantUnderRandomOps fuzzes create/reshape/clone/dispose
// sequences and checks the engine's accounting invariants: NumBytes is the
// sum over live containers, and disposing everything returns the counters
// to their baseline.
func TestMemoryInvariantUnderRandomOps(t *testing.T) {
	e := core.Global()
	if err := e.SetBackend("cpu"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	base := e.Memory()

	for trial := 0; trial < 20; trial++ {
		live := []*tensor.Tensor{}
		for step := 0; step < 50; step++ {
			switch {
			case len(live) == 0 || rng.Intn(4) == 0: // create
				n := 1 + rng.Intn(16)
				live = append(live, ops.Fill([]int{n}, float32(step)))
			case rng.Intn(3) == 0: // free reshape (shares container)
				x := live[rng.Intn(len(live))]
				live = append(live, ops.Reshape(x, x.Size()))
			case rng.Intn(3) == 0: // clone (shares container)
				live = append(live, live[rng.Intn(len(live))].Clone())
			default: // dispose a random tensor
				i := rng.Intn(len(live))
				live[i].Dispose()
				live = append(live[:i], live[i+1:]...)
			}
			// Invariant: live tensor count matches the engine (relative
			// to baseline).
			if got := e.Memory().NumTensors - base.NumTensors; got != len(live) {
				t.Fatalf("trial %d step %d: engine reports %d live tensors, expected %d", trial, step, got, len(live))
			}
		}
		for _, tt := range live {
			tt.Dispose()
		}
		end := e.Memory()
		if end.NumTensors != base.NumTensors || end.NumBytes != base.NumBytes || end.NumDataBuffers != base.NumDataBuffers {
			t.Fatalf("trial %d: accounting did not return to baseline: %+v vs %+v", trial, end, base)
		}
	}
}

// TestBackpropSkipsUnwatchedInputs: backprop tells a gradient function
// which inputs the tape watches, and the conv and matmul gradients skip
// the backward kernel of one it does not — the gradient w.r.t. a model's
// data batch, which nothing reads.
func TestBackpropSkipsUnwatchedInputs(t *testing.T) {
	e := core.Global()
	rng := rand.New(rand.NewSource(2))
	randn := func(shape ...int) *tensor.Tensor {
		vals := make([]float32, tensor.ShapeSize(shape))
		for i := range vals {
			vals[i] = float32(rng.NormFloat64())
		}
		return ops.FromValues(vals, shape...)
	}
	x := randn(2, 6, 6, 1)
	w1, w2 := randn(3, 3, 1, 2), randn(3, 3, 2, 3)
	v1, v2 := e.NewVariable(w1, "skip/w1", true), e.NewVariable(w2, "skip/w2", true)
	defer func() {
		for _, d := range []interface{ Dispose() }{x, w1, w2, v1, v2} {
			d.Dispose()
		}
	}()
	model := func() *tensor.Tensor {
		h := ops.Relu(ops.Conv2D(x, v1.Value(), ops.ConvOpts{Pad: "same"}))
		return ops.Sum(ops.Conv2D(h, v2.Value(), ops.ConvOpts{Pad: "same"}), nil, false)
	}
	dispatched := func(info core.ProfileInfo, kernel string) int {
		n := 0
		for _, k := range info.Kernels {
			if k.Name == kernel {
				n++
			}
		}
		return n
	}

	// Differentiating against the variables: conv 2 needs the gradient
	// w.r.t. its input (conv 1's output), conv 1 does not (x is data).
	var byVars core.VariableGradsResult
	info := e.Profile(func() { byVars = e.VariableGrads(model, []*core.Variable{v1, v2}) })
	if in, f := dispatched(info, "Conv2DBackpropInput"), dispatched(info, "Conv2DBackpropFilter"); in != 1 || f != 2 {
		t.Errorf("VariableGrads dispatched %d Conv2DBackpropInput and %d Conv2DBackpropFilter, want 1 and 2", in, f)
	}

	// Differentiating against x as well: both convs need both.
	var byAll core.GradResult
	info = e.Profile(func() {
		byAll = e.Gradients(model, []*tensor.Tensor{x, v1.Value(), v2.Value()}, nil)
	})
	if in, f := dispatched(info, "Conv2DBackpropInput"), dispatched(info, "Conv2DBackpropFilter"); in != 2 || f != 2 {
		t.Errorf("Gradients w.r.t. x dispatched %d Conv2DBackpropInput and %d Conv2DBackpropFilter, want 2 and 2", in, f)
	}
	// Skipping the unread gradient changes no gradient that is read.
	for i, v := range []*core.Variable{v1, v2} {
		got, want := byVars.Grads[v].DataSync(), byAll.Grads[i+1].DataSync()
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("variable %d element %d: %g with x unwatched, %g with x watched", i, j, got[j], want[j])
			}
		}
	}
	byVars.Value.Dispose()
	for _, g := range byVars.Grads {
		g.Dispose()
	}
	byAll.Value.Dispose()
	for _, g := range byAll.Grads {
		g.Dispose()
	}

	// Nested tapes: the inner tape watches only b, so the inner backward
	// pass skips da — but the db it does compute, aᵀ·1, is a function of
	// a, which the outer tape watches: h(a) = Σ c∘(aᵀ·1) has
	// ∂h/∂a[i,k] = Σ_j c[k,j].
	a, b, c := randn(3, 4), randn(4, 2), randn(4, 2)
	defer a.Dispose()
	defer b.Dispose()
	defer c.Dispose()
	outer := e.Gradients(func() *tensor.Tensor {
		inner := e.Gradients(func() *tensor.Tensor {
			return ops.Sum(ops.MatMul(a, b, false, false), nil, false)
		}, []*tensor.Tensor{b}, nil)
		return ops.Sum(ops.Mul(inner.Grads[0], c), nil, false)
	}, []*tensor.Tensor{a}, nil)
	defer outer.Value.Dispose()
	defer outer.Grads[0].Dispose()
	got, cv := outer.Grads[0].DataSync(), c.DataSync()
	for i := 0; i < 3; i++ {
		for k := 0; k < 4; k++ {
			if want := cv[2*k] + cv[2*k+1]; math.Abs(float64(got[4*i+k]-want)) > 1e-5 {
				t.Fatalf("∂h/∂a[%d,%d] = %g, want %g", i, k, got[4*i+k], want)
			}
		}
	}
}
