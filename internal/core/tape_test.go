package core_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// mul is Mul as a custom gradient whose gradient is made of mul again, so
// it differentiates to any order on the engine it is given. The registered
// gradients of most kernels run their ops on the global engine; mul, Add
// (whose gradient is dy itself when the shapes match) and the custom sum
// below are how a test trains or nests tapes on a replica.
func mul(e *core.Engine, a, b *tensor.Tensor) *tensor.Tensor {
	return e.CustomGrad("mul", []*tensor.Tensor{a, b}, func() ([]*tensor.Tensor, core.GradFunc) {
		return []*tensor.Tensor{e.RunKernel("Mul", []*tensor.Tensor{a, b}, kernels.Attrs{})},
			func(e *core.Engine, dys, inputs, _ []*tensor.Tensor, _ kernels.Attrs) []*tensor.Tensor {
				return []*tensor.Tensor{mul(e, dys[0], inputs[1]), mul(e, dys[0], inputs[0])}
			}
	})[0]
}

// sum is Sum over every axis as a custom gradient, on the engine it is
// given.
func sum(e *core.Engine, a *tensor.Tensor) *tensor.Tensor {
	return e.CustomGrad("sum", []*tensor.Tensor{a}, func() ([]*tensor.Tensor, core.GradFunc) {
		return []*tensor.Tensor{e.RunKernel("Sum", []*tensor.Tensor{a}, kernels.Attrs{})},
			func(e *core.Engine, dys, inputs, _ []*tensor.Tensor, _ kernels.Attrs) []*tensor.Tensor {
				ones := e.RunKernel("Fill", nil, kernels.Attrs{Shape: tensor.CopyShape(inputs[0].Shape), Value: 1})
				return []*tensor.Tensor{e.RunKernel("Mul", []*tensor.Tensor{dys[0], ones}, kernels.Attrs{})}
			}
	})[0]
}

// read copies a tensor's values and disposes it.
func read(t *tensor.Tensor) []float32 {
	defer t.Dispose()
	return append([]float32(nil), t.DataSync()...)
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %g, want %g bit for bit", what, i, got[i], want[i])
		}
	}
}

// TestSpareTapeHoldsNoTensor: every tape an engine keeps for reuse is
// cleared when the gradient computation that used it returns — a plain
// one, a nested one, VariableGrads with a frozen variable, and a
// CustomGrad node of four inputs — so a disposed tensor is never kept
// alive by a spare.
func TestSpareTapeHoldsNoTensor(t *testing.T) {
	e := core.Global()
	x, y := ops.FromValues([]float32{1, 2, 3}, 3), ops.FromValues([]float32{4, 5, 6}, 3)
	defer x.Dispose()
	defer y.Dispose()
	v, frozen := e.NewVariable(x, "spare/v", true), e.NewVariable(y, "spare/frozen", false)
	defer v.Dispose()
	defer frozen.Dispose()
	dispose := func(ts ...*tensor.Tensor) {
		for _, t := range ts {
			t.Dispose()
		}
	}
	check := func(step string, atLeast int) {
		t.Helper()
		n, err := e.SpareTapes()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if n < atLeast {
			t.Fatalf("%s: %d spare tapes, want at least %d", step, n, atLeast)
		}
	}

	res := e.Gradients(func() *tensor.Tensor { return ops.Sum(ops.Mul(x, y), nil, false) }, []*tensor.Tensor{x, y}, nil)
	dispose(append(res.Grads, res.Value)...)
	check("one tape", 1)

	outer := e.Gradients(func() *tensor.Tensor {
		inner := e.Gradients(func() *tensor.Tensor { return ops.Sum(ops.Mul(ops.Mul(x, x), y), nil, false) }, []*tensor.Tensor{x}, nil)
		return ops.Sum(ops.Mul(inner.Grads[0], y), nil, false)
	}, []*tensor.Tensor{x}, nil)
	dispose(outer.Value, outer.Grads[0])
	check("nested tapes", 2)

	vg := e.VariableGrads(func() *tensor.Tensor {
		return ops.Sum(ops.Mul(v.Value(), frozen.Value()), nil, false)
	}, []*core.Variable{v, frozen})
	if _, ok := vg.Grads[frozen]; ok || len(vg.Grads) != 1 {
		t.Fatalf("VariableGrads returned %d gradients, want only the trainable variable's", len(vg.Grads))
	}
	dispose(vg.Value, vg.Grads[v])
	check("variable gradients", 2)

	res = e.Gradients(func() *tensor.Tensor {
		outs := e.CustomGrad("four", []*tensor.Tensor{x, y, x, y}, func() ([]*tensor.Tensor, core.GradFunc) {
			return []*tensor.Tensor{ops.Add(ops.Mul(x, y), ops.Mul(x, y))}, func(e *core.Engine, dys, inputs, _ []*tensor.Tensor, _ kernels.Attrs) []*tensor.Tensor {
				return []*tensor.Tensor{ops.Mul(dys[0], inputs[1]), ops.Mul(dys[0], inputs[0]), ops.Mul(dys[0], inputs[3]), ops.Mul(dys[0], inputs[2])}
			}
		})
		return ops.Sum(outs[0], nil, false)
	}, []*tensor.Tensor{x}, nil)
	sameBits(t, "d(2x·y)/dx", read(res.Grads[0]), []float32{8, 10, 12})
	res.Value.Dispose()
	check("a custom gradient of four inputs", 2)
}

// secondOrder differentiates, on e, h(x, y) = (∂/∂x (x³ + x·y)) · c =
// (3x² + y) · c with respect to x and y: one tape nested in another, the
// inner backward pass recorded on the outer tape. It returns h, ∂h/∂x =
// 6x·c and ∂h/∂y = c, and checks that e holds as many tensors after as
// before.
func secondOrder(t *testing.T, e *core.Engine) [3][]float32 {
	t.Helper()
	before := e.NumTensors()
	x := e.MakeTensor([]float32{0.5, -1.25, 3}, []int{3}, tensor.Float32)
	y := e.MakeTensor([]float32{2, 0.75, -4}, []int{3}, tensor.Float32)
	c := e.MakeTensor([]float32{1.5, -2, 0.25}, []int{3}, tensor.Float32)
	ones := e.MakeTensor([]float32{1, 1, 1}, []int{3}, tensor.Float32)
	res := e.Gradients(func() *tensor.Tensor {
		inner := e.Gradients(func() *tensor.Tensor {
			return e.RunKernel("Add", []*tensor.Tensor{mul(e, mul(e, x, x), x), mul(e, x, y)}, kernels.Attrs{})
		}, []*tensor.Tensor{x}, ones)
		return mul(e, inner.Grads[0], c)
	}, []*tensor.Tensor{x, y}, ones)
	out := [3][]float32{read(res.Value), read(res.Grads[0]), read(res.Grads[1])}
	for _, d := range []*tensor.Tensor{x, y, c, ones} {
		d.Dispose()
	}
	if after := e.NumTensors(); after != before {
		t.Fatalf("a second-order gradient left %d tensors behind", after-before)
	}
	if n, err := e.SpareTapes(); err != nil || n != 2 {
		t.Fatalf("after a second-order gradient: %d spare tapes (%v), want 2 clean ones", n, err)
	}
	return out
}

// TestRecycledTapesMatchAFreshEngine: two consecutive second-order
// gradients on one engine — the second recording into the slabs, maps and
// scratch the first left — are bit-equal to the same computation on an
// engine that has never recorded a tape, and to the closed form.
func TestRecycledTapesMatchAFreshEngine(t *testing.T) {
	used, fresh := core.Global().SpawnReplica(), core.Global().SpawnReplica()
	first, second := secondOrder(t, used), secondOrder(t, used)
	want := secondOrder(t, fresh)
	for i, name := range []string{"h", "∂h/∂x", "∂h/∂y"} {
		sameBits(t, "first run's "+name, first[i], want[i])
		sameBits(t, "second run's "+name, second[i], want[i])
	}
	x, y, c := []float64{0.5, -1.25, 3}, []float64{2, 0.75, -4}, []float64{1.5, -2, 0.25}
	for i := range x {
		for j, closed := range []float64{(3*x[i]*x[i] + y[i]) * c[i], 6 * x[i] * c[i], c[i]} {
			if got := float64(want[j][i]); math.Abs(got-closed) > 1e-4*math.Max(1, math.Abs(closed)) {
				t.Errorf("element %d of result %d: %g, closed form %g", i, j, got, closed)
			}
		}
	}
}

// TestPanickingGradientsLeaveTheSpareClean: a Gradients whose function
// panics, one whose gradient function panics, and an inner one whose
// function panics and whose outer function recovers, each leave no tape
// active, no tensor behind and every spare cleared; the Gradients after
// them is correct.
func TestPanickingGradientsLeaveTheSpareClean(t *testing.T) {
	e := core.Global()
	x := ops.FromValues([]float32{1, 2, 3}, 3)
	defer x.Dispose()
	square := func() core.GradResult {
		return e.Gradients(func() *tensor.Tensor { return ops.Sum(ops.Mul(x, x), nil, false) }, []*tensor.Tensor{x}, nil)
	}
	res := square()
	res.Value.Dispose()
	res.Grads[0].Dispose()
	base := e.NumTensors()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	clean := func(what string) {
		t.Helper()
		if n := e.NumTensors(); n != base {
			t.Fatalf("%s: %d tensors, %d before", what, n, base)
		}
		if d, sizes := e.GradDepth(), e.TapeSizes(); d != 0 || len(sizes) != 0 {
			t.Fatalf("%s: gradient depth %d, active tapes %v", what, d, sizes)
		}
		if _, err := e.SpareTapes(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	mustPanic("a panicking function", func() {
		e.Gradients(func() *tensor.Tensor {
			ops.Mul(x, x)
			panic("the function fails")
		}, []*tensor.Tensor{x}, nil)
	})
	clean("after a panicking function")

	mustPanic("a panicking gradient function", func() {
		e.Gradients(func() *tensor.Tensor {
			outs := e.CustomGrad("failing", []*tensor.Tensor{x}, func() ([]*tensor.Tensor, core.GradFunc) {
				return []*tensor.Tensor{ops.Mul(x, x)}, func(*core.Engine, []*tensor.Tensor, []*tensor.Tensor, []*tensor.Tensor, kernels.Attrs) []*tensor.Tensor {
					panic("the gradient fails")
				}
			})
			return ops.Sum(outs[0], nil, false)
		}, []*tensor.Tensor{x}, nil)
	})
	clean("after a panicking gradient function")

	outer := e.Gradients(func() *tensor.Tensor {
		mustPanic("a panicking inner function", func() {
			e.Gradients(func() *tensor.Tensor {
				ops.Mul(x, x)
				panic("the inner function fails")
			}, []*tensor.Tensor{x}, nil)
		})
		return ops.Sum(ops.Mul(ops.Mul(x, x), x), nil, false)
	}, []*tensor.Tensor{x}, nil)
	sameBits(t, "d(Σx³)/dx after a recovered inner panic", read(outer.Grads[0]), []float32{3, 12, 27})
	outer.Value.Dispose()
	clean("after a recovered inner panic")

	res = square()
	sameBits(t, "d(Σx²)/dx", read(res.Grads[0]), []float32{2, 4, 6})
	res.Value.Dispose()
	clean("after a good gradient")
}

// TestReplicasTrainConcurrently: two replica engines each run twenty
// gradient-descent steps through ApplyVariableGrads at the same time —
// each on its own recycled tapes — and end bit-equal to a third that ran
// alone; the frozen variable gets no gradient. Run under -race.
func TestReplicasTrainConcurrently(t *testing.T) {
	train := func(e *core.Engine) ([]float32, error) {
		before := e.NumTensors()
		w0 := e.MakeTensor([]float32{1, -2, 0.5, 3}, []int{4}, tensor.Float32)
		s0 := e.MakeTensor([]float32{0.5, 1, -1, 2}, []int{4}, tensor.Float32)
		lr := e.MakeTensor([]float32{0.05}, []int{}, tensor.Float32)
		w, scale := e.NewVariable(w0, "", true), e.NewVariable(s0, "", false)
		w0.Dispose()
		s0.Dispose()
		var err error
		for step := 0; step < 20 && err == nil; step++ {
			e.Tidy("step", func() []*tensor.Tensor {
				e.ApplyVariableGrads(func() *tensor.Tensor {
					return sum(e, mul(e, mul(e, w.Value(), w.Value()), scale.Value()))
				}, []*core.Variable{w, scale}, func(vars []*core.Variable, grads []*tensor.Tensor) {
					if grads[1] != nil {
						err = fmt.Errorf("step %d: the frozen variable got a gradient", step)
					}
					vars[0].Assign(e.RunKernel("Sub", []*tensor.Tensor{vars[0].Value(), e.RunKernel("Mul", []*tensor.Tensor{grads[0], lr}, kernels.Attrs{})}, kernels.Attrs{}))
				})
				return nil
			})
		}
		out := append([]float32(nil), w.Value().DataSync()...)
		w.Dispose()
		scale.Dispose()
		lr.Dispose()
		if after := e.NumTensors(); err == nil && after != before {
			err = fmt.Errorf("training left %d tensors behind", after-before)
		}
		if _, spareErr := e.SpareTapes(); err == nil {
			err = spareErr
		}
		return out, err
	}
	want, err := train(core.Global().SpawnReplica())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got, errs := make([][]float32, 2), make([]error, 2)
	for i := range got {
		e := core.Global().SpawnReplica()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = train(e)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("replica %d: %v", i, errs[i])
		}
		sameBits(t, fmt.Sprintf("replica %d's weights", i), got[i], want)
	}
	// w ← w − 0.05·2·w·scale shrinks every weight whose scale is positive.
	if !(math.Abs(float64(want[0])) < 1 && math.Abs(float64(want[3])) < 3) {
		t.Fatalf("weights %v did not descend", want)
	}
}
