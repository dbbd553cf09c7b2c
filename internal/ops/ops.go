// Package ops defines the operations API of the library (the "Ops API" box
// of Figure 1): typed, device-independent operations that dispatch to
// backend kernels through the engine, together with the gradient definition
// of every differentiable kernel (Section 3.5).
//
// Shape and dtype validation errors panic with *core.OpError, following the
// gonum convention for numeric APIs; see the package documentation of
// internal/core.
package ops

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// eng returns the engine ops execute on: the global one. Code that runs on
// a replica engine (graphmodel's plan executor, the serving runner) holds
// that engine and dispatches kernels on it directly, never through ops.
func eng() *core.Engine { return core.Global() }

func run1(name string, inputs []*tensor.Tensor, attrs kernels.Attrs) *tensor.Tensor {
	return eng().RunKernel(name, inputs, attrs)
}

// ---------------------------------------------------------------------------
// Creation ops

// FromValues uploads values with the given shape.
func FromValues(values []float32, shape ...int) *tensor.Tensor {
	return eng().MakeTensor(values, shape, tensor.Float32)
}

// FromValuesTyped uploads values with an explicit dtype.
func FromValuesTyped(values []float32, shape []int, dtype tensor.DataType) *tensor.Tensor {
	return eng().MakeTensor(values, shape, dtype)
}

// Scalar creates a rank-0 tensor.
func Scalar(v float32) *tensor.Tensor { return FromValues([]float32{v}) }

// Fill creates a tensor of the given shape filled with value.
func Fill(shape []int, value float32) *tensor.Tensor {
	return run1("Fill", nil, kernels.Attrs{Shape: tensor.CopyShape(shape), Value: float64(value)})
}

// Zeros creates a zero-filled tensor.
func Zeros(shape ...int) *tensor.Tensor { return Fill(shape, 0) }

// Ones creates a one-filled tensor.
func Ones(shape ...int) *tensor.Tensor { return Fill(shape, 1) }

// ZerosLike creates a zero-filled tensor with t's shape.
func ZerosLike(t *tensor.Tensor) *tensor.Tensor { return Fill(t.Shape, 0) }

// OnesLike creates a one-filled tensor with t's shape.
func OnesLike(t *tensor.Tensor) *tensor.Tensor { return Fill(t.Shape, 1) }

// Range creates a 1-D tensor of values in [start, stop) stepping by step.
func Range(start, stop, step float64) *tensor.Tensor {
	return run1("Range", nil, kernels.Attrs{Start: start, Stop: stop, Step: step})
}

// Linspace creates num evenly spaced values in [start, stop].
func Linspace(start, stop float64, num int) *tensor.Tensor {
	if num <= 0 {
		panic(&core.OpError{Kernel: "Linspace", Err: fmt.Errorf("num must be positive, got %d", num)})
	}
	vals := make([]float32, num)
	if num == 1 {
		vals[0] = float32(start)
	} else {
		step := (stop - start) / float64(num-1)
		for i := range vals {
			vals[i] = float32(start + float64(i)*step)
		}
	}
	return FromValues(vals, num)
}

// RandNormal samples a tensor from N(mean, stddev²) using rng. A nil rng
// uses a fixed-seed source so examples are reproducible.
func RandNormal(shape []int, mean, stddev float64, rng *rand.Rand) *tensor.Tensor {
	if rng == nil {
		rng = rand.New(rand.NewSource(42))
	}
	vals := make([]float32, tensor.ShapeSize(shape))
	for i := range vals {
		vals[i] = float32(rng.NormFloat64()*stddev + mean)
	}
	return FromValues(vals, shape...)
}

// RandUniform samples a tensor uniformly from [lo, hi).
func RandUniform(shape []int, lo, hi float64, rng *rand.Rand) *tensor.Tensor {
	if rng == nil {
		rng = rand.New(rand.NewSource(42))
	}
	vals := make([]float32, tensor.ShapeSize(shape))
	for i := range vals {
		vals[i] = float32(lo + rng.Float64()*(hi-lo))
	}
	return FromValues(vals, shape...)
}

// OneHot expands integer labels to one-hot vectors of the given depth.
func OneHot(indices *tensor.Tensor, depth int) *tensor.Tensor {
	return run1("OneHot", []*tensor.Tensor{indices}, kernels.Attrs{Depth: depth, OnValue: 1})
}

// Eye creates an n×n identity matrix.
func Eye(n int) *tensor.Tensor {
	vals := make([]float32, n*n)
	for i := 0; i < n; i++ {
		vals[i*n+i] = 1
	}
	return FromValues(vals, n, n)
}

// Cast converts t to the given dtype.
func Cast(t *tensor.Tensor, dtype tensor.DataType) *tensor.Tensor {
	return run1("Cast", []*tensor.Tensor{t}, kernels.Attrs{DType: dtype})
}

// Clone returns a tensor sharing t's data container (free, Section 3.4).
func Clone(t *tensor.Tensor) *tensor.Tensor { return t.Clone() }

// ---------------------------------------------------------------------------
// Gradient helpers

// sumToShape reduces grad (shaped like the broadcast output) back to the
// original input shape by summing over broadcast dimensions. It is the
// standard reverse-broadcast used by every binary-op gradient.
func sumToShape(e *core.Engine, grad *tensor.Tensor, shape []int) *tensor.Tensor {
	if tensor.ShapesEqual(grad.Shape, shape) {
		return grad
	}
	gradRank := grad.Rank()
	inRank := len(shape)
	// Axes added by rank promotion.
	var axes []int
	for i := 0; i < gradRank-inRank; i++ {
		axes = append(axes, i)
	}
	// Axes where the input had size 1 but the output did not.
	for i := 0; i < inRank; i++ {
		gi := i + gradRank - inRank
		if shape[i] == 1 && grad.Shape[gi] != 1 {
			axes = append(axes, gi)
		}
	}
	reduced := Sum(grad, axes, true)
	return Reshape(reduced, shape...)
}
