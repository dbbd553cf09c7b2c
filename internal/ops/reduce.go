package ops

import (
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// reduce dispatches an axis reduction as one kernel over t's own shape:
// the kernel resolves the axes (kernels.ReduceAxes), an empty list being
// every axis.
func reduce(name string, t *tensor.Tensor, axes []int, keepDims bool) *tensor.Tensor {
	return run1(name, []*tensor.Tensor{t}, kernels.Attrs{Axes: axes, KeepDims: keepDims})
}

// reduceAxes is the set of t's axes a reduction over axes folds.
func reduceAxes(name string, axes []int, t *tensor.Tensor) kernels.Axes {
	set, err := kernels.ReduceAxes(name, axes, t.Rank())
	if err != nil {
		panic(&core.OpError{Kernel: name, Err: err})
	}
	return set
}

// Sum reduces by summation over axes (all axes when empty).
func Sum(t *tensor.Tensor, axes []int, keepDims bool) *tensor.Tensor {
	return reduce("Sum", t, axes, keepDims)
}

// Mean reduces by arithmetic mean over axes.
func Mean(t *tensor.Tensor, axes []int, keepDims bool) *tensor.Tensor {
	return reduce("Mean", t, axes, keepDims)
}

// Max reduces by maximum over axes.
func Max(t *tensor.Tensor, axes []int, keepDims bool) *tensor.Tensor {
	return reduce("Max", t, axes, keepDims)
}

// Min reduces by minimum over axes.
func Min(t *tensor.Tensor, axes []int, keepDims bool) *tensor.Tensor {
	return reduce("Min", t, axes, keepDims)
}

// Prod reduces by product over axes.
func Prod(t *tensor.Tensor, axes []int, keepDims bool) *tensor.Tensor {
	return reduce("Prod", t, axes, keepDims)
}

// Any reduces by logical-or over axes.
func Any(t *tensor.Tensor, axes []int, keepDims bool) *tensor.Tensor {
	return reduce("Any", t, axes, keepDims)
}

// All reduces by logical-and over axes.
func All(t *tensor.Tensor, axes []int, keepDims bool) *tensor.Tensor {
	return reduce("All", t, axes, keepDims)
}

// ArgMax returns the index of the maximum along axis as an int32 tensor.
func ArgMax(t *tensor.Tensor, axis int) *tensor.Tensor {
	return run1("ArgMax", []*tensor.Tensor{t}, kernels.Attrs{Axes: []int{axis}})
}

// ArgMin returns the index of the minimum along axis as an int32 tensor.
func ArgMin(t *tensor.Tensor, axis int) *tensor.Tensor {
	return run1("ArgMin", []*tensor.Tensor{t}, kernels.Attrs{Axes: []int{axis}})
}

// Softmax computes softmax over the last axis.
func Softmax(t *tensor.Tensor) *tensor.Tensor {
	return run1("Softmax", []*tensor.Tensor{t}, kernels.Attrs{})
}

// LogSoftmax computes log(softmax) over the last axis with the max-shift
// stabilization.
func LogSoftmax(t *tensor.Tensor) *tensor.Tensor {
	rank := t.Rank()
	maxT := Max(t, []int{rank - 1}, true)
	shifted := Sub(t, maxT)
	lse := Log(Sum(Exp(shifted), []int{rank - 1}, true))
	return Sub(shifted, lse)
}

// LogSumExp computes log(sum(exp(t))) over axes with stabilization.
func LogSumExp(t *tensor.Tensor, axes []int, keepDims bool) *tensor.Tensor {
	maxT := Max(t, axes, true)
	shifted := Sub(t, maxT)
	summed := Log(Sum(Exp(shifted), axes, true))
	res := Add(summed, maxT)
	if keepDims {
		return res
	}
	return Reshape(res, reduceAxes("LogSumExp", axes, t).Shape(nil, t.Shape, false)...)
}

// Moments returns the mean and variance of t over axes.
func Moments(t *tensor.Tensor, axes []int, keepDims bool) (mean, variance *tensor.Tensor) {
	mean = Mean(t, axes, true)
	diff := Sub(t, mean)
	variance = Mean(Mul(diff, diff), axes, true)
	if !keepDims {
		shape := reduceAxes("Moments", axes, t).Shape(nil, t.Shape, false)
		mean, variance = Reshape(mean, shape...), Reshape(variance, shape...)
	}
	return mean, variance
}

func init() {
	// The reductions' gradients: dy, reshaped to the output's keepDims
	// shape, is tiled back over x, then each element of x gets what the
	// fold owes it.
	back := func(name string, dy, x *tensor.Tensor, attrs kernels.Attrs) (kept []int, tiled *tensor.Tensor, inner int) {
		set := reduceAxes(name, attrs.Axes, x)
		kept = set.Shape(nil, x.Shape, true)
		reps, inner := make([]int, x.Rank()), 1
		for d, n := range x.Shape {
			reps[d] = 1
			if set.Has(d) {
				reps[d], inner = n, inner*n
			}
		}
		return kept, Tile(Reshape(dy, kept...), reps), inner
	}
	core.RegisterGradient("Sum", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		_, tiled, _ := back("Sum", dys[0], inputs[0], attrs)
		return []*tensor.Tensor{tiled}
	})
	core.RegisterGradient("Mean", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		_, tiled, inner := back("Mean", dys[0], inputs[0], attrs)
		return []*tensor.Tensor{DivScalar(tiled, float32(inner))}
	})
	maxMinGrad := func(name string) core.GradFunc {
		return func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
			x := inputs[0]
			kept, tiled, _ := back(name, dys[0], x, attrs)
			mask := Cast(Equal(x, Reshape(outputs[0], kept...)), tensor.Float32)
			return []*tensor.Tensor{Mul(tiled, mask)}
		}
	}
	core.RegisterGradient("Max", maxMinGrad("Max"))
	core.RegisterGradient("Min", maxMinGrad("Min"))
	core.RegisterGradient("Prod", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		x := inputs[0]
		kept, tiled, _ := back("Prod", dys[0], x, attrs)
		// d prod / d x_i = prod / x_i (undefined at zeros, as in TF).
		return []*tensor.Tensor{Mul(tiled, Div(Reshape(outputs[0], kept...), x))}
	})
	core.RegisterGradient("Softmax", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		dy, y := dys[0], outputs[0]
		sumDyY := Sum(Mul(dy, y), []int{-1}, true)
		return []*tensor.Tensor{Mul(Sub(dy, sumDyY), y)}
	})
}
