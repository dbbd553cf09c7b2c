package ops

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// axisSet is a set of axes as a bit mask; normalizeAxes rejects a rank it
// cannot hold.
type axisSet uint64

func (s axisSet) has(axis int) bool { return s>>uint(axis)&1 != 0 }
func (s *axisSet) add(axis int)     { *s |= 1 << uint(axis) }

// normalizeAxes resolves negative axes and defaults to all axes when none
// are given. The result is sorted and de-duplicated.
func normalizeAxes(name string, axes []int, rank int) []int {
	if rank > 64 {
		panic(&core.OpError{Kernel: name, Err: fmt.Errorf("rank %d is beyond the 64 axes a reduction handles", rank)})
	}
	if len(axes) == 0 {
		out := make([]int, rank)
		for i := range out {
			out[i] = i
		}
		return out
	}
	var seen axisSet
	out := make([]int, 0, len(axes))
	for _, a := range axes {
		if a < 0 {
			a += rank
		}
		if a < 0 || a >= rank {
			panic(&core.OpError{Kernel: name, Err: fmt.Errorf("axis %v out of range for rank %d", axes, rank)})
		}
		if !seen.has(a) {
			seen.add(a)
			out = append(out, a)
		}
	}
	sort.Ints(out)
	return out
}

// axesAreInner reports whether axes are exactly the trailing dimensions.
func axesAreInner(axes []int, rank int) bool {
	for i, a := range axes {
		if a != rank-len(axes)+i {
			return false
		}
	}
	return true
}

// axesAreLeading reports whether axes are exactly the leading dimensions.
func axesAreLeading(axes []int) bool {
	for i, a := range axes {
		if a != i {
			return false
		}
	}
	return true
}

// reduce lowers an axis reduction onto the canonical [outer, inner] kernel:
// reduced axes are transposed innermost (when not already), the tensor is
// reshaped to 2-D, the kernel reduces the inner dimension, and the result
// is reshaped to the output shape. A sum over exactly the leading axes —
// every bias gradient sumToShape takes — is BiasAddGrad on the
// [reduced, kept] view instead: the same sums in the same order, without
// the transpose.
func reduce(name string, t *tensor.Tensor, axes []int, keepDims bool) *tensor.Tensor {
	rank := t.Rank()
	axes = normalizeAxes(name, axes, rank)
	if len(axes) == 0 {
		return t.Clone()
	}
	var reduced axisSet
	for _, a := range axes {
		reduced.add(a)
	}
	inner, outer := 1, 1 // the reduced and the kept elements
	for i, d := range t.Shape {
		if reduced.has(i) {
			inner *= d
		} else {
			outer *= d
		}
	}
	var res *tensor.Tensor
	switch {
	case axesAreInner(axes, rank):
		res = run1(name, []*tensor.Tensor{Reshape(t, outer, inner)}, nil)
	case name == "Sum" && axesAreLeading(axes):
		res = run1("BiasAddGrad", []*tensor.Tensor{Reshape(t, inner, outer)}, nil)
	default:
		perm := make([]int, 0, rank)
		for i := 0; i < rank; i++ {
			if !reduced.has(i) {
				perm = append(perm, i)
			}
		}
		perm = append(perm, axes...)
		res = run1(name, []*tensor.Tensor{Reshape(Transpose(t, perm...), outer, inner)}, nil)
	}
	// Build the final shape.
	outShape := make([]int, 0, rank)
	for i := 0; i < rank; i++ {
		switch {
		case !reduced.has(i):
			outShape = append(outShape, t.Shape[i])
		case keepDims:
			outShape = append(outShape, 1)
		}
	}
	return Reshape(res, outShape...)
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
	return argReduce("ArgMax", t, axis)
}

// ArgMin returns the index of the minimum along axis as an int32 tensor.
func ArgMin(t *tensor.Tensor, axis int) *tensor.Tensor {
	return argReduce("ArgMin", t, axis)
}

func argReduce(name string, t *tensor.Tensor, axis int) *tensor.Tensor {
	rank := t.Rank()
	if axis < 0 {
		axis += rank
	}
	if axis < 0 || axis >= rank {
		panic(&core.OpError{Kernel: name, Err: fmt.Errorf("axis out of range for rank %d", rank)})
	}
	return reduce(name, t, []int{axis}, false)
}

// Softmax computes softmax over the last axis.
func Softmax(t *tensor.Tensor) *tensor.Tensor {
	rank := t.Rank()
	if rank == 0 {
		panic(&core.OpError{Kernel: "Softmax", Err: fmt.Errorf("softmax requires rank >= 1")})
	}
	inner := t.Shape[rank-1]
	outer := t.Size() / inner
	flat := Reshape(t, outer, inner)
	res := run1("Softmax", []*tensor.Tensor{flat}, nil)
	return Reshape(res, t.Shape...)
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
	rank := t.Rank()
	naxes := normalizeAxes("LogSumExp", axes, rank)
	return Squeeze(res, naxes...)
}

// Moments returns the mean and variance of t over axes.
func Moments(t *tensor.Tensor, axes []int, keepDims bool) (mean, variance *tensor.Tensor) {
	mean = Mean(t, axes, true)
	diff := Sub(t, mean)
	variance = Mean(Mul(diff, diff), axes, true)
	if !keepDims {
		rank := t.Rank()
		naxes := normalizeAxes("Moments", axes, rank)
		mean = Squeeze(mean, naxes...)
		variance = Squeeze(variance, naxes...)
	}
	return mean, variance
}

func init() {
	// Gradients of the canonical [outer, inner] reduction kernels. The
	// surrounding transposes and reshapes carry their own gradients.
	expand := func(dy *tensor.Tensor, inner int) *tensor.Tensor {
		outer := dy.Size()
		return Tile(Reshape(dy, outer, 1), []int{1, inner})
	}
	core.RegisterGradient("Sum", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		return []*tensor.Tensor{expand(dys[0], inputs[0].Shape[1])}
	})
	core.RegisterGradient("BiasAddGrad", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		outer, inner := inputs[0].Shape[0], inputs[0].Shape[1]
		return []*tensor.Tensor{Tile(Reshape(dys[0], 1, inner), []int{outer, 1})}
	})
	core.RegisterGradient("Mean", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		inner := inputs[0].Shape[1]
		return []*tensor.Tensor{DivScalar(expand(dys[0], inner), float32(inner))}
	})
	maxMinGrad := func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		x := inputs[0]
		inner := x.Shape[1]
		y2d := Reshape(outputs[0], x.Shape[0], 1)
		mask := Cast(Equal(x, y2d), tensor.Float32)
		return []*tensor.Tensor{Mul(expand(dys[0], inner), mask)}
	}
	core.RegisterGradient("Max", maxMinGrad)
	core.RegisterGradient("Min", maxMinGrad)
	core.RegisterGradient("Prod", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		x := inputs[0]
		inner := x.Shape[1]
		y2d := Reshape(outputs[0], x.Shape[0], 1)
		// d prod / d x_i = prod / x_i (undefined at zeros, as in TF).
		return []*tensor.Tensor{Mul(expand(dys[0], inner), Div(y2d, x))}
	})
	core.RegisterGradient("Softmax", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		dy, y := dys[0], outputs[0]
		sumDyY := Sum(Mul(dy, y), []int{1}, true)
		return []*tensor.Tensor{Mul(Sub(dy, sumDyY), y)}
	})
}
