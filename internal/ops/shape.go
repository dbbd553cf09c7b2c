package ops

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Reshape returns a tensor with the same data and a new shape; one
// dimension may be -1 to be inferred. Reshape is free: it shares the data
// container (Section 3.4).
func Reshape(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	return run1("Reshape", []*tensor.Tensor{t}, kernels.Attrs{Shape: shape})
}

// Flatten reshapes to rank 1.
func Flatten(t *tensor.Tensor) *tensor.Tensor { return Reshape(t, t.Size()) }

// ExpandDims inserts a size-1 dimension at axis.
func ExpandDims(t *tensor.Tensor, axis int) *tensor.Tensor {
	rank := t.Rank()
	if axis < 0 {
		axis += rank + 1
	}
	if axis < 0 || axis > rank {
		panic(&core.OpError{Kernel: "ExpandDims", Err: fmt.Errorf("axis %d out of range for rank %d", axis, rank)})
	}
	shape := make([]int, 0, rank+1)
	shape = append(shape, t.Shape[:axis]...)
	shape = append(shape, 1)
	shape = append(shape, t.Shape[axis:]...)
	return Reshape(t, shape...)
}

// Squeeze removes size-1 dimensions; with axes given, only those.
func Squeeze(t *tensor.Tensor, axes ...int) *tensor.Tensor {
	rank := t.Rank()
	drop := map[int]bool{}
	if len(axes) == 0 {
		for i, d := range t.Shape {
			if d == 1 {
				drop[i] = true
			}
		}
	} else {
		for _, a := range axes {
			if a < 0 {
				a += rank
			}
			if a < 0 || a >= rank || t.Shape[a] != 1 {
				panic(&core.OpError{Kernel: "Squeeze", Err: fmt.Errorf("axis %d is not a size-1 dimension of %v", a, t.Shape)})
			}
			drop[a] = true
		}
	}
	var shape []int
	for i, d := range t.Shape {
		if !drop[i] {
			shape = append(shape, d)
		}
	}
	return Reshape(t, shape...)
}

// Transpose permutes dimensions; an empty perm reverses them.
func Transpose(t *tensor.Tensor, perm ...int) *tensor.Tensor {
	if len(perm) == 0 {
		perm = make([]int, t.Rank())
		for i := range perm {
			perm[i] = t.Rank() - 1 - i
		}
	}
	return run1("Transpose", []*tensor.Tensor{t}, kernels.Attrs{Perm: perm})
}

// Concat concatenates tensors along axis.
func Concat(ts []*tensor.Tensor, axis int) *tensor.Tensor {
	if len(ts) == 0 {
		panic(&core.OpError{Kernel: "Concat", Err: fmt.Errorf("needs at least one tensor")})
	}
	if len(ts) == 1 {
		return ts[0].Clone()
	}
	return run1("Concat", ts, kernels.Attrs{Axis: axis})
}

// Stack stacks tensors of identical shape along a new axis.
func Stack(ts []*tensor.Tensor, axis int) *tensor.Tensor {
	expanded := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		expanded[i] = ExpandDims(t, axis)
	}
	return Concat(expanded, axis)
}

// Unstack splits t along axis into tensors with that axis removed.
func Unstack(t *tensor.Tensor, axis int) []*tensor.Tensor {
	rank := t.Rank()
	if axis < 0 {
		axis += rank
	}
	if axis < 0 || axis >= rank {
		panic(&core.OpError{Kernel: "Unstack", Err: fmt.Errorf("axis %d out of range for rank %d", axis, rank)})
	}
	n := t.Shape[axis]
	out := make([]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		begin := make([]int, rank)
		size := tensor.CopyShape(t.Shape)
		begin[axis] = i
		size[axis] = 1
		out[i] = Squeeze(Slice(t, begin, size), axis)
	}
	return out
}

// Slice extracts the region starting at begin with the given size; -1 in
// size extends to the end of the dimension.
func Slice(t *tensor.Tensor, begin, size []int) *tensor.Tensor {
	return run1("Slice", []*tensor.Tensor{t}, kernels.Attrs{
		Begin: tensor.CopyShape(begin), Shape: tensor.CopyShape(size)})
}

// Split divides t into numSplits equal parts along axis.
func Split(t *tensor.Tensor, numSplits, axis int) []*tensor.Tensor {
	rank := t.Rank()
	if axis < 0 {
		axis += rank
	}
	if axis < 0 || axis >= rank || t.Shape[axis]%numSplits != 0 {
		panic(&core.OpError{Kernel: "Split", Err: fmt.Errorf("cannot split axis %d of %v into %d parts", axis, t.Shape, numSplits)})
	}
	part := t.Shape[axis] / numSplits
	out := make([]*tensor.Tensor, numSplits)
	for i := range out {
		begin := make([]int, rank)
		size := tensor.CopyShape(t.Shape)
		begin[axis] = i * part
		size[axis] = part
		out[i] = Slice(t, begin, size)
	}
	return out
}

// Pad pads t with constantValue. paddings holds one [before, after] pair
// per dimension.
func Pad(t *tensor.Tensor, paddings [][2]int, constantValue float64) *tensor.Tensor {
	if len(paddings) != t.Rank() {
		panic(&core.OpError{Kernel: "PadV2", Err: fmt.Errorf("got %d padding pairs for rank %d", len(paddings), t.Rank())})
	}
	flat := make([]int, 0, 2*len(paddings))
	for _, p := range paddings {
		flat = append(flat, p[0], p[1])
	}
	return run1("PadV2", []*tensor.Tensor{t}, kernels.Attrs{Paddings: flat, Value: constantValue})
}

// Gather selects slices of t along axis using integer indices.
func Gather(t, indices *tensor.Tensor, axis int) *tensor.Tensor {
	return run1("GatherV2", []*tensor.Tensor{t, indices}, kernels.Attrs{Axis: axis})
}

// Tile repeats t reps[d] times along each dimension d.
func Tile(t *tensor.Tensor, reps []int) *tensor.Tensor {
	return run1("Tile", []*tensor.Tensor{t}, kernels.Attrs{Reps: tensor.CopyShape(reps)})
}

// Reverse flips t along the given axes, every axis when none is given.
func Reverse(t *tensor.Tensor, axes ...int) *tensor.Tensor {
	return run1("Reverse", []*tensor.Tensor{t}, kernels.Attrs{Axes: axes})
}

func init() {
	core.RegisterGradient("Transpose", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		perm := attrs.Perm
		inverse := make([]int, len(perm))
		for i, p := range perm {
			inverse[p] = i
		}
		return []*tensor.Tensor{Transpose(dys[0], inverse...)}
	})
	core.RegisterGradient("Concat", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		axis := attrs.Axis
		rank := inputs[0].Rank()
		if axis < 0 {
			axis += rank
		}
		dy := dys[0]
		grads := make([]*tensor.Tensor, len(inputs))
		offset := 0
		for i, in := range inputs {
			begin := make([]int, rank)
			size := tensor.CopyShape(dy.Shape)
			begin[axis] = offset
			size[axis] = in.Shape[axis]
			grads[i] = Slice(dy, begin, size)
			offset += in.Shape[axis]
		}
		return grads
	})
	core.RegisterGradient("Slice", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		begin := attrs.Begin
		in := inputs[0]
		dy := dys[0]
		paddings := make([][2]int, in.Rank())
		for d := range paddings {
			paddings[d] = [2]int{begin[d], in.Shape[d] - begin[d] - dy.Shape[d]}
		}
		return []*tensor.Tensor{Pad(dy, paddings, 0)}
	})
	core.RegisterGradient("PadV2", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		paddings := attrs.Paddings
		in := inputs[0]
		begin := make([]int, in.Rank())
		size := tensor.CopyShape(in.Shape)
		for d := 0; d < in.Rank(); d++ {
			begin[d] = paddings[2*d]
		}
		return []*tensor.Tensor{Slice(dys[0], begin, size)}
	})
	core.RegisterGradient("Reverse", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		axes := attrs.Axes
		return []*tensor.Tensor{Reverse(dys[0], axes...)}
	})
	core.RegisterGradient("Tile", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		reps := attrs.Reps
		in := inputs[0]
		// View dy as [r0, s0, r1, s1, ...] and sum over the repeat axes:
		// the tile of an element is the set of positions whose
		// within-block coordinates match.
		interleaved := make([]int, 0, 2*in.Rank())
		var repAxes []int
		for d := 0; d < in.Rank(); d++ {
			repAxes = append(repAxes, 2*d)
			interleaved = append(interleaved, reps[d], in.Shape[d])
		}
		dyView := Reshape(dys[0], interleaved...)
		summed := Sum(dyView, repAxes, false)
		return []*tensor.Tensor{Reshape(summed, in.Shape...)}
	})
	core.RegisterGradient("GatherV2", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		axis := attrs.Axis
		in, indices := inputs[0], inputs[1]
		rank := in.Rank()
		if axis < 0 {
			axis += rank
		}
		if axis != 0 {
			panic(&core.OpError{Kernel: "GatherV2", Err: fmt.Errorf("gradient only implemented for axis 0, got %d", axis)})
		}
		// Scatter-add dy back via a one-hot matmul:
		// dx = oneHot(indices)^T . dy2d, with dy flattened to
		// [numIndices, innerSize].
		numIdx := indices.Size()
		innerSize := in.Size() / in.Shape[0]
		dy2d := Reshape(dys[0], numIdx, innerSize)
		oh := OneHot(Reshape(indices, numIdx), in.Shape[0])
		dx2d := MatMul(oh, dy2d, true, false)
		return []*tensor.Tensor{Reshape(dx2d, in.Shape...), nil}
	})
}
