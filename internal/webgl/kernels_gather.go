package webgl

import (
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// registerGather installs the indexed data-movement programs used heavily
// by training loops (minibatch gathers, one-hot labels, broadcast-grad
// tiles), so backpropagation stays device-resident.
func (b *Backend) registerGather() {
	b.register("GatherV2", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 2 {
			return errf("GatherV2: got %d inputs, want 2", len(inputs))
		}
		x, indices := inputs[0], inputs[1]
		axis := attrs.Int("axis", 0)
		rank := len(x.Shape)
		if axis < 0 {
			axis += rank
		}
		if axis < 0 || axis >= rank {
			return errf("GatherV2: axis out of range for rank %d", rank)
		}
		outShape := make([]int, 0, rank-1+len(indices.Shape))
		outShape = append(outShape, x.Shape[:axis]...)
		outShape = append(outShape, indices.Shape...)
		outShape = append(outShape, x.Shape[axis+1:]...)
		_, xTex := b.input(x)
		_, idxTex := b.input(indices)
		out, err := b.output(outShape, x.DType, res)
		if err != nil {
			return err
		}
		axisSize := x.Shape[axis]
		innerSize := tensor.ShapeSize(x.Shape[axis+1:])
		numIdx := tensor.ShapeSize(indices.Shape)
		b.runFlat("GatherV2", out, perValue(out.size, 2, 2*aluDecode+2), func(flat int) float32 {
			inner := flat % innerSize
			rest := flat / innerSize
			ii := rest % numIdx
			outer := rest / numIdx
			idx := int(idxTex.FetchFlat(ii))
			if idx < 0 || idx >= axisSize {
				// GLSL would read garbage; we surface zero, and the
				// reference kernel (used in tests) errors instead.
				return 0
			}
			return xTex.FetchFlat((outer*axisSize+idx)*innerSize + inner)
		})
		return nil
	})

	b.register("OneHot", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 1 {
			return errf("OneHot: got %d inputs, want 1", len(inputs))
		}
		indices := inputs[0]
		depth := attrs.Int("depth", 0)
		if depth <= 0 {
			return errf("OneHot: depth must be positive")
		}
		onValue := float32(attrs.Float("onValue", 1))
		offValue := float32(attrs.Float("offValue", 0))
		outShape := append(tensor.CopyShape(indices.Shape), depth)
		_, idxTex := b.input(indices)
		out, err := b.output(outShape, tensor.Float32, res)
		if err != nil {
			return err
		}
		b.runFlat("OneHot", out, perValue(out.size, 1, aluDecode+1), func(flat int) float32 {
			c := flat % depth
			i := flat / depth
			if int(idxTex.FetchFlat(i)) == c {
				return onValue
			}
			return offValue
		})
		return nil
	})

	b.register("Tile", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 1 {
			return errf("Tile: got %d inputs, want 1", len(inputs))
		}
		x := inputs[0]
		reps := attrs.Ints("reps", nil)
		rank := len(x.Shape)
		if len(reps) != rank {
			return errf("Tile: reps %v incompatible with rank %d", reps, rank)
		}
		outShape := make([]int, rank)
		for d := 0; d < rank; d++ {
			if reps[d] <= 0 {
				return errf("Tile: reps must be positive, got %v", reps)
			}
			outShape[d] = x.Shape[d] * reps[d]
		}
		_, xTex := b.input(x)
		out, err := b.output(outShape, x.DType, res)
		if err != nil {
			return err
		}
		outStrides := tensor.ComputeStrides(outShape)
		inStrides := tensor.ComputeStrides(x.Shape)
		inShape := tensor.CopyShape(x.Shape)
		b.runFlat("Tile", out, perValue(out.size, 1, (aluTerm+1)*rank), func(flat int) float32 {
			idx := 0
			for d := 0; d < rank; d++ {
				c := flat / outStrides[d] % outShape[d]
				idx += (c % inShape[d]) * inStrides[d]
			}
			return xTex.FetchFlat(idx)
		})
		return nil
	})
}
