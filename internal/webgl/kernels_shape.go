package webgl

import (
	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// registerShape installs data-movement programs: transpose, pad, slice and
// concat. Each is a pure coordinate remapping executed per output texel.
func (b *Backend) registerShape() {
	b.register("Transpose", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 1 {
			return errf("Transpose: got %d inputs, want 1", len(inputs))
		}
		x := inputs[0]
		perm := attrs.Ints("perm", nil)
		rank := len(x.Shape)
		if len(perm) != rank {
			return errf("Transpose: perm %v incompatible with rank %d", perm, rank)
		}
		outShape := make([]int, rank)
		for i, p := range perm {
			if p < 0 || p >= rank {
				return errf("Transpose: invalid perm %v", perm)
			}
			outShape[i] = x.Shape[p]
		}
		_, xTex := b.input(x)
		out, err := b.output(outShape, x.DType, res)
		if err != nil {
			return err
		}
		inStrides := tensor.ComputeStrides(x.Shape)
		outStrides := tensor.ComputeStrides(outShape)
		// Terms mapping output flat -> input flat; squeezing drops
		// size-1 dims exactly as in the sampler compiler.
		var terms []indexTerm
		for i := 0; i < rank; i++ {
			if b.cfg.SqueezeLogicalShapes && outShape[i] == 1 {
				continue
			}
			terms = append(terms, indexTerm{div: outStrides[i], dim: outShape[i], stride: inStrides[perm[i]]})
		}
		b.runFlat("Transpose", out, perValue(out.size, 1, aluTerm*len(terms)), func(flat int) float32 {
			idx := 0
			for _, t := range terms {
				idx += (flat / t.div % t.dim) * t.stride
			}
			return xTex.FetchFlat(idx)
		})
		return nil
	})

	b.register("PadV2", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 1 {
			return errf("PadV2: got %d inputs, want 1", len(inputs))
		}
		x := inputs[0]
		paddings := attrs.Ints("paddings", nil)
		constValue := float32(attrs.Float("constantValue", 0))
		rank := len(x.Shape)
		if len(paddings) != 2*rank {
			return errf("PadV2: paddings %v must have 2*rank entries", paddings)
		}
		outShape := make([]int, rank)
		for d := 0; d < rank; d++ {
			outShape[d] = x.Shape[d] + paddings[2*d] + paddings[2*d+1]
		}
		_, xTex := b.input(x)
		out, err := b.output(outShape, x.DType, res)
		if err != nil {
			return err
		}
		outStrides := tensor.ComputeStrides(outShape)
		inStrides := tensor.ComputeStrides(x.Shape)
		inShape := tensor.CopyShape(x.Shape)
		before := make([]int, rank)
		for d := 0; d < rank; d++ {
			before[d] = paddings[2*d]
		}
		// Every dimension decodes and bounds-checks; the fetch is charged
		// as taken for padding values too.
		b.runFlat("PadV2", out, perValue(out.size, 1, (aluTerm+2)*rank), func(flat int) float32 {
			idx := 0
			for d := 0; d < rank; d++ {
				c := flat / outStrides[d] % outShape[d]
				c -= before[d]
				if c < 0 || c >= inShape[d] {
					return constValue
				}
				idx += c * inStrides[d]
			}
			return xTex.FetchFlat(idx)
		})
		return nil
	})

	b.register("Slice", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 1 {
			return errf("Slice: got %d inputs, want 1", len(inputs))
		}
		x := inputs[0]
		begin := attrs.Ints("begin", nil)
		size := attrs.Ints("size", nil)
		rank := len(x.Shape)
		if len(begin) != rank || len(size) != rank {
			return errf("Slice: begin/size incompatible with rank %d", rank)
		}
		outShape := make([]int, rank)
		for d := 0; d < rank; d++ {
			s := size[d]
			if s == -1 {
				s = x.Shape[d] - begin[d]
			}
			if begin[d] < 0 || s < 0 || begin[d]+s > x.Shape[d] {
				return errf("Slice: begin %v size %v out of bounds for %v", begin, size, x.Shape)
			}
			outShape[d] = s
		}
		_, xTex := b.input(x)
		out, err := b.output(outShape, x.DType, res)
		if err != nil {
			return err
		}
		outStrides := tensor.ComputeStrides(outShape)
		inStrides := tensor.ComputeStrides(x.Shape)
		baseOffset := 0
		for d := 0; d < rank; d++ {
			baseOffset += begin[d] * inStrides[d]
		}
		var terms []indexTerm
		for d := 0; d < rank; d++ {
			if b.cfg.SqueezeLogicalShapes && outShape[d] == 1 {
				continue
			}
			terms = append(terms, indexTerm{div: outStrides[d], dim: outShape[d], stride: inStrides[d]})
		}
		b.runFlat("Slice", out, perValue(out.size, 1, aluTerm*len(terms)), func(flat int) float32 {
			idx := baseOffset
			for _, t := range terms {
				idx += (flat / t.div % t.dim) * t.stride
			}
			return xTex.FetchFlat(idx)
		})
		return nil
	})

	b.register("Concat", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) == 0 {
			return errf("Concat: needs at least one input")
		}
		axis := attrs.Int("axis", 0)
		rank := len(inputs[0].Shape)
		if axis < 0 {
			axis += rank
		}
		if axis < 0 || axis >= rank {
			return errf("Concat: axis out of range for rank %d", rank)
		}
		outShape := tensor.CopyShape(inputs[0].Shape)
		outShape[axis] = 0
		texes := make([]*glsim.Texture, len(inputs))
		offsets := make([]int, len(inputs)) // cumulative sizes along axis
		for i, in := range inputs {
			if len(in.Shape) != rank {
				return errf("Concat: rank mismatch")
			}
			offsets[i] = outShape[axis]
			outShape[axis] += in.Shape[axis]
			_, texes[i] = b.input(in)
		}
		out, err := b.output(outShape, inputs[0].DType, res)
		if err != nil {
			return err
		}
		outerSize := tensor.ShapeSize(outShape[:axis])
		innerSize := tensor.ShapeSize(outShape[axis+1:])
		_ = outerSize
		axisDim := outShape[axis]
		inAxis := make([]int, len(inputs))
		for i, in := range inputs {
			inAxis[i] = in.Shape[axis]
		}
		// Two div/mod pairs, then a chain of coordinate comparisons.
		b.runFlat("Concat", out, perValue(out.size, 1, 2*aluDecode+len(inputs)), func(flat int) float32 {
			innerIdx := flat % innerSize
			rest := flat / innerSize
			a := rest % axisDim
			outer := rest / axisDim
			// Select the segment containing coordinate a; the shader
			// equivalent is a chain of coordinate comparisons.
			for i := len(inputs) - 1; i >= 0; i-- {
				if a >= offsets[i] {
					local := a - offsets[i]
					return texes[i].FetchFlat((outer*inAxis[i]+local)*innerSize + innerIdx)
				}
			}
			return 0
		})
		return nil
	})
}
