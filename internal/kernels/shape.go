package kernels

import (
	"repro/internal/tensor"
)

func init() {
	// Transpose permutes dimensions according to the "perm" attribute.
	RegisterRef("Transpose", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("Transpose", inputs, 1); err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		perm := attrs.Ints("perm", nil)
		rank := x.Rank()
		if len(perm) != rank {
			return Buffer{}, errIn("Transpose", "perm %v incompatible with rank %d", perm, rank)
		}
		seen := make([]bool, rank)
		outShape := make([]int, rank)
		for i, p := range perm {
			if p < 0 || p >= rank || seen[p] {
				return Buffer{}, errIn("Transpose", "invalid perm %v", perm)
			}
			seen[p] = true
			outShape[i] = x.Shape[p]
		}
		out := NewBuffer(outShape, x.DType)
		inStrides := tensor.ComputeStrides(x.Shape)
		outStrides := tensor.ComputeStrides(outShape)
		size := x.Size()
		if rank == 0 || size == 0 {
			copy(out.Data, x.Data)
			return out, nil
		}
		// Walk output coordinates; map each back to the input index.
		coords := make([]int, rank)
		inIdx := 0
		// permStrides[i] is how much the input index moves when output
		// coordinate i increments.
		permStrides := make([]int, rank)
		for i, p := range perm {
			permStrides[i] = inStrides[p]
		}
		_ = outStrides
		for outIdx := 0; outIdx < size; outIdx++ {
			out.Data[outIdx] = x.Data[inIdx]
			for d := rank - 1; d >= 0; d-- {
				coords[d]++
				inIdx += permStrides[d]
				if coords[d] < outShape[d] {
					break
				}
				coords[d] = 0
				inIdx -= outShape[d] * permStrides[d]
			}
		}
		return out, nil
	})

	// Concat concatenates any number of inputs along the "axis" attribute.
	RegisterRef("Concat", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if len(inputs) == 0 {
			return Buffer{}, errIn("Concat", "needs at least one input")
		}
		axis := attrs.Int("axis", 0)
		rank := inputs[0].Rank()
		if axis < 0 {
			axis += rank
		}
		if axis < 0 || axis >= rank {
			return Buffer{}, errIn("Concat", "axis %d out of range for rank %d", attrs.Int("axis", 0), rank)
		}
		outShape := tensor.CopyShape(inputs[0].Shape)
		outShape[axis] = 0
		for i, in := range inputs {
			if in.Rank() != rank {
				return Buffer{}, errIn("Concat", "input %d rank %d != %d", i, in.Rank(), rank)
			}
			for d := 0; d < rank; d++ {
				if d != axis && in.Shape[d] != inputs[0].Shape[d] {
					return Buffer{}, errIn("Concat", "input %d shape %v incompatible with %v along axis %d",
						i, in.Shape, inputs[0].Shape, axis)
				}
			}
			outShape[axis] += in.Shape[axis]
		}
		out := NewBuffer(outShape, inputs[0].DType)
		// Copy block-wise: outer = product of dims before axis; each
		// input contributes a contiguous run of (axisDim * innerSize).
		outerSize := tensor.ShapeSize(outShape[:axis])
		innerSize := tensor.ShapeSize(outShape[axis+1:])
		outRow := outShape[axis] * innerSize
		colOffset := 0
		for _, in := range inputs {
			run := in.Shape[axis] * innerSize
			for o := 0; o < outerSize; o++ {
				src := in.Data[o*run : (o+1)*run]
				dst := out.Data[o*outRow+colOffset:]
				copy(dst[:run], src)
			}
			colOffset += run
		}
		return out, nil
	})

	// Slice extracts a contiguous region given "begin" and "size"
	// attributes; a size entry of -1 extends to the end of that dim.
	RegisterRef("Slice", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("Slice", inputs, 1); err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		begin := attrs.Ints("begin", nil)
		size := attrs.Ints("size", nil)
		rank := x.Rank()
		if len(begin) != rank || len(size) != rank {
			return Buffer{}, errIn("Slice", "begin %v / size %v incompatible with rank %d", begin, size, rank)
		}
		outShape := make([]int, rank)
		for d := 0; d < rank; d++ {
			s := size[d]
			if s == -1 {
				s = x.Shape[d] - begin[d]
			}
			if begin[d] < 0 || s < 0 || begin[d]+s > x.Shape[d] {
				return Buffer{}, errIn("Slice", "begin %v size %v out of bounds for shape %v", begin, size, x.Shape)
			}
			outShape[d] = s
		}
		out := NewBuffer(outShape, x.DType)
		if out.Size() == 0 {
			return out, nil
		}
		inStrides := tensor.ComputeStrides(x.Shape)
		// Copy row-by-row along the innermost dimension.
		if rank == 0 {
			out.Data[0] = x.Data[0]
			return out, nil
		}
		rowLen := outShape[rank-1]
		numRows := out.Size() / rowLen
		coords := make([]int, rank)
		for r := 0; r < numRows; r++ {
			inIdx := begin[rank-1]
			for d := 0; d < rank-1; d++ {
				inIdx += (coords[d] + begin[d]) * inStrides[d]
			}
			copy(out.Data[r*rowLen:(r+1)*rowLen], x.Data[inIdx:inIdx+rowLen])
			for d := rank - 2; d >= 0; d-- {
				coords[d]++
				if coords[d] < outShape[d] {
					break
				}
				coords[d] = 0
			}
		}
		return out, nil
	})

	// Pad pads with a constant value; the "paddings" attribute holds
	// [before0, after0, before1, after1, ...].
	RegisterRef("PadV2", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("PadV2", inputs, 1); err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		paddings := attrs.Ints("paddings", nil)
		constValue := float32(attrs.Float("constantValue", 0))
		rank := x.Rank()
		if len(paddings) != 2*rank {
			return Buffer{}, errIn("PadV2", "paddings %v must have 2*rank=%d entries", paddings, 2*rank)
		}
		outShape := make([]int, rank)
		for d := 0; d < rank; d++ {
			if paddings[2*d] < 0 || paddings[2*d+1] < 0 {
				return Buffer{}, errIn("PadV2", "negative padding %v", paddings)
			}
			outShape[d] = x.Shape[d] + paddings[2*d] + paddings[2*d+1]
		}
		out := NewBuffer(outShape, x.DType)
		if constValue != 0 {
			for i := range out.Data {
				out.Data[i] = constValue
			}
		}
		if x.Size() == 0 {
			return out, nil
		}
		outStrides := tensor.ComputeStrides(outShape)
		if rank == 0 {
			out.Data[0] = x.Data[0]
			return out, nil
		}
		// Copy input rows into their shifted positions.
		rowLen := x.Shape[rank-1]
		numRows := x.Size() / rowLen
		coords := make([]int, rank)
		for r := 0; r < numRows; r++ {
			outIdx := paddings[2*(rank-1)]
			for d := 0; d < rank-1; d++ {
				outIdx += (coords[d] + paddings[2*d]) * outStrides[d]
			}
			copy(out.Data[outIdx:outIdx+rowLen], x.Data[r*rowLen:(r+1)*rowLen])
			for d := rank - 2; d >= 0; d-- {
				coords[d]++
				if coords[d] < x.Shape[d] {
					break
				}
				coords[d] = 0
			}
		}
		return out, nil
	})

	// GatherV2 gathers slices along "axis" using integer indices (input 1).
	RegisterRef("GatherV2", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("GatherV2", inputs, 2); err != nil {
			return Buffer{}, err
		}
		x, indices := inputs[0], inputs[1]
		axis := attrs.Int("axis", 0)
		rank := x.Rank()
		if axis < 0 {
			axis += rank
		}
		if axis < 0 || axis >= rank {
			return Buffer{}, errIn("GatherV2", "axis %d out of range for rank %d", attrs.Int("axis", 0), rank)
		}
		outShape := make([]int, 0, rank-1+indices.Rank())
		outShape = append(outShape, x.Shape[:axis]...)
		outShape = append(outShape, indices.Shape...)
		outShape = append(outShape, x.Shape[axis+1:]...)
		out := NewBuffer(outShape, x.DType)
		outerSize := tensor.ShapeSize(x.Shape[:axis])
		axisSize := x.Shape[axis]
		innerSize := tensor.ShapeSize(x.Shape[axis+1:])
		numIdx := indices.Size()
		for o := 0; o < outerSize; o++ {
			for ii := 0; ii < numIdx; ii++ {
				idx := int(indices.Data[ii])
				if idx < 0 || idx >= axisSize {
					return Buffer{}, errIn("GatherV2", "index %d out of range [0, %d)", idx, axisSize)
				}
				src := x.Data[(o*axisSize+idx)*innerSize:]
				dst := out.Data[(o*numIdx+ii)*innerSize:]
				copy(dst[:innerSize], src[:innerSize])
			}
		}
		return out, nil
	})

	// Tile repeats the input along each dimension per the "reps" attribute.
	RegisterRef("Tile", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("Tile", inputs, 1); err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		reps := attrs.Ints("reps", nil)
		rank := x.Rank()
		if len(reps) != rank {
			return Buffer{}, errIn("Tile", "reps %v incompatible with rank %d", reps, rank)
		}
		outShape := make([]int, rank)
		for d := 0; d < rank; d++ {
			if reps[d] <= 0 {
				return Buffer{}, errIn("Tile", "reps must be positive, got %v", reps)
			}
			outShape[d] = x.Shape[d] * reps[d]
		}
		out := NewBuffer(outShape, x.DType)
		inStrides := tensor.ComputeStrides(x.Shape)
		size := out.Size()
		coords := make([]int, rank)
		for outIdx := 0; outIdx < size; outIdx++ {
			inIdx := 0
			for d := 0; d < rank; d++ {
				inIdx += (coords[d] % x.Shape[d]) * inStrides[d]
			}
			out.Data[outIdx] = x.Data[inIdx]
			for d := rank - 1; d >= 0; d-- {
				coords[d]++
				if coords[d] < outShape[d] {
					break
				}
				coords[d] = 0
			}
		}
		return out, nil
	})

	// Reverse flips the listed axes.
	RegisterRef("Reverse", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("Reverse", inputs, 1); err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		axes := attrs.Ints("axes", nil)
		rank := x.Rank()
		flip := make([]bool, rank)
		for _, a := range axes {
			if a < 0 {
				a += rank
			}
			if a < 0 || a >= rank {
				return Buffer{}, errIn("Reverse", "axis out of range in %v for rank %d", axes, rank)
			}
			flip[a] = true
		}
		out := NewBuffer(x.Shape, x.DType)
		inStrides := tensor.ComputeStrides(x.Shape)
		size := x.Size()
		coords := make([]int, rank)
		for outIdx := 0; outIdx < size; outIdx++ {
			inIdx := 0
			for d := 0; d < rank; d++ {
				c := coords[d]
				if flip[d] {
					c = x.Shape[d] - 1 - c
				}
				inIdx += c * inStrides[d]
			}
			out.Data[outIdx] = x.Data[inIdx]
			for d := rank - 1; d >= 0; d-- {
				coords[d]++
				if coords[d] < x.Shape[d] {
					break
				}
				coords[d] = 0
			}
		}
		return out, nil
	})
}
