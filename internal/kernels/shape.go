package kernels

import (
	"slices"

	"repro/internal/tensor"
)

func init() {
	// Transpose permutes dimensions according to the "perm" attribute.
	RegisterRef("Transpose", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		var res TensorInfo
		if _, err := ResolveTranspose(inputsOf(inputs), attrs, &res); err != nil && err != ErrFallback {
			return Buffer{}, err
		}
		x, perm, rank, outShape := inputs[0], attrs.Ints("perm", nil), inputs[0].Rank(), res.Shape
		out := NewBuffer(outShape, x.DType)
		inStrides := tensor.ComputeStrides(x.Shape)
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
		var res TensorInfo
		if _, err := ResolveConcat(inputsOf(inputs), attrs, &res); err != nil {
			return Buffer{}, err
		}
		axis, outShape := attrs.Int("axis", 0), res.Shape
		if axis < 0 {
			axis += len(outShape)
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
		var res TensorInfo
		if _, err := ResolveSlice(inputsOf(inputs), attrs, &res); err != nil && err != ErrFallback {
			return Buffer{}, err
		}
		x, begin, rank, outShape := inputs[0], attrs.Ints("begin", nil), inputs[0].Rank(), res.Shape
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
		var res TensorInfo
		if _, err := ResolvePad(inputsOf(inputs), attrs, &res); err != nil {
			return Buffer{}, err
		}
		x, paddings, rank, outShape := inputs[0], attrs.Ints("paddings", nil), inputs[0].Rank(), res.Shape
		constValue := float32(attrs.Float("constantValue", 0))
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
		var res TensorInfo
		if _, err := ResolveGather(inputsOf(inputs), attrs, &res); err != nil {
			return Buffer{}, err
		}
		x, indices, axis := inputs[0], inputs[1], attrs.Int("axis", 0)
		if axis < 0 {
			axis += x.Rank()
		}
		out := NewBuffer(res.Shape, res.DType)
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
		var res TensorInfo
		if _, err := ResolveTile(inputsOf(inputs), attrs, &res); err != nil && err != ErrFallback {
			return Buffer{}, err
		}
		x, rank, outShape := inputs[0], inputs[0].Rank(), res.Shape
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

// The shape kernels' range bodies, native's and webgl's: each fills the
// output values [lo, lo+len(dst)) of one call, whole or cut anywhere, as
// the reference kernel above computes them. Resolve* is each kernel's one
// check of its operands and attributes, which the reference kernel runs
// too, and describes the output in out.

// maxViewRank bounds a View's dims once merged: a transpose of up to six
// dims, a tile of three.
const maxViewRank = 6

// A View is an output each of whose values is one input value at an
// affine offset, out[c0, …, cr] = x[off + Σ cd·stride[d]]: a transpose
// (the input's strides permuted), a slice (an offset) or a tile (each dim
// split into its repeat, of stride 0, and the input's dim). Dims that
// continue each other in x are merged and size-1 dims dropped, so a
// permutation of blocks of axes is a batch of 2-D transposes, and the runs
// of the last dim are what a body moves at a time. Its fields are 32-bit
// for Walk's reason: a closure holds one per dispatch.
type View struct {
	rank, off     int32
	shape, stride [maxViewRank]int32
}

// add appends an output dim of n values stride apart in x, and reports
// whether the view still fits in maxViewRank dims.
func (v *View) add(n, stride int) bool {
	switch {
	case n == 1:
	case v.rank > 0 && int(v.stride[v.rank-1]) == n*stride:
		v.shape[v.rank-1] *= int32(n)
		v.stride[v.rank-1] = int32(stride)
	case v.rank == maxViewRank:
		return false
	default:
		v.shape[v.rank], v.stride[v.rank] = int32(n), int32(stride)
		v.rank++
	}
	return true
}

// fits is the error of a resolved view: ErrFallback — every check passed,
// but the view needs more than maxViewRank dims, so a backend declines the
// call for the reference kernel to run it.
func fits(ok bool) error {
	if !ok {
		return ErrFallback
	}
	return nil
}

// Fill computes the output values [lo, lo+len(dst)) of the view of x into
// dst, a run of the last dim at a time — a copy when it is contiguous in
// x — the runs' coordinates counted up from lo's, not divided out per run.
func (v View) Fill(x []float32, lo int, dst []float32) {
	if v.rank == 0 { // every dim is 1: one value
		copy(dst, x[v.off:])
		return
	}
	last := v.rank - 1
	n, s := int(v.shape[last]), int(v.stride[last])
	// lo is value j of a run whose other coordinates are pos, which starts
	// at x[in].
	var pos [maxViewRank]int32
	j, r, in := lo%n, lo/n, int(v.off)
	for d := last - 1; d >= 0; d-- {
		dim := int(v.shape[d])
		pos[d], in, r = int32(r%dim), in+r%dim*int(v.stride[d]), r/dim
	}
	for at := 0; at < len(dst); j = 0 {
		run, from := dst[at:min(len(dst), at+n-j)], in+j*s
		switch {
		case s == 1:
			copy(run, x[from:])
		case j == 0 && last > 0 && v.stride[last-1] == 1 && len(dst)-at >= 4*n && v.shape[last-1]-pos[last-1] >= 4:
			// Whole runs that start side by side in x — rows of a 2-D
			// transpose — four at a time: one load of four floats per four
			// moved.
			k := min(int(v.shape[last-1]-pos[last-1]), (len(dst)-at)/n) &^ 3
			for c := 0; c < k; c += 4 {
				src, r0 := x[from+c:], dst[at+c*n:][:n]
				r1, r2, r3 := dst[at+(c+1)*n:][:len(r0)], dst[at+(c+2)*n:][:len(r0)], dst[at+(c+3)*n:][:len(r0)]
				for i := range r0 {
					q := src[i*s : i*s+4 : i*s+4]
					r0[i], r1[i], r2[i], r3[i] = q[0], q[1], q[2], q[3]
				}
			}
			run = dst[at : at+k*n]
			pos[last-1], in = pos[last-1]+int32(k-1), in+k-1
		default:
			for i := range run {
				run[i] = x[from+i*s]
			}
		}
		at += len(run)
		for d := last - 1; d >= 0; d-- { // the next run
			if in += int(v.stride[d]); pos[d] < v.shape[d]-1 {
				pos[d]++
				break
			}
			pos[d], in = 0, in-int(v.shape[d])*int(v.stride[d])
		}
	}
}

// ResolveTranspose checks a Transpose — attr perm, a permutation of the
// input's axes — and returns its view.
func ResolveTranspose(inputs []Input, attrs Attrs, out *TensorInfo) (View, error) {
	if err := wantInputs("Transpose", inputs, 1); err != nil {
		return View{}, err
	}
	x, perm := inputs[0].Shape, attrs.Ints("perm", nil)
	if len(perm) != len(x) {
		return View{}, errIn("Transpose", "perm %v incompatible with rank %d", perm, len(x))
	}
	var v View
	ok := true
	out.Shape, out.DType = out.Shape[:0], inputs[0].DType
	for i, p := range perm {
		if p < 0 || p >= len(x) || slices.Contains(perm[:i], p) {
			return View{}, errIn("Transpose", "invalid perm %v", perm)
		}
		out.Shape = append(out.Shape, x[p])
		ok = v.add(x[p], tensor.ShapeSize(x[p+1:])) && ok
	}
	return v, fits(ok)
}

// ResolveSlice checks a Slice — attrs begin and size, a size of -1 running
// to the end of its dim — and returns its view.
func ResolveSlice(inputs []Input, attrs Attrs, out *TensorInfo) (View, error) {
	if err := wantInputs("Slice", inputs, 1); err != nil {
		return View{}, err
	}
	x, begin, size := inputs[0].Shape, attrs.Ints("begin", nil), attrs.Ints("size", nil)
	if len(begin) != len(x) || len(size) != len(x) {
		return View{}, errIn("Slice", "begin %v / size %v incompatible with rank %d", begin, size, len(x))
	}
	var v View
	ok, off := true, 0
	out.Shape, out.DType = out.Shape[:0], inputs[0].DType
	for d, s := range size {
		if s == -1 {
			s = x[d] - begin[d]
		}
		if begin[d] < 0 || s < 0 || begin[d]+s > x[d] {
			return View{}, errIn("Slice", "begin %v size %v out of bounds for shape %v", begin, size, x)
		}
		stride := tensor.ShapeSize(x[d+1:])
		out.Shape, off = append(out.Shape, s), off+begin[d]*stride
		ok = v.add(s, stride) && ok
	}
	v.off = int32(off)
	return v, fits(ok)
}

// ResolveTile checks a Tile — attr reps, one positive count per dim — and
// returns its view.
func ResolveTile(inputs []Input, attrs Attrs, out *TensorInfo) (View, error) {
	if err := wantInputs("Tile", inputs, 1); err != nil {
		return View{}, err
	}
	x, reps := inputs[0].Shape, attrs.Ints("reps", nil)
	if len(reps) != len(x) {
		return View{}, errIn("Tile", "reps %v incompatible with rank %d", reps, len(x))
	}
	var v View
	ok := true
	out.Shape, out.DType = out.Shape[:0], inputs[0].DType
	for d, r := range reps {
		if r <= 0 {
			return View{}, errIn("Tile", "reps must be positive, got %v", reps)
		}
		out.Shape = append(out.Shape, x[d]*r)
		ok = v.add(r, 0) && v.add(x[d], tensor.ShapeSize(x[d+1:])) && ok
	}
	return v, fits(ok)
}

// Pad is a resolved PadV2: the input's dims, the output's and the padding
// before each, a leading 1 added to all three (a scalar has a row too).
type Pad struct {
	in, out, before []int
	value           float32
}

// ResolvePad checks a PadV2 — attr paddings, [before0, after0, …], none
// negative; attr constantValue.
func ResolvePad(inputs []Input, attrs Attrs, out *TensorInfo) (Pad, error) {
	if err := wantInputs("PadV2", inputs, 1); err != nil {
		return Pad{}, err
	}
	x, paddings := inputs[0].Shape, attrs.Ints("paddings", nil)
	if len(paddings) != 2*len(x) {
		return Pad{}, errIn("PadV2", "paddings %v must have 2*rank=%d entries", paddings, 2*len(x))
	}
	p := Pad{in: append([]int{1}, x...), out: []int{1}, before: []int{0}, value: float32(attrs.Float("constantValue", 0))}
	out.Shape, out.DType = out.Shape[:0], inputs[0].DType
	for d, n := range x {
		if paddings[2*d] < 0 || paddings[2*d+1] < 0 {
			return Pad{}, errIn("PadV2", "negative padding %v", paddings)
		}
		out.Shape = append(out.Shape, n+paddings[2*d]+paddings[2*d+1])
		p.before = append(p.before, paddings[2*d])
	}
	p.out = append(p.out, out.Shape...)
	return p, nil
}

// Fill computes the output values [lo, lo+len(dst)) of the pad into dst, a
// run of the last dim at a time: the constant outside the input, the
// input's value inside it.
func (p Pad) Fill(x []float32, lo int, dst []float32) {
	last := len(p.out) - 1
	n, b, w := p.out[last], p.before[last], p.in[last]
	for at, hi := lo, lo+len(dst); at < hi; {
		j, r := at%n, at/n
		run := dst[at-lo : at-lo+min(n-j, hi-at)]
		at += len(run)
		in, inside := 0, true
		for d, stride := last-1, w; d >= 0; d-- {
			c := r%p.out[d] - p.before[d]
			r /= p.out[d]
			inside = inside && c >= 0 && c < p.in[d]
			in, stride = in+c*stride, stride*p.in[d]
		}
		for i := range run {
			if c := j + i - b; inside && c >= 0 && c < w {
				run[i] = x[in+c]
			} else {
				run[i] = p.value
			}
		}
	}
}

// Concat is a resolved Concat: each output row — the dims before the axis
// — is each input's run of values per row in turn.
type Concat struct {
	row  int
	runs []int
}

// ResolveConcat checks a Concat — one or more inputs of one rank that
// agree on every dim but attr axis (negative counts from the end).
func ResolveConcat(inputs []Input, attrs Attrs, out *TensorInfo) (Concat, error) {
	if len(inputs) == 0 {
		return Concat{}, errIn("Concat", "needs at least one input")
	}
	first := inputs[0].Shape
	axis, rank := attrs.Int("axis", 0), len(first)
	if axis < 0 {
		axis += rank
	}
	if axis < 0 || axis >= rank {
		return Concat{}, errIn("Concat", "axis %d out of range for rank %d", attrs.Int("axis", 0), rank)
	}
	out.Shape, out.DType = append(out.Shape[:0], first...), inputs[0].DType
	out.Shape[axis] = 0
	c, inner := Concat{runs: make([]int, len(inputs))}, tensor.ShapeSize(first[axis+1:])
	for i, in := range inputs {
		if len(in.Shape) != rank {
			return Concat{}, errIn("Concat", "input %d rank %d != %d", i, len(in.Shape), rank)
		}
		for d, n := range in.Shape {
			if d != axis && n != first[d] {
				return Concat{}, errIn("Concat", "input %d shape %v incompatible with %v along axis %d", i, in.Shape, first, axis)
			}
		}
		out.Shape[axis] += in.Shape[axis]
		c.runs[i] = in.Shape[axis] * inner
		c.row += c.runs[i]
	}
	return c, nil
}

// Fill computes the output values [lo, lo+len(dst)) of the concatenation of
// xs into dst, a copy per input run.
func (c Concat) Fill(xs [][]float32, lo int, dst []float32) {
	for at, hi := lo, lo+len(dst); at < hi; {
		o, col, i := at/c.row, at%c.row, 0
		for col >= c.runs[i] {
			col, i = col-c.runs[i], i+1
		}
		run := dst[at-lo : at-lo+min(c.runs[i]-col, hi-at)]
		copy(run, xs[i][o*c.runs[i]+col:])
		at += len(run)
	}
}

// Gather is a resolved GatherV2: x as [outer, axis, inner], the output as
// [outer, indices, inner].
type Gather struct{ axis, indices, inner int }

// ResolveGather checks a GatherV2 — inputs x and int32 indices, attr axis
// (negative counts from the end).
func ResolveGather(inputs []Input, attrs Attrs, out *TensorInfo) (Gather, error) {
	if err := wantInputs("GatherV2", inputs, 2); err != nil {
		return Gather{}, err
	}
	x, indices := inputs[0].Shape, inputs[1].Shape
	axis := attrs.Int("axis", 0)
	if axis < 0 {
		axis += len(x)
	}
	if axis < 0 || axis >= len(x) {
		return Gather{}, errIn("GatherV2", "axis %d out of range for rank %d", attrs.Int("axis", 0), len(x))
	}
	out.Shape = append(append(append(out.Shape[:0], x[:axis]...), indices...), x[axis+1:]...)
	out.DType = inputs[0].DType
	return Gather{x[axis], tensor.ShapeSize(indices), tensor.ShapeSize(x[axis+1:])}, nil
}

// InRange reports whether every index names a slice of x; the reference
// kernel rejects a call where one does not.
func (g Gather) InRange(idx []float32) bool {
	for _, v := range idx[:g.indices] {
		if k := int(v); k < 0 || k >= g.axis {
			return false
		}
	}
	return true
}

// Fill computes the output values [lo, lo+len(dst)) of the gather into dst,
// a copy per slice. An index out of range reads zeros — a difference from
// the reference kernel, which rejects the call: native checks the indices
// first (InRange) and declines, while a webgl program cannot fail, and
// reads 0 where a shader would read whatever lies past its texture.
func (g Gather) Fill(x, idx []float32, lo int, dst []float32) {
	for at, hi := lo, lo+len(dst); at < hi; {
		j, r := at%g.inner, at/g.inner
		run := dst[at-lo : at-lo+min(g.inner-j, hi-at)]
		if k := int(idx[r%g.indices]); k >= 0 && k < g.axis {
			copy(run, x[(r/g.indices*g.axis+k)*g.inner+j:])
		} else {
			clear(run)
		}
		at += len(run)
	}
}
