package kernels

import "repro/internal/tensor"

// broadcastStrides returns, for an input shape, the per-dimension strides
// aligned to the broadcast output rank, with stride 0 for broadcast
// dimensions. Walking the output space with these strides yields the
// index of the corresponding input element.
func broadcastStrides(inShape, outShape []int) []int {
	outRank := len(outShape)
	inRank := len(inShape)
	inStrides := tensor.ComputeStrides(inShape)
	aligned := make([]int, outRank)
	for i := 0; i < outRank; i++ {
		j := i - (outRank - inRank)
		if j < 0 {
			aligned[i] = 0
			continue
		}
		if inShape[j] == 1 {
			aligned[i] = 0
		} else {
			aligned[i] = inStrides[j]
		}
	}
	return aligned
}

// odometer iterates the coordinates of shape in row-major order, calling
// visit with the flat indices into two broadcast inputs for every output
// element. It is the shared traversal for broadcast binary kernels.
func odometer(outShape []int, aStrides, bStrides []int, visit func(outIdx, aIdx, bIdx int)) {
	size := tensor.ShapeSize(outShape)
	rank := len(outShape)
	if rank == 0 {
		visit(0, 0, 0)
		return
	}
	coords := make([]int, rank)
	aIdx, bIdx := 0, 0
	for outIdx := 0; outIdx < size; outIdx++ {
		visit(outIdx, aIdx, bIdx)
		// Advance the odometer and the two running input indices.
		for d := rank - 1; d >= 0; d-- {
			coords[d]++
			aIdx += aStrides[d]
			bIdx += bStrides[d]
			if coords[d] < outShape[d] {
				break
			}
			coords[d] = 0
			aIdx -= outShape[d] * aStrides[d]
			bIdx -= outShape[d] * bStrides[d]
		}
	}
}

// A Broadcast lays a binary op's two operands over its output, as a View
// lays one: the output value at coordinates c is f(a[Σ c·sa], x[Σ c·sx]),
// the stride of a dim an operand broadcasts along 0. Dims both operands
// continue are merged and size-1 dims dropped; a call that needs more than
// maxViewRank dims has no Broadcast.
type Broadcast struct {
	rank        int32
	shape, a, x [maxViewRank]int32
}

// NewBroadcast lays operands of shapes aShape and xShape over out, their
// broadcast shape, and reports whether they fit.
func NewBroadcast(aShape, xShape, out []int) (g Broadcast, ok bool) {
	stride := func(in []int, d int) int {
		if j := d - len(out) + len(in); j >= 0 && in[j] != 1 {
			return tensor.ShapeSize(in[j+1:])
		}
		return 0
	}
	for d, n := range out {
		sa, sx := stride(aShape, d), stride(xShape, d)
		switch last := g.rank - 1; {
		case n == 1:
		case last >= 0 && int(g.a[last]) == n*sa && int(g.x[last]) == n*sx:
			g.shape[last] *= int32(n)
			g.a[last], g.x[last] = int32(sa), int32(sx)
		case g.rank == maxViewRank:
			return g, false
		default:
			g.shape[g.rank], g.a[g.rank], g.x[g.rank] = int32(n), int32(sa), int32(sx)
			g.rank++
		}
	}
	return g, true
}

// Fill computes the output values [lo, lo+len(dst)) of f over a and x into
// dst, a run of the last dim at a time — the broadcasting reference
// kernel's function of the same two operands.
func (g Broadcast) Fill(f func(a, x float32) float32, a, x []float32, lo int, dst []float32) {
	if g.rank == 0 { // every dim is 1: one value
		for i := range dst {
			dst[i] = f(a[0], x[0])
		}
		return
	}
	last := g.rank - 1
	n, sa, sx := int(g.shape[last]), int(g.a[last]), int(g.x[last])
	for at, hi := lo, lo+len(dst); at < hi; {
		j, r := at%n, at/n
		ia, ix := j*sa, j*sx
		for d := last - 1; d >= 0; d-- {
			c, dim := r%int(g.shape[d]), int(g.shape[d])
			ia, ix, r = ia+c*int(g.a[d]), ix+c*int(g.x[d]), r/dim
		}
		run := dst[at-lo : at-lo+min(n-j, hi-at)]
		for i := range run {
			run[i] = f(a[ia+i*sa], x[ix+i*sx])
		}
		at += len(run)
	}
}

// Operands lays any number of operands over their output as a Broadcast
// lays two: the output value at coordinates c reads operand k at
// Σ c·strides[k], the stride of a dim the operand broadcasts along 0; dims
// every operand continues are merged and size-1 dims dropped. It is
// Select's and batch norm's broadcast, on slices where a Broadcast keeps
// fixed arrays, which a binary op's per-dispatch closure holds without an
// allocation.
type Operands struct {
	shape   []int
	strides [][]int
}

// layOperands lays operands of shapes ins over out, their broadcast shape.
func layOperands(out []int, ins ...[]int) Operands {
	o := Operands{strides: make([][]int, len(ins))}
	at := make([]int, len(ins))
	for d, n := range out {
		if n == 1 {
			continue
		}
		last, merge := len(o.shape)-1, len(o.shape) > 0
		for k, in := range ins {
			at[k] = 0
			if j := d - len(out) + len(in); j >= 0 && in[j] != 1 {
				at[k] = tensor.ShapeSize(in[j+1:])
			}
			merge = merge && o.strides[k][last] == n*at[k]
		}
		if merge {
			o.shape[last] *= n
		} else {
			o.shape = append(o.shape, n)
		}
		for k := range ins {
			if merge {
				o.strides[k][last] = at[k]
			} else {
				o.strides[k] = append(o.strides[k], at[k])
			}
		}
	}
	return o
}

// runs calls run on each run of the last dim among the output values
// [lo, lo+len(dst)): its values in dst and, per operand, the index of the
// run's first value (at) and the distance to the next (step).
func (o Operands) runs(lo int, dst []float32, run func(dst []float32, at, step []int)) {
	at, step := make([]int, len(o.strides)), make([]int, len(o.strides))
	if len(o.shape) == 0 { // every dim is 1: one value
		run(dst, at, step)
		return
	}
	last := len(o.shape) - 1
	n := o.shape[last]
	for k := range step {
		step[k] = o.strides[k][last]
	}
	for pos, hi := lo, lo+len(dst); pos < hi; {
		j, r := pos%n, pos/n
		for k := range at {
			at[k] = j * step[k]
		}
		for d := last - 1; d >= 0; d-- {
			c := r % o.shape[d]
			for k := range at {
				at[k] += c * o.strides[k][d]
			}
			r /= o.shape[d]
		}
		m := min(n-j, hi-pos)
		run(dst[pos-lo:pos-lo+m], at, step)
		pos += m
	}
}

// ResolveSelect checks a Select — cond, t and f, whose shapes broadcast
// together — and lays the three over its output.
func ResolveSelect(inputs []Input, out *TensorInfo) (Operands, error) {
	if err := wantInputs("Select", inputs, 3); err != nil {
		return Operands{}, err
	}
	shape, err := tensor.BroadcastShapes(inputs[1].Shape, inputs[2].Shape)
	if err == nil {
		shape, err = tensor.BroadcastShapes(shape, inputs[0].Shape)
	}
	if err != nil {
		return Operands{}, errIn("Select", "%v", err)
	}
	out.Shape, out.DType = append(out.Shape[:0], shape...), inputs[1].DType
	return layOperands(shape, inputs[0].Shape, inputs[1].Shape, inputs[2].Shape), nil
}

// Select computes the output values [lo, lo+len(dst)) of a Select into
// dst: t's value where cond's is nonzero, f's elsewhere.
func (o Operands) Select(cond, t, f []float32, lo int, dst []float32) {
	o.runs(lo, dst, func(run []float32, at, step []int) {
		for i := range run {
			if cond[at[0]+i*step[0]] != 0 {
				run[i] = t[at[1]+i*step[1]]
			} else {
				run[i] = f[at[2]+i*step[2]]
			}
		}
	})
}
