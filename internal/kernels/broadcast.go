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
