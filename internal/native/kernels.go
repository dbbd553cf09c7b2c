package native

import (
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// initKernels installs the optimized kernels. Only the operations that
// dominate model inference and training time are overridden — matmul,
// convolutions and pooling with their gradients, the element-wise
// workhorses (with the bias/scalar broadcast every layer and optimizer
// step uses), reductions with the transpose that brings their axes
// innermost, and softmax; the long tail (depthwise and average-pool
// gradients, general broadcasts, every other transpose) inherits the
// reference implementations.
//
// Every kernel appends its output shape into out.Shape (caller-owned
// scratch, so the steady-state plan executor re-runs a step without
// allocating) and registers its buffer via outInto. Shapes are always
// appended by value, never aliased from an input, so an output can outlive
// its inputs. A kernel that does not specialize a shape or layout returns
// kernels.ErrFallback and kernels.Dispatch runs the reference kernel.
func (b *Backend) initKernels() {
	b.table = map[string]kernels.OverrideKernel{}
	b.registerConvMatMul()
	b.registerPool()
	b.registerGrad()
	b.registerElementwise()
	b.registerReduce()
}

// in returns the raw buffer of an input.
func (b *Backend) in(i kernels.Input) []float32 { return b.Raw(i.DataID) }

// outInto allocates (from the recycler when pooling is on) and registers
// the output buffer for dst. dst.Shape must already hold the output shape.
func (b *Backend) outInto(dst *kernels.TensorInfo, dtype tensor.DataType) []float32 {
	buf := b.Alloc(tensor.ShapeSize(dst.Shape))
	id := tensor.NewDataID()
	b.WriteOwned(id, buf)
	dst.DataID = id
	dst.DType = dtype
	return buf
}

// defaultPoolSize is the [2, 2] default of a pool's filterSize attribute,
// package-level for defaultConvStride's reason: a literal at the call site
// is an allocation per pool and pool-gradient dispatch.
var defaultPoolSize = []int{2, 2}

// poolInfo resolves a pooling kernel's attributes against its input.
func poolInfo(xShape []int, attrs kernels.Attrs) (kernels.Conv2DInfo, error) {
	filterSize := attrs.Ints("filterSize", defaultPoolSize)
	return kernels.ComputePool2DInfo(xShape, filterSize, attrs.Ints("strides", filterSize), attrs.String("pad", "valid"))
}

// pool is MaxPool and AvgPool: per output pixel, the window clipped to the
// input once and handed, with the channel run innermost, to the vector
// core that reduces it (vec.PoolMax, vec.PoolAvg) — bit-equal to the
// reference kernels, which visit the same cells in the same order.
func (b *Backend) pool(name string, pixel func(dst, x []float32, rowStride, tapStride, rows, taps int)) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		if len(inputs) != 1 {
			return fmt.Errorf("%s: got %d inputs, want 1", name, len(inputs))
		}
		x := inputs[0]
		info, err := poolInfo(x.Shape, attrs)
		if err != nil {
			return err
		}
		xBuf := b.in(x)
		out.Shape = append(out.Shape[:0], info.BatchSize, info.OutHeight, info.OutWidth, info.OutChannels)
		dst := b.outInto(out, x.DType)
		c := info.OutChannels
		inRow := info.InWidth * c
		inImg := info.InHeight * inRow
		outRow := info.OutWidth * c
		// Scalar geometry copies keep the Conv2DInfo struct out of the
		// closure (see conv2D).
		inH, inW, outH, outW := info.InHeight, info.InWidth, info.OutHeight, info.OutWidth
		fH, fW := info.FilterHeight, info.FilterWidth
		sH, sW := info.StrideHeight, info.StrideWidth
		padT, padL := info.PadTop, info.PadLeft
		rowCost := outRow * b.costPerElem(fH*fW)
		b.parallelFor(info.BatchSize*outH, rowCost, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				bb := r / outH
				oy := r % outH
				yCorner := oy*sH - padT
				fyLo, fyHi := kernels.TapRange(yCorner, 1, fH, inH)
				for ox := 0; ox < outW; ox++ {
					xCorner := ox*sW - padL
					fxLo, fxHi := kernels.TapRange(xCorner, 1, fW, inW)
					px := dst[r*outRow+ox*c : r*outRow+(ox+1)*c]
					if fyLo == fyHi || fxLo == fxHi {
						pixel(px, nil, 0, 0, 0, 0) // a window wholly in the padding
						continue
					}
					inBase := bb*inImg + (yCorner+fyLo)*inRow + (xCorner+fxLo)*c
					pixel(px, xBuf[inBase:], inRow, c, fyHi-fyLo, fxHi-fxLo)
				}
			}
		})
		return nil
	}
}

func (b *Backend) registerPool() {
	b.register("MaxPool", b.pool("MaxPool", vec.PoolMax))
	b.register("AvgPool", b.pool("AvgPool", vec.PoolAvg))
}

// binOp selects the arithmetic of a binary kernel: an integer the row
// loop switches on once, where a func value would cost an indirect call
// per element.
type binOp int

const (
	opAdd binOp = iota
	opSub
	opMul
	opDiv
)

// binaryRow computes dst[i] = a[i*aStep] op x[i*xStep]. A step of 0
// broadcasts a one-element operand; operand order is the kernel's.
func binaryRow(op binOp, dst, a, x []float32, aStep, xStep int) {
	ai, xi := 0, 0
	switch op {
	case opAdd:
		for i := range dst {
			dst[i] = a[ai] + x[xi]
			ai, xi = ai+aStep, xi+xStep
		}
	case opSub:
		for i := range dst {
			dst[i] = a[ai] - x[xi]
			ai, xi = ai+aStep, xi+xStep
		}
	case opMul:
		for i := range dst {
			dst[i] = a[ai] * x[xi]
			ai, xi = ai+aStep, xi+xStep
		}
	case opDiv:
		for i := range dst {
			dst[i] = a[ai] / x[xi]
			ai, xi = ai+aStep, xi+xStep
		}
	}
}

// isSuffixShape reports whether small, with its leading 1s dropped, is
// the trailing dims of big: broadcasting small against big then repeats
// small's buffer once per row of big — a bias [C] onto [..., C], a scalar
// onto anything.
func isSuffixShape(small, big []int) bool {
	for len(small) > 0 && small[0] == 1 {
		small = small[1:]
	}
	return len(small) <= len(big) && tensor.ShapesEqual(small, big[len(big)-len(small):])
}

// binary is Add, Sub, Mul and RealDiv: equal shapes and the suffix
// broadcast run here, bit-equal to the reference kernel (the same
// operation on the same two operands in the same order); every other
// broadcast falls back to it.
func (b *Backend) binary(name string, op binOp) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		if len(inputs) != 2 {
			return fmt.Errorf("%s: got %d inputs, want 2", name, len(inputs))
		}
		a, x := inputs[0], inputs[1]
		// big is the operand with the output's element count; the other
		// one's buffer is the row repeated against it.
		big, aIsRow := a.Shape, false
		switch {
		case tensor.ShapesEqual(a.Shape, x.Shape):
		case isSuffixShape(x.Shape, a.Shape):
		case isSuffixShape(a.Shape, x.Shape):
			big, aIsRow = x.Shape, true
		default:
			return kernels.ErrFallback
		}
		aBuf, xBuf := b.in(a), b.in(x)
		out.Shape = out.Shape[:0]
		for i := len(big); i < max(len(a.Shape), len(x.Shape)); i++ {
			out.Shape = append(out.Shape, 1) // the row operand had the higher rank
		}
		out.Shape = append(out.Shape, big...)
		dst := b.outInto(out, a.DType)
		// flat runs the whole output as one row; a step of 0 holds a scalar.
		flat := func(aStep, xStep int) {
			b.parallelFor(len(dst), b.costPerElem(1), func(lo, hi int) {
				binaryRow(op, dst[lo:hi], aBuf[lo*aStep:], xBuf[lo*xStep:], aStep, xStep)
			})
		}
		inner := len(xBuf)
		if aIsRow {
			inner = len(aBuf)
		}
		switch {
		case inner == len(dst):
			flat(1, 1)
		case inner == 1 && aIsRow:
			flat(0, 1)
		case inner == 1:
			flat(1, 0)
		default:
			b.parallelFor(len(dst)/inner, inner*b.costPerElem(1), func(lo, hi int) {
				for r := lo; r < hi; r++ {
					row := dst[r*inner : (r+1)*inner]
					if aIsRow {
						binaryRow(op, row, aBuf, xBuf[r*inner:], 1, 1)
					} else {
						binaryRow(op, row, aBuf[r*inner:], xBuf, 1, 1)
					}
				}
			})
		}
		return nil
	}
}

// unary runs an element-wise kernel: body maps a chunk of x to the same
// chunk of dst.
func (b *Backend) unary(name string, inputs []kernels.Input, out *kernels.TensorInfo, body func(dst, x []float32)) error {
	if len(inputs) != 1 {
		return fmt.Errorf("%s: got %d inputs, want 1", name, len(inputs))
	}
	xBuf := b.in(inputs[0])
	out.Shape = append(out.Shape[:0], inputs[0].Shape...)
	dst := b.outInto(out, inputs[0].DType)
	b.parallelFor(len(dst), b.costPerElem(1), func(lo, hi int) {
		body(dst[lo:hi], xBuf[lo:hi])
	})
	return nil
}

func (b *Backend) registerElementwise() {
	b.register("Add", b.binary("Add", opAdd))
	b.register("Sub", b.binary("Sub", opSub))
	b.register("Mul", b.binary("Mul", opMul))
	b.register("RealDiv", b.binary("RealDiv", opDiv))

	// The activations every training step runs forward (Relu, Relu6) and
	// backward (Step, the ReLU gradient's mask) are internal/vec's
	// branch-free row loops. The rest of the unary kernels pay an indirect
	// call per element for their math.
	loop := func(name string, body func(dst, x []float32)) {
		b.register(name, func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
			return b.unary(name, inputs, out, body)
		})
	}
	un := func(name string, f func(x float32) float32) {
		loop(name, func(dst, x []float32) {
			for i, v := range x {
				dst[i] = f(v)
			}
		})
	}
	loop("Relu", vec.Relu)
	loop("Relu6", vec.Relu6)
	// Step(x) = x > 0 ? 1 : alpha, and a NaN passes through, as in the
	// reference kernel.
	b.register("Step", func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		alpha := float32(attrs.Float("alpha", 0))
		return b.unary("Step", inputs, out, func(dst, x []float32) { vec.Step(dst, x, alpha) })
	})
	un("Sigmoid", func(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) })
	un("Tanh", func(x float32) float32 { return float32(math.Tanh(float64(x))) })
	un("Exp", func(x float32) float32 { return float32(math.Exp(float64(x))) })
	un("Neg", func(x float32) float32 { return -x })
	un("Sqrt", func(x float32) float32 { return float32(math.Sqrt(float64(x))) })
	un("Square", func(x float32) float32 { return x * x })

	// FusedBatchNorm with the common layout (params of shape [C], input
	// [..., C]) runs a channel-indexed tight loop.
	b.register("FusedBatchNorm", func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		if len(inputs) != 5 {
			return fmt.Errorf("FusedBatchNorm: got %d inputs, want 5", len(inputs))
		}
		x := inputs[0]
		rank := len(x.Shape)
		c := 0
		if rank > 0 {
			c = x.Shape[rank-1]
		}
		channelParams := true
		for _, p := range inputs[1:] {
			if !(len(p.Shape) == 1 && p.Shape[0] == c) {
				channelParams = false
				break
			}
		}
		if !channelParams {
			return kernels.ErrFallback
		}
		eps := float32(attrs.Float("varianceEpsilon", 1e-3))
		xBuf := b.in(x)
		mean, variance, offset, scale := b.in(inputs[1]), b.in(inputs[2]), b.in(inputs[3]), b.in(inputs[4])
		// Precompute per-channel multiplier and bias:
		// out = x*mulC + addC. Scratch from the recycler; fully overwritten.
		mulC := b.scratchF32.Get(c)
		addC := b.scratchF32.Get(c)
		for ch := 0; ch < c; ch++ {
			inv := float32(1 / math.Sqrt(float64(variance[ch]+eps)))
			mulC[ch] = scale[ch] * inv
			addC[ch] = offset[ch] - mean[ch]*mulC[ch]
		}
		out.Shape = append(out.Shape[:0], x.Shape...)
		dst := b.outInto(out, tensor.Float32)
		b.parallelFor(len(dst)/c, c*b.costPerElem(2), func(lo, hi int) {
			for r := lo; r < hi; r++ {
				base := r * c
				for ch := 0; ch < c; ch++ {
					dst[base+ch] = xBuf[base+ch]*mulC[ch] + addC[ch]
				}
			}
		})
		b.scratchF32.Put(mulC)
		b.scratchF32.Put(addC)
		return nil
	})
}

// redOp selects a reduction, as binOp selects a binary kernel's arithmetic.
type redOp int

const (
	redSum redOp = iota
	redMean
	redMax
	redMin
)

// reduceRow folds one row left to right, as the reference kernel does:
// sums from +0, Max from -Inf and Min from +Inf with a NaN never taken.
func reduceRow(op redOp, row []float32) float32 {
	switch op {
	case redMax:
		acc := float32(math.Inf(-1))
		for _, v := range row {
			if v > acc {
				acc = v
			}
		}
		return acc
	case redMin:
		acc := float32(math.Inf(1))
		for _, v := range row {
			if v < acc {
				acc = v
			}
		}
		return acc
	}
	var acc float32
	for _, v := range row {
		acc += v
	}
	if op == redMean {
		acc /= float32(len(row))
	}
	return acc
}

// reduce is Sum, Mean, Max and Min over the inner dimension of an
// [outer, inner] input.
func (b *Backend) reduce(name string, op redOp) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		if len(inputs) != 1 {
			return fmt.Errorf("%s: got %d inputs, want 1", name, len(inputs))
		}
		x := inputs[0]
		if len(x.Shape) != 2 {
			return fmt.Errorf("%s: input must be rank 2, got %v", name, x.Shape)
		}
		outer, inner := x.Shape[0], x.Shape[1]
		xBuf := b.in(x)
		dt := x.DType
		if op == redMean {
			dt = tensor.Float32
		}
		out.Shape = append(out.Shape[:0], outer)
		dst := b.outInto(out, dt)
		// Each output element is one full row reduction; the inner
		// accumulation never splits across chunks, so reduction order
		// is fixed regardless of the worker count.
		b.parallelFor(outer, inner*b.costPerElem(2), func(lo, hi int) {
			for o := lo; o < hi; o++ {
				dst[o] = reduceRow(op, xBuf[o*inner:(o+1)*inner])
			}
		})
		return nil
	}
}

func (b *Backend) registerReduce() {
	b.register("Sum", b.reduce("Sum", redSum))
	b.register("Mean", b.reduce("Mean", redMean))
	b.register("Max", b.reduce("Max", redMax))
	b.register("Min", b.reduce("Min", redMin))
	b.register("Transpose", b.transpose)

	b.register("Softmax", func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		if len(inputs) != 1 {
			return fmt.Errorf("Softmax: got %d inputs, want 1", len(inputs))
		}
		x := inputs[0]
		if len(x.Shape) != 2 {
			return fmt.Errorf("Softmax: input must be rank 2, got %v", x.Shape)
		}
		outer, inner := x.Shape[0], x.Shape[1]
		xBuf := b.in(x)
		out.Shape = append(out.Shape[:0], x.Shape...)
		dst := b.outInto(out, tensor.Float32)
		b.parallelFor(outer, inner*b.costPerElem(16), func(lo, hi int) {
			for o := lo; o < hi; o++ {
				row := xBuf[o*inner : (o+1)*inner]
				d := dst[o*inner : (o+1)*inner]
				maxV := float32(math.Inf(-1))
				for _, v := range row {
					if v > maxV {
						maxV = v
					}
				}
				var sum float64
				for i, v := range row {
					e := math.Exp(float64(v - maxV))
					d[i] = float32(e)
					sum += e
				}
				inv := float32(1 / sum)
				for i := range d {
					d[i] *= inv
				}
			}
		})
		return nil
	})
}

// transposeTile is the side of the square tile transpose copies at a time:
// 32×32 floats read and as many written, both inside the L1 cache whatever
// the two strides are.
const transposeTile = 32

// transpose runs the permutations that move a tensor's trailing axes, as a
// block, in front of the axes before them and leave any leading axes
// where they are — what ops.reduce and the plan's Mean emit to bring the
// reduced axes innermost: [3 0 1 2] for a bias gradient, [0 3 1 2] for a
// global average pool. Such a permutation is a batch of 2-D transposes
// [A, B] → [B, A], copied tile by tile. Every other permutation (and every
// malformed one, for the reference kernel to reject) is declined.
func (b *Backend) transpose(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
	if len(inputs) != 1 {
		return kernels.ErrFallback
	}
	x := inputs[0]
	perm := attrs.Ints("perm", nil)
	rank := len(x.Shape)
	if len(perm) != rank {
		return kernels.ErrFallback
	}
	// perm = 0 … lead-1, then split … rank-1, then lead … split-1.
	lead := 0
	for lead < rank && perm[lead] == lead {
		lead++
	}
	split := rank
	if lead < rank {
		if split = perm[lead]; split <= lead || split >= rank {
			return kernels.ErrFallback
		}
	}
	for i := lead; i < rank; i++ {
		want := split + i - lead
		if want >= rank {
			want -= rank - lead
		}
		if perm[i] != want {
			return kernels.ErrFallback
		}
	}
	batch, rows, cols := 1, 1, 1 // x as [batch, rows, cols] → [batch, cols, rows]
	for i, d := range x.Shape {
		switch {
		case i < lead:
			batch *= d
		case i < split:
			rows *= d
		default:
			cols *= d
		}
	}
	xBuf := b.in(x)
	out.Shape = out.Shape[:0]
	for _, p := range perm {
		out.Shape = append(out.Shape, x.Shape[p])
	}
	dst := b.outInto(out, x.DType)
	if rows == 1 || cols == 1 {
		copy(dst, xBuf) // transposing a vector moves nothing
		return nil
	}
	// Sharded over the rows of the input: a chunk writes its own columns
	// of every output row.
	b.parallelFor(batch*rows, cols*b.costPerElem(1), func(lo, hi int) {
		for lo < hi {
			mat := lo / rows
			r0 := lo % rows
			r1 := min(rows, r0+hi-lo)
			lo += r1 - r0
			src, dstMat := xBuf[mat*rows*cols:], dst[mat*rows*cols:]
			for rt := r0; rt < r1; rt += transposeTile {
				rEnd := min(rt+transposeTile, r1)
				for ct := 0; ct < cols; ct += transposeTile {
					cEnd := min(ct+transposeTile, cols)
					col := ct
					// Four columns a pass: one bounds check on the source
					// row per four floats moved.
					for ; col+4 <= cEnd; col += 4 {
						from := src[rt*cols+col:]
						to0 := dstMat[col*rows+rt : col*rows+rEnd]
						to1 := dstMat[(col+1)*rows+rt:][:len(to0)]
						to2 := dstMat[(col+2)*rows+rt:][:len(to0)]
						to3 := dstMat[(col+3)*rows+rt:][:len(to0)]
						for i := range to0 {
							q := from[i*cols : i*cols+4 : i*cols+4]
							to0[i], to1[i], to2[i], to3[i] = q[0], q[1], q[2], q[3]
						}
					}
					for ; col < cEnd; col++ {
						from := src[rt*cols+col:]
						to := dstMat[col*rows+rt : col*rows+rEnd]
						for i := range to {
							to[i] = from[i*cols]
						}
					}
				}
			}
		}
	})
	return nil
}
