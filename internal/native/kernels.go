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
// convolutions and pooling with their gradients, every op of the
// element-wise table (with the bias/scalar broadcast every layer and
// optimizer step uses), reductions with the transpose that brings their
// axes innermost, and softmax; the long tail (depthwise and average-pool
// gradients, general broadcasts, every other transpose) inherits the
// reference implementations.
//
// Every kernel appends its output shape into out.Shape (caller-owned
// scratch, so the steady-state plan executor re-runs a step without
// allocating) and registers its buffer via outInto or outOver. Shapes are always
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
	b.registerAdam()
}

// in returns the raw buffer of an input.
func (b *Backend) in(i kernels.Input) []float32 { return b.Raw(i.DataID) }

// outInto allocates (from the recycler when pooling is on) and registers
// the zeroed output buffer for dst, for the kernels that accumulate into
// their output. dst.Shape must already hold the output shape.
func (b *Backend) outInto(dst *kernels.TensorInfo, dtype tensor.DataType) []float32 {
	return b.own(dst, dtype, b.Alloc(tensor.ShapeSize(dst.Shape)))
}

// outOver is outInto for a kernel that writes every output value before it
// reads one — the shared convolution walk, the element-wise, reduction,
// softmax and transpose kernels, Adam's: the buffer is not zeroed.
func (b *Backend) outOver(dst *kernels.TensorInfo, dtype tensor.DataType) []float32 {
	return b.own(dst, dtype, b.AllocOver(tensor.ShapeSize(dst.Shape)))
}

func (b *Backend) own(dst *kernels.TensorInfo, dtype tensor.DataType, buf []float32) []float32 {
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

// pool is MaxPool and AvgPool: output rows sharded across the worker pool,
// each chunk walked by kernels.Walk.Pool, which hands every pixel's window,
// clipped to the input once and channel run innermost, to the vector core
// that reduces it (vec.PoolMax, vec.PoolAvg) — bit-equal to the reference
// kernels, which visit the same cells in the same order.
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
		dst := b.outOver(out, x.DType)
		outRow, walk := info.OutWidth*info.OutChannels, kernels.NewWalk(info)
		b.parallelFor(info.BatchSize*info.OutHeight, outRow*info.FilterHeight*info.FilterWidth, func(lo, hi int) {
			walk.Pool(xBuf, pixel, lo*outRow, dst[lo*outRow:hi*outRow])
		})
		return nil
	}
}

func (b *Backend) registerPool() {
	b.register("MaxPool", b.pool("MaxPool", vec.PoolMax))
	b.register("AvgPool", b.pool("AvgPool", vec.PoolAvg))
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

// binary is every two-operand op of the element-wise table: equal shapes
// and the suffix broadcast run here on the op's row (vec.Binary for Add,
// Sub, Mul and RealDiv), bit-equal to the reference kernel — the same
// function of the same two operands in the same order; every other
// broadcast falls back to it.
func (b *Backend) binary(op *kernels.ElementwiseOp) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		if len(inputs) != 2 {
			return fmt.Errorf("%s: got %d inputs, want 2", op.Name, len(inputs))
		}
		a, x := inputs[0], inputs[1]
		// big is the operand with the output's element count; the other
		// one's buffer is the row repeated against it.
		big := a.Shape
		switch {
		case tensor.ShapesEqual(a.Shape, x.Shape):
		case isSuffixShape(x.Shape, a.Shape):
		case isSuffixShape(a.Shape, x.Shape):
			big = x.Shape
		default:
			return kernels.ErrFallback
		}
		aBuf, xBuf := b.in(a), b.in(x)
		out.Shape = out.Shape[:0]
		for i := len(big); i < max(len(a.Shape), len(x.Shape)); i++ {
			out.Shape = append(out.Shape, 1) // the row operand had the higher rank
		}
		out.Shape = append(out.Shape, big...)
		dst := b.outOver(out, op.DType(a.DType))
		if len(dst) == 0 {
			return nil
		}
		// The shorter operand repeats every row values of the output (a
		// bias, a scalar); a chunk is whole rows, so it starts the row at
		// its first value. Two operands of the output's size chunk anywhere.
		row := min(len(aBuf), len(xBuf))
		if row == len(dst) {
			row = 1
		}
		b.parallelFor(len(dst)/row, row, func(lo, hi int) {
			as, xs := aBuf, xBuf
			if len(as) == len(dst) {
				as = as[lo*row : hi*row]
			}
			if len(xs) == len(dst) {
				xs = xs[lo*row : hi*row]
			}
			op.BinaryRow(dst[lo*row:hi*row], as, xs)
		})
		return nil
	}
}

// unary is every one-operand op of the element-wise table, on the op's row
// (internal/vec's for the ReLU family and Step) over chunks of x.
func (b *Backend) unary(op *kernels.ElementwiseOp) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		if len(inputs) != 1 {
			return fmt.Errorf("%s: got %d inputs, want 1", op.Name, len(inputs))
		}
		body, err := op.UnaryRow(attrs)
		if err != nil {
			return err
		}
		xBuf := b.in(inputs[0])
		out.Shape = append(out.Shape[:0], inputs[0].Shape...)
		dst := b.outOver(out, op.DType(inputs[0].DType))
		b.parallelFor(len(dst), 1, func(lo, hi int) {
			body(dst[lo:hi], xBuf[lo:hi])
		})
		return nil
	}
}

func (b *Backend) registerElementwise() {
	for _, op := range kernels.ElementwiseOps() {
		if op.Binary != nil {
			b.register(op.Name, b.binary(op))
		} else {
			b.register(op.Name, b.unary(op))
		}
	}

	// FusedBatchNorm with the common layout (params of shape [C], input
	// [..., C]) runs vec's normalise row, bit-equal to the reference kernel.
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
		if c == 0 {
			return kernels.ErrFallback
		}
		for _, p := range inputs[1:] {
			if !(len(p.Shape) == 1 && p.Shape[0] == c) {
				return kernels.ErrFallback
			}
		}
		eps := float32(attrs.Float("varianceEpsilon", 1e-3))
		xBuf := b.in(x)
		mean, variance, offset, scale := b.in(inputs[1]), b.in(inputs[2]), b.in(inputs[3]), b.in(inputs[4])
		out.Shape = append(out.Shape[:0], x.Shape...)
		dst := b.outOver(out, tensor.Float32)
		b.parallelFor(len(dst)/c, 2*c, func(lo, hi int) {
			vec.BatchNorm(dst[lo*c:hi*c], xBuf[lo*c:hi*c], mean, variance, scale, offset, eps, 0)
		})
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
		dst := b.outOver(out, dt)
		// Each output element is one full row reduction; the inner
		// accumulation never splits across chunks, so reduction order
		// is fixed regardless of the worker count.
		b.parallelFor(outer, 2*inner, func(lo, hi int) {
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

	// BiasAddGrad sums the rows of [outer, inner] into [inner] on
	// vec.SumRows, bit-equal to the reference kernel (each column meets its
	// rows in order). Chunks are blocks of eight columns, whole vector steps.
	b.register("BiasAddGrad", func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		if len(inputs) != 1 || len(inputs[0].Shape) != 2 {
			return kernels.ErrFallback // the reference kernel words the error
		}
		x := inputs[0]
		outer, inner := x.Shape[0], x.Shape[1]
		xBuf := b.in(x)
		out.Shape = append(out.Shape[:0], inner)
		dst := b.outOver(out, x.DType)
		if outer == 0 {
			clear(dst)
			return nil
		}
		b.parallelFor((inner+7)/8, 8*outer, func(lo, hi int) {
			vec.SumRows(dst[lo*8:min(hi*8, inner)], xBuf[lo*8:], inner, outer)
		})
		return nil
	})

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
		dst := b.outOver(out, tensor.Float32)
		b.parallelFor(outer, 16*inner, func(lo, hi int) {
			for o := lo; o < hi; o++ {
				kernels.SoftmaxRow(dst[o*inner:(o+1)*inner], xBuf[o*inner:(o+1)*inner])
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
	dst := b.outOver(out, x.DType)
	if rows == 1 || cols == 1 {
		copy(dst, xBuf) // transposing a vector moves nothing
		return nil
	}
	// Sharded over the rows of the input: a chunk writes its own columns
	// of every output row.
	b.parallelFor(batch*rows, cols, func(lo, hi int) {
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
