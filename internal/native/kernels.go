package native

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// initKernels installs the optimized kernels: matmul, convolutions and
// pooling with every one of their gradients, every op of the element-wise
// table under any broadcast, Select, batch norm, the reductions, softmax,
// the shape kernels and Adam's. The other six (All, Any, Cast, CumSum,
// Range, Reverse) inherit the reference implementations.
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
	b.registerShape()
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
// reads one — every range body of internal/kernels, the element-wise and
// softmax kernels: the buffer is not zeroed.
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

// binary is every two-operand op of the element-wise table: equal shapes
// and the suffix broadcast run here on the op's row (vec.Binary for Add,
// Sub, Mul and RealDiv), every other broadcast on the body webgl's
// broadcast programs run (kernels.Broadcast) — each bit-equal to the
// reference kernel, the same function of the same two operands.
func (b *Backend) binary(op *kernels.ElementwiseOp) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		if len(inputs) != 2 {
			return fmt.Errorf("%s: got %d inputs, want 2", op.Name, len(inputs))
		}
		a, x := inputs[0], inputs[1]
		aBuf, xBuf := b.in(a), b.in(x)
		// big is the operand with the output's element count; the other
		// one's buffer is the row repeated against it (kernels.SuffixPeriod).
		big := a.Shape
		switch {
		case tensor.ShapesEqual(a.Shape, x.Shape):
		case kernels.SuffixPeriod(x.Shape, a.Shape) > 0:
		case kernels.SuffixPeriod(a.Shape, x.Shape) > 0:
			big = x.Shape
		default:
			// Any other broadcast: the shared body (kernels.Broadcast).
			shape, err := tensor.BroadcastShapes(a.Shape, x.Shape)
			if err != nil {
				return kernels.ErrFallback // the reference kernel words the error
			}
			g, ok := kernels.NewBroadcast(a.Shape, x.Shape, shape)
			if !ok {
				return kernels.ErrFallback
			}
			out.Shape = append(out.Shape[:0], shape...)
			dst := b.outOver(out, op.DType(a.DType))
			b.parallelFor(len(dst), 1, func(lo, hi int) {
				g.Fill(op.Binary, aBuf, xBuf, lo, dst[lo:hi])
			})
			return nil
		}
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

	// FusedBatchNorm and Select run the bodies webgl's programs run
	// (kernels.BatchNorm: vec's normalise row when the parameters are x's
	// channel vectors, any broadcast otherwise; kernels.Operands).
	b.register("FusedBatchNorm", func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		n, err := kernels.ResolveBatchNorm(inputs, attrs, out)
		if err != nil {
			return err
		}
		xBuf, mean, variance, offset, scale := b.in(inputs[0]), b.in(inputs[1]), b.in(inputs[2]), b.in(inputs[3]), b.in(inputs[4])
		dst := b.outOver(out, tensor.Float32)
		b.parallelFor(len(dst), 2, func(lo, hi int) {
			n.Fill(xBuf, mean, variance, offset, scale, lo, dst[lo:hi])
		})
		return nil
	})
	b.register("Select", func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		o, err := kernels.ResolveSelect(inputs, out)
		if err != nil {
			return err
		}
		cond, t, f := b.in(inputs[0]), b.in(inputs[1]), b.in(inputs[2])
		dst := b.outOver(out, out.DType)
		b.parallelFor(len(dst), 1, func(lo, hi int) {
			o.Select(cond, t, f, lo, dst[lo:hi])
		})
		return nil
	})
}

// reduction is a reduction of the shared table (kernels.Reductions) over
// the rows of an [outer, inner] input: each output value one whole row, so
// the reduction order is fixed whatever the worker count.
func (b *Backend) reduction(name string, r kernels.Reduction) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		_, inner, err := kernels.ResolveReduce(name, inputs, out)
		if err != nil {
			return err
		}
		xBuf, dst := b.in(inputs[0]), b.outOver(out, out.DType)
		b.parallelFor(len(dst), 2*inner, func(lo, hi int) {
			r.Fill(xBuf, inner, lo, dst[lo:hi])
		})
		return nil
	}
}

func (b *Backend) registerReduce() {
	for name, r := range kernels.Reductions() {
		b.register(name, b.reduction(name, r))
	}

	// BiasAddGrad sums the rows of [outer, inner] into [inner]
	// (kernels.ColumnSums). Chunks are blocks of eight columns, whole
	// vector steps.
	b.register("BiasAddGrad", func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		outer, inner, err := kernels.Rows("BiasAddGrad", inputs)
		if err != nil {
			return err
		}
		xBuf := b.in(inputs[0])
		out.Shape = append(out.Shape[:0], inner)
		dst := b.outOver(out, inputs[0].DType)
		b.parallelFor((inner+7)/8, 8*outer, func(lo, hi int) {
			kernels.ColumnSums(xBuf, outer, inner, lo*8, dst[lo*8:min(hi*8, inner)])
		})
		return nil
	})

	// Softmax keeps a body of its own on webgl (see the reference kernel).
	b.register("Softmax", func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		outer, inner, err := kernels.Rows("Softmax", inputs)
		if err != nil {
			return err
		}
		xBuf := b.in(inputs[0])
		out.Shape = append(out.Shape[:0], outer, inner)
		dst := b.outOver(out, tensor.Float32)
		b.parallelFor(outer, 16*inner, func(lo, hi int) {
			for o := lo; o < hi; o++ {
				kernels.SoftmaxRow(dst[o*inner:(o+1)*inner], xBuf[o*inner:(o+1)*inner])
			}
		})
		return nil
	})
}

// move installs the shape kernel name, whose resolve (kernels.Resolve*)
// checks a call and returns the body that fills its output from its one
// input (none, for Fill), over chunks of the output.
func move[M interface {
	Fill(x []float32, lo int, dst []float32)
}](name string, b *Backend, resolve func([]kernels.Input, kernels.Attrs, *kernels.TensorInfo) (M, error)) {
	b.register(name, func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		body, err := resolve(inputs, attrs, out)
		if err != nil {
			return err // ErrFallback for a view of too many dims
		}
		var xBuf []float32
		if len(inputs) > 0 {
			xBuf = b.in(inputs[0])
		}
		dst := b.outOver(out, out.DType)
		b.parallelFor(len(dst), 1, func(lo, hi int) {
			body.Fill(xBuf, lo, dst[lo:hi])
		})
		return nil
	})
}

// registerShape installs the data-movement kernels, on the bodies webgl's
// programs run (internal/kernels/shape.go).
func (b *Backend) registerShape() {
	move("Transpose", b, kernels.ResolveTranspose)
	move("Slice", b, kernels.ResolveSlice)
	move("Tile", b, kernels.ResolveTile)
	move("PadV2", b, kernels.ResolvePad)
	move("OneHot", b, kernels.ResolveOneHot)
	move("Fill", b, kernels.ResolveFill)

	b.register("Concat", func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		c, err := kernels.ResolveConcat(inputs, attrs, out)
		if err != nil {
			return err
		}
		xs := make([][]float32, len(inputs))
		for i, in := range inputs {
			xs[i] = b.in(in)
		}
		dst := b.outOver(out, out.DType)
		b.parallelFor(len(dst), 1, func(lo, hi int) {
			c.Fill(xs, lo, dst[lo:hi])
		})
		return nil
	})

	// GatherV2 declines a call with an index out of range, for the reference
	// kernel to reject.
	b.register("GatherV2", func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		g, err := kernels.ResolveGather(inputs, attrs, out)
		if err != nil {
			return err
		}
		xBuf, idx := b.in(inputs[0]), b.in(inputs[1])
		if !g.InRange(idx) {
			return kernels.ErrFallback
		}
		dst := b.outOver(out, out.DType)
		b.parallelFor(len(dst), 1, func(lo, hi int) {
			g.Fill(xBuf, idx, lo, dst[lo:hi])
		})
		return nil
	})
}
