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
// step uses), reductions and softmax; the long tail (depthwise and
// average-pool gradients, general broadcasts, transposes) inherits the
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

// poolInfo resolves a pooling kernel's attributes against its input.
func poolInfo(xShape []int, attrs kernels.Attrs) (kernels.Conv2DInfo, error) {
	filterSize := attrs.Ints("filterSize", []int{2, 2})
	return kernels.ComputePool2DInfo(xShape, filterSize, attrs.Ints("strides", filterSize), attrs.String("pad", "valid"))
}

func (b *Backend) registerPool() {
	pool := func(name string, isMax bool) kernels.OverrideKernel {
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
			outImg := info.OutHeight * outRow
			rowCost := info.OutWidth * c * b.costPerElem(info.FilterHeight*info.FilterWidth)
			b.parallelFor(info.BatchSize*info.OutHeight, rowCost, func(lo, hi int) {
				for r := lo; r < hi; r++ {
					bb := r / info.OutHeight
					oy := r % info.OutHeight
					yCorner := oy*info.StrideHeight - info.PadTop
					for ox := 0; ox < info.OutWidth; ox++ {
						xCorner := ox*info.StrideWidth - info.PadLeft
						outBase := bb*outImg + oy*outRow + ox*c
						for ch := 0; ch < c; ch++ {
							best := float32(math.Inf(-1))
							var sum float32
							count := 0
							for fy := 0; fy < info.FilterHeight; fy++ {
								iy := yCorner + fy
								if iy < 0 || iy >= info.InHeight {
									continue
								}
								for fx := 0; fx < info.FilterWidth; fx++ {
									ix := xCorner + fx
									if ix < 0 || ix >= info.InWidth {
										continue
									}
									v := xBuf[bb*inImg+iy*inRow+ix*c+ch]
									if isMax {
										if v > best {
											best = v
										}
									} else {
										sum += v
										count++
									}
								}
							}
							if isMax {
								dst[outBase+ch] = best
							} else if count > 0 {
								dst[outBase+ch] = sum / float32(count)
							}
						}
					}
				}
			})
			return nil
		}
	}
	b.register("MaxPool", pool("MaxPool", true))
	b.register("AvgPool", pool("AvgPool", false))
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

func (b *Backend) registerReduce() {
	red := func(name string, initial float32, merge func(acc, v float32) float32, finish func(acc float32, n int) float32) {
		b.register(name, func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
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
			if name == "Mean" {
				dt = tensor.Float32
			}
			out.Shape = append(out.Shape[:0], outer)
			dst := b.outInto(out, dt)
			// Each output element is one full row reduction; the inner
			// accumulation never splits across chunks, so reduction order
			// is fixed regardless of the worker count.
			b.parallelFor(outer, inner*b.costPerElem(2), func(lo, hi int) {
				for o := lo; o < hi; o++ {
					acc := initial
					row := xBuf[o*inner : (o+1)*inner]
					for _, v := range row {
						acc = merge(acc, v)
					}
					if finish != nil {
						acc = finish(acc, inner)
					}
					dst[o] = acc
				}
			})
			return nil
		})
	}
	red("Sum", 0, func(a, v float32) float32 { return a + v }, nil)
	red("Mean", 0, func(a, v float32) float32 { return a + v }, func(a float32, n int) float32 { return a / float32(n) })
	red("Max", float32(math.Inf(-1)), func(a, v float32) float32 {
		if v > a {
			return v
		}
		return a
	}, nil)
	red("Min", float32(math.Inf(1)), func(a, v float32) float32 {
		if v < a {
			return v
		}
		return a
	}, nil)

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
