package native

import (
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// initKernels installs the optimized kernels. Only the operations that
// dominate model inference and training time are overridden — matmul,
// convolutions, pooling, the element-wise workhorses, reductions and
// softmax; the long tail inherits the reference implementations.
//
// Every kernel is written in the planKernel form: it appends its output
// shape into out.Shape (caller-owned scratch, so the steady-state plan
// executor re-runs a step without allocating) and registers its buffer via
// outInto. Shapes are always appended by value, never aliased from an
// input, so an output can outlive its inputs.
func (b *Backend) initKernels() {
	b.table = map[string]kernels.OverrideKernel{}
	b.plans = map[string]planKernel{}
	b.registerConvMatMul()
	b.registerPool()
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

// refInto runs the reference kernel and registers its single output into
// dst. Shared by overrides that decline a shape/layout combination.
func (b *Backend) refInto(name string, inputs []kernels.Input, attrs kernels.Attrs, dst *kernels.TensorInfo) error {
	ref, ok := kernels.LookupRef(name)
	if !ok {
		return fmt.Errorf("%s: no reference implementation", name)
	}
	bufs := make([]kernels.Buffer, len(inputs))
	for i, in := range inputs {
		bufs[i] = kernels.Buffer{Data: b.in(in), Shape: in.Shape, DType: in.DType}
	}
	outs, err := ref(bufs, attrs)
	if err != nil {
		return err
	}
	if len(outs) != 1 {
		return fmt.Errorf("%s: reference kernel produced %d outputs, want 1", name, len(outs))
	}
	id := tensor.NewDataID()
	b.WriteOwned(id, outs[0].Data)
	dst.DataID = id
	// Copy, don't alias: a reference kernel's output shape may share its
	// input's backing slice.
	dst.Shape = append(dst.Shape[:0], outs[0].Shape...)
	dst.DType = outs[0].DType
	return nil
}

func (b *Backend) registerPool() {
	pool := func(name string, isMax bool) planKernel {
		return func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
			if len(inputs) != 1 {
				return fmt.Errorf("%s: got %d inputs, want 1", name, len(inputs))
			}
			x := inputs[0]
			filterSize := attrs.Ints("filterSize", []int{2, 2})
			strides := attrs.Ints("strides", filterSize)
			info, err := kernels.ComputePool2DInfo(x.Shape, filterSize, strides, attrs.String("pad", "valid"))
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

func (b *Backend) registerElementwise() {
	bin := func(name string, f func(a, x float32) float32) {
		b.register(name, func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
			if len(inputs) != 2 {
				return fmt.Errorf("%s: got %d inputs, want 2", name, len(inputs))
			}
			a, x := inputs[0], inputs[1]
			if !tensor.ShapesEqual(a.Shape, x.Shape) {
				// Broadcasting falls back to the reference kernel.
				return b.refInto(name, inputs, attrs, out)
			}
			aBuf, xBuf := b.in(a), b.in(x)
			out.Shape = append(out.Shape[:0], a.Shape...)
			dst := b.outInto(out, a.DType)
			b.parallelFor(len(dst), b.costPerElem(1), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dst[i] = f(aBuf[i], xBuf[i])
				}
			})
			return nil
		})
	}
	bin("Add", func(a, x float32) float32 { return a + x })
	bin("Sub", func(a, x float32) float32 { return a - x })
	bin("Mul", func(a, x float32) float32 { return a * x })
	bin("RealDiv", func(a, x float32) float32 { return a / x })

	un := func(name string, f func(x float32) float32) {
		b.register(name, func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
			if len(inputs) != 1 {
				return fmt.Errorf("%s: got %d inputs, want 1", name, len(inputs))
			}
			xBuf := b.in(inputs[0])
			out.Shape = append(out.Shape[:0], inputs[0].Shape...)
			dst := b.outInto(out, inputs[0].DType)
			b.parallelFor(len(dst), b.costPerElem(1), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dst[i] = f(xBuf[i])
				}
			})
			return nil
		})
	}
	un("Relu", func(x float32) float32 {
		if x > 0 {
			return x
		}
		return 0
	})
	un("Relu6", func(x float32) float32 {
		if x < 0 {
			return 0
		}
		if x > 6 {
			return 6
		}
		return x
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
			return b.refInto("FusedBatchNorm", inputs, attrs, out)
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
