package native

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// The fused kernels: convolution/matmul + bias + activation in one pass
// over the output, parallelized with the backend's worker pool. Beyond
// saving two kernel dispatches and two full feature-map traversals per
// fused pair, FusedConv2D carries a pointwise (1×1) fast path that runs the
// conv as a row-blocked matmul — the shape of most of MobileNet's FLOPs.

// defaultConvStride is the shared [1, 1] default for the strides/dilations
// attributes. A package-level slice instead of a literal at each call site:
// the attribute getters only read it, and the per-call literal was one of
// the last steady-state allocations on the pooled inference path.
var defaultConvStride = []int{1, 1}

// registerFused installs the three fused kernels.
func (b *Backend) registerFused() {
	b.register("FusedConv2D", b.fusedConv2D)
	b.register("FusedDepthwiseConv2dNative", b.fusedDepthwiseConv2D)
	b.register("_FusedMatMul", b.fusedMatMul)
}

// fusedOperands resolves the optional bias operand and the activation.
func (b *Backend) fusedOperands(name string, inputs []kernels.Input, attrs kernels.Attrs, outC int) (bias []float32, actName string, act func(float32) float32, err error) {
	if len(inputs) == 3 {
		bi := inputs[2]
		if len(bi.Shape) != 1 || bi.Shape[0] != outC {
			return nil, "", nil, fmt.Errorf("%s: bias must have shape [%d], got %v", name, outC, bi.Shape)
		}
		bias = b.in(bi)
	}
	actName = attrs.String("activation", "")
	act, ok := kernels.FusedActivation(actName)
	if !ok {
		return nil, "", nil, fmt.Errorf("%s: unknown activation %q", name, actName)
	}
	return bias, actName, act, nil
}

// epilogue applies bias + activation to one channel-aligned output slice
// (len(dst) == outC == len(bias) at every call site). The hot activations
// are inlined: an indirect call per output element costs more than the
// activation math itself, and these short per-position loops run once per
// output pixel. The branches reproduce kernels.FusedActivation exactly
// (including NaN behavior), so the parity suite holds bit-for-bit.
func epilogue(dst []float32, bias []float32, actName string, act func(float32) float32) {
	if bias != nil {
		for i, bv := range bias {
			dst[i] += bv
		}
	}
	switch actName {
	case "relu":
		for i, v := range dst {
			if !(v > 0) {
				dst[i] = 0
			}
		}
	case "relu6":
		for i, v := range dst {
			if v < 0 {
				dst[i] = 0
			} else if v > 6 {
				dst[i] = 6
			}
		}
	default:
		if act != nil {
			for i, v := range dst {
				dst[i] = act(v)
			}
		}
	}
}

func (b *Backend) fusedConv2D(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
	if len(inputs) != 2 && len(inputs) != 3 {
		return fmt.Errorf("FusedConv2D: got %d inputs, want 2 or 3", len(inputs))
	}
	x, w := inputs[0], inputs[1]
	info, err := kernels.ComputeConv2DInfo(x.Shape, w.Shape,
		attrs.Ints("strides", defaultConvStride), attrs.Ints("dilations", defaultConvStride),
		attrs.String("pad", "valid"), false)
	if err != nil {
		return err
	}
	bias, actName, act, err := b.fusedOperands("FusedConv2D", inputs, attrs, info.OutChannels)
	if err != nil {
		return err
	}
	xBuf, wBuf := b.in(x), b.in(w)
	out.Shape = append(out.Shape[:0], info.BatchSize, info.OutHeight, info.OutWidth, info.OutChannels)
	dstBuf := b.outInto(out, tensor.Float32)
	inC, outC := info.InChannels, info.OutChannels

	// Pointwise fast path: a 1×1 stride-1 convolution is exactly the
	// matmul [batch*h*w, inC] × [inC, outC] — MobileNet's pointwise convs
	// are where its FLOPs live. It runs through the shared GEMM core
	// (packed micro-kernel, or the zero-skipping row-streaming loop when
	// the activations are sparse) with the bias+activation epilogue fused
	// into the store.
	if info.FilterHeight == 1 && info.FilterWidth == 1 &&
		info.StrideHeight == 1 && info.StrideWidth == 1 &&
		info.PadTop == 0 && info.PadLeft == 0 &&
		info.OutHeight == info.InHeight && info.OutWidth == info.InWidth {
		rows := info.BatchSize * info.OutHeight * info.OutWidth
		b.gemmAutoW(rows, outC, inC, xBuf, w, dstBuf, gemmEpilogue{bias: bias, actName: actName, act: act})
		return nil
	}

	inRow := info.InWidth * inC
	inImg := info.InHeight * inRow
	outRow := info.OutWidth * outC
	outImg := info.OutHeight * outRow
	// Scalar copies of the geometry for the closure below: capturing info
	// itself would spill the whole struct to the heap on every call (the
	// compiler captures large structs by reference), and this path must stay
	// allocation-free in steady state beyond the one closure object.
	inH, inW, outH, outW := info.InHeight, info.InWidth, info.OutHeight, info.OutWidth
	fH, fW := info.FilterHeight, info.FilterWidth
	sH, sW := info.StrideHeight, info.StrideWidth
	dH, dW := info.DilationHeight, info.DilationWidth
	padT, padL := info.PadTop, info.PadLeft
	rowCost := outW * outC * b.costPerElem(2*fH*fW*inC)
	b.parallelFor(info.BatchSize*outH, rowCost, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			bb := r / outH
			oy := r % outH
			yCorner := oy*sH - padT
			rowBase := bb*outImg + oy*outRow
			for ox := 0; ox < outW; ox++ {
				xCorner := ox*sW - padL
				dst := dstBuf[rowBase+ox*outC : rowBase+(ox+1)*outC]
				for fy := 0; fy < fH; fy++ {
					iy := yCorner + fy*dH
					if iy < 0 || iy >= inH {
						continue
					}
					for fx := 0; fx < fW; fx++ {
						ix := xCorner + fx*dW
						if ix < 0 || ix >= inW {
							continue
						}
						inBase := bb*inImg + iy*inRow + ix*inC
						wBase := (fy*fW + fx) * inC * outC
						for ic := 0; ic < inC; ic++ {
							xv := xBuf[inBase+ic]
							if xv == 0 {
								continue
							}
							wRow := wBuf[wBase+ic*outC : wBase+(ic+1)*outC]
							for oc, wv := range wRow {
								dst[oc] += xv * wv
							}
						}
					}
				}
				epilogue(dst, bias, actName, act)
			}
		}
	})
	return nil
}

func (b *Backend) fusedDepthwiseConv2D(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
	if len(inputs) != 2 && len(inputs) != 3 {
		return fmt.Errorf("FusedDepthwiseConv2dNative: got %d inputs, want 2 or 3", len(inputs))
	}
	x, w := inputs[0], inputs[1]
	info, err := kernels.ComputeConv2DInfo(x.Shape, w.Shape,
		attrs.Ints("strides", defaultConvStride), attrs.Ints("dilations", defaultConvStride),
		attrs.String("pad", "valid"), true)
	if err != nil {
		return err
	}
	bias, actName, act, err := b.fusedOperands("FusedDepthwiseConv2dNative", inputs, attrs, info.OutChannels)
	if err != nil {
		return err
	}
	xBuf, wBuf := b.in(x), b.in(w)
	out.Shape = append(out.Shape[:0], info.BatchSize, info.OutHeight, info.OutWidth, info.OutChannels)
	dstBuf := b.outInto(out, tensor.Float32)
	inC, mult, outC := info.InChannels, info.ChannelMultiplier, info.OutChannels
	inRow := info.InWidth * inC
	inImg := info.InHeight * inRow
	outRow := info.OutWidth * outC
	outImg := info.OutHeight * outRow

	// Scalar geometry copies — same reason as fusedConv2D above: keep the
	// oversized Conv2DInfo struct out of the closure captures.
	inH, inW, outH, outW := info.InHeight, info.InWidth, info.OutHeight, info.OutWidth
	fH, fW := info.FilterHeight, info.FilterWidth
	sH, sW := info.StrideHeight, info.StrideWidth
	dH, dW := info.DilationHeight, info.DilationWidth
	padT, padL := info.PadTop, info.PadLeft
	rowCost := outW * outC * b.costPerElem(2*fH*fW)
	b.parallelFor(info.BatchSize*outH, rowCost, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			bb := r / outH
			oy := r % outH
			yCorner := oy*sH - padT
			rowBase := bb*outImg + oy*outRow
			for ox := 0; ox < outW; ox++ {
				xCorner := ox*sW - padL
				dst := dstBuf[rowBase+ox*outC : rowBase+(ox+1)*outC]
				for fy := 0; fy < fH; fy++ {
					iy := yCorner + fy*dH
					if iy < 0 || iy >= inH {
						continue
					}
					for fx := 0; fx < fW; fx++ {
						ix := xCorner + fx*dW
						if ix < 0 || ix >= inW {
							continue
						}
						inBase := bb*inImg + iy*inRow + ix*inC
						wBase := (fy*fW + fx) * inC * mult
						if mult == 1 {
							for ic := 0; ic < inC; ic++ {
								dst[ic] += xBuf[inBase+ic] * wBuf[wBase+ic]
							}
						} else {
							for ic := 0; ic < inC; ic++ {
								xv := xBuf[inBase+ic]
								for q := 0; q < mult; q++ {
									dst[ic*mult+q] += xv * wBuf[wBase+ic*mult+q]
								}
							}
						}
					}
				}
				epilogue(dst, bias, actName, act)
			}
		}
	})
	return nil
}

func (b *Backend) fusedMatMul(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
	if len(inputs) != 2 && len(inputs) != 3 {
		return fmt.Errorf("_FusedMatMul: got %d inputs, want 2 or 3", len(inputs))
	}
	a, x := inputs[0], inputs[1]
	transposeA := attrs.Bool("transposeA", false)
	transposeB := attrs.Bool("transposeB", false)
	if len(a.Shape) != 2 || len(x.Shape) != 2 {
		return fmt.Errorf("_FusedMatMul: inputs must be rank 2, got %v and %v", a.Shape, x.Shape)
	}
	m, kA := a.Shape[0], a.Shape[1]
	if transposeA {
		m, kA = kA, m
	}
	kB, n := x.Shape[0], x.Shape[1]
	if transposeB {
		kB, n = n, kB
	}
	if kA != kB {
		return fmt.Errorf("_FusedMatMul: inner dims mismatch %v x %v", a.Shape, x.Shape)
	}
	k := kA
	bias, actName, act, err := b.fusedOperands("_FusedMatMul", inputs, attrs, n)
	if err != nil {
		return err
	}
	aBuf, bBuf := b.in(a), b.in(x)
	out.Shape = append(out.Shape[:0], m, n)
	dstBuf := b.outInto(out, tensor.Float32)

	// Untransposed products (the optimizer only fuses this form) run on
	// the shared GEMM core with the epilogue fused into the store.
	if !transposeA && !transposeB {
		b.gemmAutoW(m, n, k, aBuf, x, dstBuf, gemmEpilogue{bias: bias, actName: actName, act: act})
		return nil
	}

	b.parallelFor(m, 2*k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := dstBuf[i*n : (i+1)*n]
			for kk := 0; kk < k; kk++ {
				var av float32
				if transposeA {
					av = aBuf[kk*m+i]
				} else {
					av = aBuf[i*k+kk]
				}
				if transposeB {
					for j := 0; j < n; j++ {
						row[j] += av * bBuf[j*k+kk]
					}
				} else {
					bRow := bBuf[kk*n : (kk+1)*n]
					for j, bv := range bRow {
						row[j] += av * bv
					}
				}
			}
			epilogue(row, bias, actName, act)
		}
	})
	return nil
}
