package native

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// The convolution and matmul kernels, each registered twice: plain, and
// fused with a bias + activation epilogue applied in the same pass over
// the output. The plain form is the fused one with an empty epilogue, so
// the two agree bit for bit by construction. Beyond saving two kernel
// dispatches and two full feature-map traversals per fused pair, conv2D
// carries a pointwise (1×1) fast path that runs the conv as a matmul —
// the shape of most of MobileNet's FLOPs.

// defaultConvStride is the shared [1, 1] default for the strides/dilations
// attributes. A package-level slice instead of a literal at each call site:
// the attribute getters only read it, and the per-call literal was one of
// the last steady-state allocations on the pooled inference path.
var defaultConvStride = []int{1, 1}

// registerConvMatMul installs the convolution and matmul kernels.
func (b *Backend) registerConvMatMul() {
	b.register("Conv2D", b.conv2D("Conv2D", false))
	b.register("FusedConv2D", b.conv2D("FusedConv2D", true))
	b.register("DepthwiseConv2dNative", b.depthwiseConv2D("DepthwiseConv2dNative", false))
	b.register("FusedDepthwiseConv2dNative", b.depthwiseConv2D("FusedDepthwiseConv2dNative", true))
	b.register("BatchMatMul", b.batchMatMul)
	b.register("_FusedMatMul", b.fusedMatMul)
}

// checkInputs admits two operands, or a third (the bias) on a fused kernel.
func checkInputs(name string, inputs []kernels.Input, fused bool) error {
	if len(inputs) == 2 || (fused && len(inputs) == 3) {
		return nil
	}
	want := "2"
	if fused {
		want = "2 or 3"
	}
	return fmt.Errorf("%s: got %d inputs, want %s", name, len(inputs), want)
}

// fusedOperands resolves the optional bias operand and the activation
// into the epilogue the kernel applies to each output position.
func (b *Backend) fusedOperands(name string, inputs []kernels.Input, attrs kernels.Attrs, outC int) (ep epilogue, err error) {
	if len(inputs) == 3 {
		bi := inputs[2]
		if len(bi.Shape) != 1 || bi.Shape[0] != outC {
			return ep, fmt.Errorf("%s: bias must have shape [%d], got %v", name, outC, bi.Shape)
		}
		ep.bias = b.in(bi)
	}
	actName := attrs.String("activation", "")
	act, ok := kernels.FusedActivation(actName)
	if !ok {
		return ep, fmt.Errorf("%s: unknown activation %q", name, actName)
	}
	// The hot activations get vector bodies (internal/vec); an indirect call
	// per output element would cost more than the activation math itself.
	switch actName {
	case "relu":
		ep.kind = vec.ActRelu
	case "relu6":
		ep.kind = vec.ActRelu6
	default:
		ep.act = act
	}
	return ep, nil
}

func (b *Backend) conv2D(name string, fused bool) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		if err := checkInputs(name, inputs, fused); err != nil {
			return err
		}
		x, w := inputs[0], inputs[1]
		info, err := kernels.ComputeConv2DInfo(x.Shape, w.Shape,
			attrs.Ints("strides", defaultConvStride), attrs.Ints("dilations", defaultConvStride),
			attrs.String("pad", "valid"), false)
		if err != nil {
			return err
		}
		ep, err := b.fusedOperands(name, inputs, attrs, info.OutChannels)
		if err != nil {
			return err
		}
		xBuf, wBuf := b.in(x), b.in(w)
		out.Shape = append(out.Shape[:0], info.BatchSize, info.OutHeight, info.OutWidth, info.OutChannels)
		dstBuf := b.outInto(out, tensor.Float32)
		inC, outC := info.InChannels, info.OutChannels

		// Pointwise fast path: a 1×1 stride-1 convolution is exactly the
		// matmul [batch*h*w, inC] × [inC, outC] — MobileNet's pointwise convs
		// are where its FLOPs live.
		if info.FilterHeight == 1 && info.FilterWidth == 1 &&
			info.StrideHeight == 1 && info.StrideWidth == 1 &&
			info.PadTop == 0 && info.PadLeft == 0 &&
			info.OutHeight == info.InHeight && info.OutWidth == info.InWidth {
			rows := info.BatchSize * info.OutHeight * info.OutWidth
			b.matmul(rows, outC, inC, xBuf, wBuf, false, false, dstBuf, ep)
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
		// Parallelize across output rows (batch × outY); each row costs
		// outW·outC inner products of length fH·fW·inC.
		rowCost := outW * outC * b.costPerElem(2*fH*fW*inC)
		narrow := narrowRow(outC)
		b.parallelFor(info.BatchSize*outH, rowCost, func(lo, hi int) {
			var nz nzList
			for r := lo; r < hi; r++ {
				bb := r / outH
				oy := r % outH
				yCorner := oy*sH - padT
				fyLo, fyHi := kernels.TapRange(yCorner, dH, fH, inH)
				rowBase := bb*outImg + oy*outRow
				for ox := 0; ox < outW; {
					xCorner := ox*sW - padL
					fxLo, fxHi := kernels.TapRange(xCorner, dW, fW, inW)
					// An output pixel is one row of a product whose k runs
					// over (fy, fx, ic). Undilated, a filter row's taps are
					// contiguous in x and in w, so one call covers the run.
					run := 1
					if dW == 1 {
						run = fxHi - fxLo
					}
					// Narrow rows: the pixels from ox on that the padding
					// clips alike go to the vector core together.
					end := ox + 1
					for narrow && end < outW {
						if l, h := kernels.TapRange(end*sW-padL, dW, fW, inW); l != fxLo || h != fxHi {
							break
						}
						end++
					}
					dst := dstBuf[rowBase+ox*outC : rowBase+end*outC]
					for fy := fyLo; fy < fyHi; fy++ {
						iy := yCorner + fy*dH
						for fx := fxLo; fx < fxHi; fx += run {
							inBase := bb*inImg + iy*inRow + (xCorner+fx*dW)*inC
							wBase := (fy*fW + fx) * inC * outC
							if narrow {
								vec.AxpyRows(dst, outC, xBuf[inBase:], sW*inC, 1, run*inC, wBuf[wBase:])
							} else {
								gemmRow(dst, xBuf[inBase:inBase+run*inC], 1, wBuf[wBase:wBase+run*inC*outC], &nz)
							}
						}
					}
					for px := 0; px < len(dst); px += outC {
						ep.apply(dst[px : px+outC])
					}
					ox = end
				}
			}
		})
		return nil
	}
}

func (b *Backend) depthwiseConv2D(name string, fused bool) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		if err := checkInputs(name, inputs, fused); err != nil {
			return err
		}
		x, w := inputs[0], inputs[1]
		info, err := kernels.ComputeConv2DInfo(x.Shape, w.Shape,
			attrs.Ints("strides", defaultConvStride), attrs.Ints("dilations", defaultConvStride),
			attrs.String("pad", "valid"), true)
		if err != nil {
			return err
		}
		ep, err := b.fusedOperands(name, inputs, attrs, info.OutChannels)
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

		// Scalar geometry copies — same reason as conv2D above: keep the
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
				fyLo, fyHi := kernels.TapRange(yCorner, dH, fH, inH)
				rowBase := bb*outImg + oy*outRow
				for ox := 0; ox < outW; ox++ {
					xCorner := ox*sW - padL
					fxLo, fxHi := kernels.TapRange(xCorner, dW, fW, inW)
					dst := dstBuf[rowBase+ox*outC : rowBase+(ox+1)*outC]
					inBase := bb*inImg + (yCorner+fyLo*dH)*inRow + (xCorner+fxLo*dW)*inC
					wBase := (fyLo*fW + fxLo) * outC
					if mult == 1 {
						vec.DwPixel(dst, xBuf[inBase:], wBuf[wBase:], dH*inRow, dW*inC, fW*inC, fyHi-fyLo, fxHi-fxLo)
					} else {
						for fy := 0; fy < fyHi-fyLo; fy++ {
							for fx := 0; fx < fxHi-fxLo; fx++ {
								xs := xBuf[inBase+fy*dH*inRow+fx*dW*inC:]
								ws := wBuf[wBase+(fy*fW+fx)*outC:]
								for ic := 0; ic < inC; ic++ {
									xv := xs[ic]
									for q := 0; q < mult; q++ {
										dst[ic*mult+q] += float32(xv * ws[ic*mult+q])
									}
								}
							}
						}
					}
					ep.apply(dst)
				}
			}
		})
		return nil
	}
}

// matmulDims resolves op(A)[m×k]·op(B)[k×n] from the trailing two dims of
// two rank-`rank` operands.
func matmulDims(name string, rank int, a, x []int, transposeA, transposeB bool) (m, n, k int, err error) {
	if len(a) != rank || len(x) != rank {
		return 0, 0, 0, fmt.Errorf("%s: inputs must be rank %d, got %v and %v", name, rank, a, x)
	}
	m, k = a[rank-2], a[rank-1]
	if transposeA {
		m, k = k, m
	}
	kB, n := x[rank-2], x[rank-1]
	if transposeB {
		kB, n = n, kB
	}
	if k != kB {
		return 0, 0, 0, fmt.Errorf("%s: inner dims mismatch %v x %v", name, a, x)
	}
	return m, n, k, nil
}

func (b *Backend) fusedMatMul(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
	if err := checkInputs("_FusedMatMul", inputs, true); err != nil {
		return err
	}
	a, x := inputs[0], inputs[1]
	transposeA := attrs.Bool("transposeA", false)
	transposeB := attrs.Bool("transposeB", false)
	m, n, k, err := matmulDims("_FusedMatMul", 2, a.Shape, x.Shape, transposeA, transposeB)
	if err != nil {
		return err
	}
	ep, err := b.fusedOperands("_FusedMatMul", inputs, attrs, n)
	if err != nil {
		return err
	}
	aBuf, bBuf := b.in(a), b.in(x)
	out.Shape = append(out.Shape[:0], m, n)
	dstBuf := b.outInto(out, tensor.Float32)

	b.matmul(m, n, k, aBuf, bBuf, transposeA, transposeB, dstBuf, ep)
	return nil
}

func (b *Backend) batchMatMul(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
	if len(inputs) != 2 {
		return fmt.Errorf("BatchMatMul: got %d inputs, want 2", len(inputs))
	}
	a, x := inputs[0], inputs[1]
	transposeA := attrs.Bool("transposeA", false)
	transposeB := attrs.Bool("transposeB", false)
	m, n, k, err := matmulDims("BatchMatMul", 3, a.Shape, x.Shape, transposeA, transposeB)
	if err != nil {
		return err
	}
	batchA, batchB := a.Shape[0], x.Shape[0]
	batch := max(batchA, batchB)
	if batchA != batchB && batchA != 1 && batchB != 1 {
		return fmt.Errorf("BatchMatMul: incompatible batch dims %d and %d", batchA, batchB)
	}
	aBuf, bBuf := b.in(a), b.in(x)
	out.Shape = append(out.Shape[:0], batch, m, n)
	dst := b.outInto(out, tensor.Float32)
	aMat, bMat := m*k, k*n
	// One matmul per batch element; a size-1 batch dim broadcasts.
	for p := 0; p < batch; p++ {
		aOff := (p % batchA) * aMat
		bOff := (p % batchB) * bMat
		b.matmul(m, n, k, aBuf[aOff:aOff+aMat], bBuf[bOff:bOff+bMat], transposeA, transposeB,
			dst[p*m*n:(p+1)*m*n], epilogue{})
	}
	return nil
}
