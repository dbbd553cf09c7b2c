package kernels

// fusedEpilogue resolves the bias operand (inputs[2] when present) and the
// activation for a fused kernel with outC output channels. bias is nil when
// the kernel carries no bias input. The activation is the element-wise
// table's function, the one its standalone kernel applies, so a fused
// execution agrees bit-for-bit with the unfused op sequence it replaced.
func fusedEpilogue(name string, inputs []Buffer, attrs Attrs, outC int) (bias []float32, act func(float32) float32, err error) {
	if len(inputs) == 3 {
		b := inputs[2]
		if b.Rank() != 1 || b.Shape[0] != outC {
			return nil, nil, errIn(name, "bias must have shape [%d], got %v", outC, b.Shape)
		}
		bias = b.Data
	}
	actName := attrs.Activation
	op, ok := Activation(actName)
	if !ok {
		return nil, nil, errIn(name, "unknown activation %q", actName)
	}
	if op != nil {
		act = op.Unary
	}
	return bias, act, nil
}

// applyEpilogue adds the per-channel bias and applies the activation in one
// pass over the accumulated output — the "one dispatch instead of three"
// payoff of operator fusion.
func applyEpilogue(out []float32, outC int, bias []float32, act func(float32) float32) {
	if bias != nil {
		for i := range out {
			out[i] += bias[i%outC]
		}
	}
	if act != nil {
		for i, v := range out {
			out[i] = act(v)
		}
	}
}

// FusedConv2D is Conv2D + optional bias + optional activation in one
// kernel: inputs (x, filter[, bias]), attr "activation" "linear" or an
// activation of the element-wise table (Activation). This is the
// reference tier — the correctness oracle the native and webgl fused
// kernels are tested against.
func fusedConv2DRef(inputs []Buffer, attrs Attrs) (Buffer, error) {
	var res TensorInfo
	info, err := ResolveConv("FusedConv2D", inputsOf(inputs), attrs, &res)
	if err != nil {
		return Buffer{}, err
	}
	bias, act, err := fusedEpilogue("FusedConv2D", inputs, attrs, info.OutChannels)
	if err != nil {
		return Buffer{}, err
	}
	out := NewBuffer(res.Shape, res.DType)
	convolve2D(out.Data, inputs[0].Data, inputs[1].Data, info)
	applyEpilogue(out.Data, info.OutChannels, bias, act)
	return out, nil
}

// FusedDepthwiseConv2dNative is DepthwiseConv2dNative + bias +
// activation.
func fusedDepthwiseConv2dNativeRef(inputs []Buffer, attrs Attrs) (Buffer, error) {
	var res TensorInfo
	info, err := ResolveConv("FusedDepthwiseConv2dNative", inputsOf(inputs), attrs, &res)
	if err != nil {
		return Buffer{}, err
	}
	bias, act, err := fusedEpilogue("FusedDepthwiseConv2dNative", inputs, attrs, info.OutChannels)
	if err != nil {
		return Buffer{}, err
	}
	out := NewBuffer(res.Shape, res.DType)
	depthwiseConvolve2D(out.Data, inputs[0].Data, inputs[1].Data, info)
	applyEpilogue(out.Data, info.OutChannels, bias, act)
	return out, nil
}

// _FusedMatMul is the rank-2 MatMul + bias + activation fusion (the
// underscore name matches the TensorFlow Grappler rewrite it mirrors).
// Inputs (a, b[, bias]); attrs transposeA/transposeB/activation.
func fusedMatMulRef(inputs []Buffer, attrs Attrs) (Buffer, error) {
	var res TensorInfo
	g, err := ResolveMatMul("_FusedMatMul", inputsOf(inputs), attrs, &res)
	if err != nil {
		return Buffer{}, err
	}
	m, n := int(g.m), g.N()
	bias, act, err := fusedEpilogue("_FusedMatMul", inputs, attrs, n)
	if err != nil {
		return Buffer{}, err
	}
	out := NewBuffer(res.Shape, res.DType)
	matmul2D(out.Data, inputs[0].Data, inputs[1].Data, m, g.K(), n, g.transposeA, g.transposeB)
	applyEpilogue(out.Data, n, bias, act)
	return out, nil
}

// The products of Conv2D, FusedConv2D, BatchMatMul and _FusedMatMul, like
// those of the two Conv2D gradients, leave a zero lhs element (x, or a)
// out of the sum, on this tier and on every backend (vec.GemmRow): 0·Inf
// stays out of it. On finite operands that changes no bit — each sum
// starts at +0, and adding ±0 to a sum that started there moves nothing —
// and after a ReLU-family activation half the lhs is zeros, whose products
// the host backends save (EXPERIMENTS.md measures both). A depthwise
// convolution takes every product.

// convolve2D accumulates an NHWC convolution into out, one filter row
// against one output-channel row at a time.
func convolve2D(out, x, w []float32, info Conv2DInfo) {
	inC, outC := info.InChannels, info.OutChannels
	inRow := info.InWidth * inC
	inImg := info.InHeight * inRow
	outRow := info.OutWidth * outC
	outImg := info.OutHeight * outRow
	for b := 0; b < info.BatchSize; b++ {
		for oy := 0; oy < info.OutHeight; oy++ {
			yCorner := oy*info.StrideHeight - info.PadTop
			for ox := 0; ox < info.OutWidth; ox++ {
				xCorner := ox*info.StrideWidth - info.PadLeft
				outBase := b*outImg + oy*outRow + ox*outC
				dst := out[outBase : outBase+outC]
				for fy := 0; fy < info.FilterHeight; fy++ {
					iy := yCorner + fy*info.DilationHeight
					if iy < 0 || iy >= info.InHeight {
						continue
					}
					for fx := 0; fx < info.FilterWidth; fx++ {
						ix := xCorner + fx*info.DilationWidth
						if ix < 0 || ix >= info.InWidth {
							continue
						}
						inBase := b*inImg + iy*inRow + ix*inC
						wBase := (fy*info.FilterWidth + fx) * inC * outC
						for ic := 0; ic < inC; ic++ {
							xv := x[inBase+ic]
							if xv == 0 {
								continue
							}
							wRow := w[wBase+ic*outC : wBase+(ic+1)*outC]
							for oc, wv := range wRow {
								dst[oc] += float32(xv * wv)
							}
						}
					}
				}
			}
		}
	}
}

// depthwiseConvolve2D accumulates a depthwise NHWC convolution into out.
func depthwiseConvolve2D(out, x, w []float32, info Conv2DInfo) {
	inC, mult := info.InChannels, info.ChannelMultiplier
	outC := info.OutChannels
	inRow := info.InWidth * inC
	inImg := info.InHeight * inRow
	outRow := info.OutWidth * outC
	outImg := info.OutHeight * outRow
	for b := 0; b < info.BatchSize; b++ {
		for oy := 0; oy < info.OutHeight; oy++ {
			yCorner := oy*info.StrideHeight - info.PadTop
			for ox := 0; ox < info.OutWidth; ox++ {
				xCorner := ox*info.StrideWidth - info.PadLeft
				outBase := b*outImg + oy*outRow + ox*outC
				for fy := 0; fy < info.FilterHeight; fy++ {
					iy := yCorner + fy*info.DilationHeight
					if iy < 0 || iy >= info.InHeight {
						continue
					}
					for fx := 0; fx < info.FilterWidth; fx++ {
						ix := xCorner + fx*info.DilationWidth
						if ix < 0 || ix >= info.InWidth {
							continue
						}
						inBase := b*inImg + iy*inRow + ix*inC
						wBase := (fy*info.FilterWidth + fx) * inC * mult
						for ic := 0; ic < inC; ic++ {
							xv := x[inBase+ic]
							for q := 0; q < mult; q++ {
								out[outBase+ic*mult+q] += float32(xv * w[wBase+ic*mult+q])
							}
						}
					}
				}
			}
		}
	}
}

// matmul2D accumulates a single [m,k]x[k,n] matrix product into out, a
// zero element of a left out, with the transpose flags hoisted into four
// specialized loop nests (the same structure as the BatchMatMul reference
// kernel).
func matmul2D(out, a, b []float32, m, k, n int, transposeA, transposeB bool) {
	switch {
	case !transposeA && !transposeB:
		for i := 0; i < m; i++ {
			row := out[i*n : (i+1)*n]
			aRow := a[i*k : (i+1)*k]
			for kk, av := range aRow {
				if av == 0 {
					continue
				}
				bRow := b[kk*n : (kk+1)*n]
				for j, bv := range bRow {
					row[j] += float32(av * bv)
				}
			}
		}
	case transposeA && !transposeB:
		for kk := 0; kk < k; kk++ {
			aRow := a[kk*m : (kk+1)*m]
			bRow := b[kk*n : (kk+1)*n]
			for i, av := range aRow {
				if av == 0 {
					continue
				}
				row := out[i*n : (i+1)*n]
				for j, bv := range bRow {
					row[j] += float32(av * bv)
				}
			}
		}
	case !transposeA && transposeB:
		for i := 0; i < m; i++ {
			aRow := a[i*k : (i+1)*k]
			row := out[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bRow := b[j*k : (j+1)*k]
				var sum float32
				for kk, av := range aRow {
					if av != 0 {
						sum += float32(av * bRow[kk])
					}
				}
				row[j] = sum
			}
		}
	default:
		for kk := 0; kk < k; kk++ {
			aRow := a[kk*m : (kk+1)*m]
			for i, av := range aRow {
				if av == 0 {
					continue
				}
				row := out[i*n : (i+1)*n]
				for j := 0; j < n; j++ {
					row[j] += float32(av * b[j*k+kk])
				}
			}
		}
	}
}
