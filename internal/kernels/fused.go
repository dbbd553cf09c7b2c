package kernels

import (
	"math"

	"repro/internal/tensor"
)

// FusedActivation resolves the "activation" attribute of the fused kernels
// (FusedConv2D, FusedDepthwiseConv2dNative, _FusedMatMul) to a scalar
// function, or nil for the identity ("" / "linear"). The formulas are the
// same float32 expressions the standalone unary kernels use, so a fused
// execution agrees bit-for-bit with the unfused op sequence it replaced.
// The second result reports whether the name is known.
func FusedActivation(name string) (func(float32) float32, bool) {
	switch name {
	case "", "linear":
		return nil, true
	case "relu":
		return func(x float32) float32 {
			if x > 0 {
				return x
			}
			return 0
		}, true
	case "relu6":
		return func(x float32) float32 {
			if x < 0 {
				return 0
			}
			if x > 6 {
				return 6
			}
			return x
		}, true
	case "elu":
		return func(x float32) float32 {
			if x >= 0 {
				return x
			}
			return float32(math.Expm1(float64(x)))
		}, true
	case "sigmoid":
		return func(x float32) float32 {
			return float32(1 / (1 + math.Exp(-float64(x))))
		}, true
	case "tanh":
		return func(x float32) float32 { return float32(math.Tanh(float64(x))) }, true
	}
	return nil, false
}

// fusedEpilogue resolves the bias operand (inputs[2] when present) and the
// activation for a fused kernel with outC output channels. bias is nil when
// the kernel carries no bias input.
func fusedEpilogue(name string, inputs []Buffer, attrs Attrs, outC int) (bias []float32, act func(float32) float32, err error) {
	if len(inputs) == 3 {
		b := inputs[2]
		if b.Rank() != 1 || b.Shape[0] != outC {
			return nil, nil, errIn(name, "bias must have shape [%d], got %v", outC, b.Shape)
		}
		bias = b.Data
	}
	actName := attrs.String("activation", "")
	act, ok := FusedActivation(actName)
	if !ok {
		return nil, nil, errIn(name, "unknown activation %q", actName)
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

func init() {
	// FusedConv2D is Conv2D + optional bias + optional activation in one
	// kernel: inputs (x, filter[, bias]), attr "activation" one of
	// "linear", "relu", "relu6", "elu", "sigmoid", "tanh". This is the
	// reference tier — the correctness oracle the native and webgl fused
	// kernels are tested against.
	RegisterRef("FusedConv2D", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if len(inputs) != 2 && len(inputs) != 3 {
			return Buffer{}, errIn("FusedConv2D", "got %d inputs, want 2 or 3", len(inputs))
		}
		x, w := inputs[0], inputs[1]
		strides, dilations, pad := convAttrs(attrs)
		info, err := ComputeConv2DInfo(x.Shape, w.Shape, strides, dilations, pad, false)
		if err != nil {
			return Buffer{}, errIn("FusedConv2D", "%v", err)
		}
		bias, act, err := fusedEpilogue("FusedConv2D", inputs, attrs, info.OutChannels)
		if err != nil {
			return Buffer{}, err
		}
		out := NewBuffer(info.OutShape(), tensor.Float32)
		convolve2D(out.Data, x.Data, w.Data, info)
		applyEpilogue(out.Data, info.OutChannels, bias, act)
		return out, nil
	})

	// FusedDepthwiseConv2dNative is DepthwiseConv2dNative + bias +
	// activation.
	RegisterRef("FusedDepthwiseConv2dNative", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if len(inputs) != 2 && len(inputs) != 3 {
			return Buffer{}, errIn("FusedDepthwiseConv2dNative", "got %d inputs, want 2 or 3", len(inputs))
		}
		x, w := inputs[0], inputs[1]
		strides, dilations, pad := convAttrs(attrs)
		info, err := ComputeConv2DInfo(x.Shape, w.Shape, strides, dilations, pad, true)
		if err != nil {
			return Buffer{}, errIn("FusedDepthwiseConv2dNative", "%v", err)
		}
		bias, act, err := fusedEpilogue("FusedDepthwiseConv2dNative", inputs, attrs, info.OutChannels)
		if err != nil {
			return Buffer{}, err
		}
		out := NewBuffer(info.OutShape(), tensor.Float32)
		depthwiseConvolve2D(out.Data, x.Data, w.Data, info)
		applyEpilogue(out.Data, info.OutChannels, bias, act)
		return out, nil
	})

	// _FusedMatMul is the rank-2 MatMul + bias + activation fusion (the
	// underscore name matches the TensorFlow Grappler rewrite it mirrors).
	// Inputs (a, b[, bias]); attrs transposeA/transposeB/activation.
	RegisterRef("_FusedMatMul", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if len(inputs) != 2 && len(inputs) != 3 {
			return Buffer{}, errIn("_FusedMatMul", "got %d inputs, want 2 or 3", len(inputs))
		}
		a, b := inputs[0], inputs[1]
		transposeA := attrs.Bool("transposeA", false)
		transposeB := attrs.Bool("transposeB", false)
		if a.Rank() != 2 || b.Rank() != 2 {
			return Buffer{}, errIn("_FusedMatMul", "inputs must be rank 2, got %v and %v", a.Shape, b.Shape)
		}
		m, kA := a.Shape[0], a.Shape[1]
		if transposeA {
			m, kA = kA, m
		}
		kB, n := b.Shape[0], b.Shape[1]
		if transposeB {
			kB, n = n, kB
		}
		if kA != kB {
			return Buffer{}, errIn("_FusedMatMul", "inner dims mismatch: %v x %v (transposeA=%v transposeB=%v)",
				a.Shape, b.Shape, transposeA, transposeB)
		}
		bias, act, err := fusedEpilogue("_FusedMatMul", inputs, attrs, n)
		if err != nil {
			return Buffer{}, err
		}
		out := NewBuffer([]int{m, n}, tensor.Float32)
		matmul2D(out.Data, a.Data, b.Data, m, kA, n, transposeA, transposeB)
		applyEpilogue(out.Data, n, bias, act)
		return out, nil
	})
}

// convolve2D accumulates a dense NHWC convolution into out. The inner loop
// streams one filter row against one output-channel row with no per-element
// branching (see the Conv2D kernel's note on the removed zero-skip).
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

// matmul2D accumulates a single [m,k]x[k,n] matrix product into out, with
// the transpose flags hoisted into four specialized loop nests (the same
// structure as the BatchMatMul reference kernel).
func matmul2D(out, a, b []float32, m, k, n int, transposeA, transposeB bool) {
	switch {
	case !transposeA && !transposeB:
		for i := 0; i < m; i++ {
			row := out[i*n : (i+1)*n]
			aRow := a[i*k : (i+1)*k]
			for kk, av := range aRow {
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
					sum += float32(av * bRow[kk])
				}
				row[j] = sum
			}
		}
	default:
		for kk := 0; kk < k; kk++ {
			aRow := a[kk*m : (kk+1)*m]
			for i, av := range aRow {
				row := out[i*n : (i+1)*n]
				for j := 0; j < n; j++ {
					row[j] += float32(av * b[j*k+kk])
				}
			}
		}
	}
}
