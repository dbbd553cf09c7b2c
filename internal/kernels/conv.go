package kernels

import (
	"strings"

	"repro/internal/tensor"
)

// unitStrides is what nil strides and dilations mean: package-level, since
// a literal at the call site is an allocation per call.
var unitStrides = []int{1, 1}

// window is a window kernel's strides, dilations and padding, each zero
// field its natural value: unit steps, "valid".
func window(attrs Attrs) (strides, dilations []int, pad string) {
	strides, dilations, pad = attrs.Strides, attrs.Dilations, attrs.Pad
	if strides == nil {
		strides = unitStrides
	}
	if dilations == nil {
		dilations = unitStrides
	}
	if pad == "" {
		pad = "valid"
	}
	return strides, dilations, pad
}

// ResolveConv checks a forward convolution — Conv2D's or
// DepthwiseConv2dNative's (x, filter), or their fused kernels' (x, filter
// [, bias]) — and describes its float32 NHWC output in out. (The bias and
// the activation are FusedTail's to check.)
func ResolveConv(name string, inputs []Input, attrs Attrs, out *TensorInfo) (Conv2DInfo, error) {
	if err := FusedInputs(name, inputs, strings.HasPrefix(name, "Fused")); err != nil {
		return Conv2DInfo{}, err
	}
	strides, dilations, pad := window(attrs)
	info, err := ComputeConv2DInfo(inputs[0].Shape, inputs[1].Shape, strides, dilations, pad, strings.Contains(name, "Depthwise"))
	if err != nil {
		return info, errIn(name, "%v", err)
	}
	out.Shape, out.DType = append(out.Shape[:0], info.BatchSize, info.OutHeight, info.OutWidth, info.OutChannels), tensor.Float32
	return info, nil
}

// ResolveConvBackprop checks a Conv2D or depthwise gradient — a
// …BackpropFilter's (x, dy) and the filter's shape in attr Shape, or a
// …BackpropInput's (dy, filter) and the input's — and resolves the
// forward convolution it differentiates, whose output dy must be; out is
// the gradient, of the filter's or the input's shape.
func ResolveConvBackprop(name string, inputs []Input, attrs Attrs, out *TensorInfo) (Conv2DInfo, error) {
	if err := wantInputs(name, inputs, 2); err != nil {
		return Conv2DInfo{}, err
	}
	x, w, dy := inputs[0].Shape, attrs.Shape, inputs[1].Shape
	grad := w
	if strings.HasSuffix(name, "BackpropInput") {
		x, w, dy = attrs.Shape, inputs[1].Shape, inputs[0].Shape
		grad = x
	}
	strides, dilations, pad := window(attrs)
	info, err := ComputeConv2DInfo(x, w, strides, dilations, pad, strings.HasPrefix(name, "Depthwise"))
	if err != nil {
		return info, errIn(name, "%v", err)
	}
	if !tensor.ShapesEqual(dy, info.OutShape()) {
		return info, errIn(name, "dy shape %v != conv output shape %v", dy, info.OutShape())
	}
	out.Shape, out.DType = append(out.Shape[:0], grad...), tensor.Float32
	return info, nil
}

// Conv2D computes a 2-D convolution over NHWC input with filter
// [fh, fw, inC, outC].
func conv2DRef(inputs []Buffer, attrs Attrs) (Buffer, error) {
	var res TensorInfo
	info, err := ResolveConv("Conv2D", inputsOf(inputs), attrs, &res)
	if err != nil {
		return Buffer{}, err
	}
	out := NewBuffer(res.Shape, res.DType)
	convolve2D(out.Data, inputs[0].Data, inputs[1].Data, info)
	return out, nil
}

// Conv2DBackpropInput computes the gradient of Conv2D with respect to
// its input. Inputs are (dy, filter); attr Shape is the
// original input shape.
func conv2DBackpropInputRef(inputs []Buffer, attrs Attrs) (Buffer, error) {
	var res TensorInfo
	info, err := ResolveConvBackprop("Conv2DBackpropInput", inputsOf(inputs), attrs, &res)
	if err != nil {
		return Buffer{}, err
	}
	dy, w, inShape := inputs[0], inputs[1], res.Shape
	dx := NewBuffer(inShape, tensor.Float32)
	inC, outC := info.InChannels, info.OutChannels
	inRow := info.InWidth * inC
	inImg := info.InHeight * inRow
	outRow := info.OutWidth * outC
	outImg := info.OutHeight * outRow
	// Scatter each dy element back through the filter taps.
	for b := 0; b < info.BatchSize; b++ {
		for oy := 0; oy < info.OutHeight; oy++ {
			yCorner := oy*info.StrideHeight - info.PadTop
			for ox := 0; ox < info.OutWidth; ox++ {
				xCorner := ox*info.StrideWidth - info.PadLeft
				dyBase := b*outImg + oy*outRow + ox*outC
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
						dxBase := b*inImg + iy*inRow + ix*inC
						wBase := (fy*info.FilterWidth + fx) * inC * outC
						for oc := 0; oc < outC; oc++ {
							g := dy.Data[dyBase+oc]
							if g == 0 {
								continue
							}
							for ic := 0; ic < inC; ic++ {
								dx.Data[dxBase+ic] += float32(g * w.Data[wBase+ic*outC+oc])
							}
						}
					}
				}
			}
		}
	}
	return dx, nil
}

// Conv2DBackpropFilter computes the gradient of Conv2D with respect to
// its filter. Inputs are (x, dy); attr Shape is the filter
// shape.
func conv2DBackpropFilterRef(inputs []Buffer, attrs Attrs) (Buffer, error) {
	var res TensorInfo
	info, err := ResolveConvBackprop("Conv2DBackpropFilter", inputsOf(inputs), attrs, &res)
	if err != nil {
		return Buffer{}, err
	}
	x, dy, filterShape := inputs[0], inputs[1], res.Shape
	dw := NewBuffer(filterShape, tensor.Float32)
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
				dyBase := b*outImg + oy*outRow + ox*outC
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
						xBase := b*inImg + iy*inRow + ix*inC
						wBase := (fy*info.FilterWidth + fx) * inC * outC
						for ic := 0; ic < inC; ic++ {
							xv := x.Data[xBase+ic]
							if xv == 0 {
								continue
							}
							wOff := wBase + ic*outC
							for oc := 0; oc < outC; oc++ {
								dw.Data[wOff+oc] += float32(xv * dy.Data[dyBase+oc])
							}
						}
					}
				}
			}
		}
	}
	return dw, nil
}

// DepthwiseConv2dNative applies one filter per input channel with a
// channel multiplier: filter [fh, fw, inC, mult].
func depthwiseConv2dNativeRef(inputs []Buffer, attrs Attrs) (Buffer, error) {
	var res TensorInfo
	info, err := ResolveConv("DepthwiseConv2dNative", inputsOf(inputs), attrs, &res)
	if err != nil {
		return Buffer{}, err
	}
	out := NewBuffer(res.Shape, res.DType)
	depthwiseConvolve2D(out.Data, inputs[0].Data, inputs[1].Data, info)
	return out, nil
}

// DepthwiseConv2dNativeBackpropInput: inputs (dy, filter), attr
// Shape the input's.
func depthwiseConv2dNativeBackpropInputRef(inputs []Buffer, attrs Attrs) (Buffer, error) {
	var res TensorInfo
	info, err := ResolveConvBackprop("DepthwiseConv2dNativeBackpropInput", inputsOf(inputs), attrs, &res)
	if err != nil {
		return Buffer{}, err
	}
	dy, w := inputs[0], inputs[1]
	dx := NewBuffer(res.Shape, tensor.Float32)
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
				dyBase := b*outImg + oy*outRow + ox*outC
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
						dxBase := b*inImg + iy*inRow + ix*inC
						wBase := (fy*info.FilterWidth + fx) * inC * mult
						for ic := 0; ic < inC; ic++ {
							var sum float32
							for q := 0; q < mult; q++ {
								sum += float32(dy.Data[dyBase+ic*mult+q] * w.Data[wBase+ic*mult+q])
							}
							dx.Data[dxBase+ic] += sum
						}
					}
				}
			}
		}
	}
	return dx, nil
}

// DepthwiseConv2dNativeBackpropFilter: inputs (x, dy), attr
// Shape the filter's.
func depthwiseConv2dNativeBackpropFilterRef(inputs []Buffer, attrs Attrs) (Buffer, error) {
	var res TensorInfo
	info, err := ResolveConvBackprop("DepthwiseConv2dNativeBackpropFilter", inputsOf(inputs), attrs, &res)
	if err != nil {
		return Buffer{}, err
	}
	x, dy := inputs[0], inputs[1]
	dw := NewBuffer(res.Shape, tensor.Float32)
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
				dyBase := b*outImg + oy*outRow + ox*outC
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
						xBase := b*inImg + iy*inRow + ix*inC
						wBase := (fy*info.FilterWidth + fx) * inC * mult
						for ic := 0; ic < inC; ic++ {
							xv := x.Data[xBase+ic]
							if xv == 0 {
								continue
							}
							for q := 0; q < mult; q++ {
								dw.Data[wBase+ic*mult+q] += float32(xv * dy.Data[dyBase+ic*mult+q])
							}
						}
					}
				}
			}
		}
	}
	return dw, nil
}
