package kernels

import "repro/internal/tensor"

// convAttrs extracts the shared convolution attributes.
func convAttrs(attrs Attrs) (strides, dilations []int, pad string) {
	strides = attrs.Ints("strides", []int{1, 1})
	dilations = attrs.Ints("dilations", []int{1, 1})
	pad = attrs.String("pad", "valid")
	return strides, dilations, pad
}

func init() {
	// Conv2D computes a 2-D convolution over NHWC input with filter
	// [fh, fw, inC, outC].
	RegisterRef("Conv2D", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("Conv2D", inputs, 2); err != nil {
			return Buffer{}, err
		}
		x, w := inputs[0], inputs[1]
		strides, dilations, pad := convAttrs(attrs)
		info, err := ComputeConv2DInfo(x.Shape, w.Shape, strides, dilations, pad, false)
		if err != nil {
			return Buffer{}, errIn("Conv2D", "%v", err)
		}
		out := NewBuffer(info.OutShape(), tensor.Float32)
		// Dense inner loop, no per-element zero-skip: the old
		// `if xv == 0 { continue }` paid a data-dependent branch per
		// multiply, which mispredicts on dense inputs (images, the common
		// case for a forward conv). The skip survives only where zeros are
		// structural: the gradient kernels below, whose dy/x operands are
		// post-ReLU sparse (see EXPERIMENTS.md for the benchmark note).
		convolve2D(out.Data, x.Data, w.Data, info)
		return out, nil
	})

	// Conv2DBackpropInput computes the gradient of Conv2D with respect to
	// its input. Inputs are (dy, filter); attr "inputShape" gives the
	// original input shape.
	RegisterRef("Conv2DBackpropInput", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("Conv2DBackpropInput", inputs, 2); err != nil {
			return Buffer{}, err
		}
		dy, w := inputs[0], inputs[1]
		inShape := attrs.Ints("inputShape", nil)
		strides, dilations, pad := convAttrs(attrs)
		info, err := ComputeConv2DInfo(inShape, w.Shape, strides, dilations, pad, false)
		if err != nil {
			return Buffer{}, errIn("Conv2DBackpropInput", "%v", err)
		}
		if !tensor.ShapesEqual(dy.Shape, info.OutShape()) {
			return Buffer{}, errIn("Conv2DBackpropInput", "dy shape %v != conv output shape %v", dy.Shape, info.OutShape())
		}
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
	})

	// Conv2DBackpropFilter computes the gradient of Conv2D with respect to
	// its filter. Inputs are (x, dy); attr "filterShape" gives the filter
	// shape.
	RegisterRef("Conv2DBackpropFilter", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("Conv2DBackpropFilter", inputs, 2); err != nil {
			return Buffer{}, err
		}
		x, dy := inputs[0], inputs[1]
		filterShape := attrs.Ints("filterShape", nil)
		strides, dilations, pad := convAttrs(attrs)
		info, err := ComputeConv2DInfo(x.Shape, filterShape, strides, dilations, pad, false)
		if err != nil {
			return Buffer{}, errIn("Conv2DBackpropFilter", "%v", err)
		}
		if !tensor.ShapesEqual(dy.Shape, info.OutShape()) {
			return Buffer{}, errIn("Conv2DBackpropFilter", "dy shape %v != conv output shape %v", dy.Shape, info.OutShape())
		}
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
	})

	// DepthwiseConv2dNative applies one filter per input channel with a
	// channel multiplier: filter [fh, fw, inC, mult].
	RegisterRef("DepthwiseConv2dNative", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("DepthwiseConv2dNative", inputs, 2); err != nil {
			return Buffer{}, err
		}
		x, w := inputs[0], inputs[1]
		strides, dilations, pad := convAttrs(attrs)
		info, err := ComputeConv2DInfo(x.Shape, w.Shape, strides, dilations, pad, true)
		if err != nil {
			return Buffer{}, errIn("DepthwiseConv2dNative", "%v", err)
		}
		out := NewBuffer(info.OutShape(), tensor.Float32)
		depthwiseConvolve2D(out.Data, x.Data, w.Data, info)
		return out, nil
	})

	// DepthwiseConv2dNativeBackpropInput: inputs (dy, filter), attr
	// "inputShape".
	RegisterRef("DepthwiseConv2dNativeBackpropInput", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("DepthwiseConv2dNativeBackpropInput", inputs, 2); err != nil {
			return Buffer{}, err
		}
		dy, w := inputs[0], inputs[1]
		inShape := attrs.Ints("inputShape", nil)
		strides, dilations, pad := convAttrs(attrs)
		info, err := ComputeConv2DInfo(inShape, w.Shape, strides, dilations, pad, true)
		if err != nil {
			return Buffer{}, errIn("DepthwiseConv2dNativeBackpropInput", "%v", err)
		}
		dx := NewBuffer(inShape, tensor.Float32)
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
	})

	// DepthwiseConv2dNativeBackpropFilter: inputs (x, dy), attr
	// "filterShape".
	RegisterRef("DepthwiseConv2dNativeBackpropFilter", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("DepthwiseConv2dNativeBackpropFilter", inputs, 2); err != nil {
			return Buffer{}, err
		}
		x, dy := inputs[0], inputs[1]
		filterShape := attrs.Ints("filterShape", nil)
		strides, dilations, pad := convAttrs(attrs)
		info, err := ComputeConv2DInfo(x.Shape, filterShape, strides, dilations, pad, true)
		if err != nil {
			return Buffer{}, errIn("DepthwiseConv2dNativeBackpropFilter", "%v", err)
		}
		dw := NewBuffer(filterShape, tensor.Float32)
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
	})
}
