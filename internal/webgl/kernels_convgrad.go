package webgl

import (
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// registerConvGrad installs the backward convolution and pooling programs,
// so training convolutional models stays entirely device-resident — the
// paper's headline capability of "integrated training and inference on the
// GPU from the browser". Each backward pass is expressed as a gather from
// the output-gradient texture (fragment shaders cannot scatter), the same
// formulation the real WebGL backend uses.
func (b *Backend) registerConvGrad() {
	b.register("Conv2DBackpropInput", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 2 {
			return errf("Conv2DBackpropInput: got %d inputs, want 2", len(inputs))
		}
		dy, w := inputs[0], inputs[1]
		inShape := attrs.Ints("inputShape", nil)
		info, err := kernels.ComputeConv2DInfo(inShape, w.Shape,
			attrs.Ints("strides", []int{1, 1}), attrs.Ints("dilations", []int{1, 1}),
			attrs.String("pad", "valid"), false)
		if err != nil {
			return err
		}
		if info.DilationHeight != 1 || info.DilationWidth != 1 {
			return kernels.ErrFallback // dilated backprop via reference
		}
		_, dyTex := b.input(dy)
		_, wTex := b.input(w)
		out, err := b.output(inShape, tensor.Float32, res)
		if err != nil {
			return err
		}
		inC, outC := info.InChannels, info.OutChannels
		outRow := info.OutWidth * outC
		outImg := info.OutHeight * outRow
		pairs, _ := backpropTaps(info)
		work := macWork(out.size, pairs*int64(inC)*int64(outC), 3)
		b.runFlat("Conv2DBackpropInput", out, work, func(flat int) float32 {
			ic := flat % inC
			rest := flat / inC
			ix := rest % info.InWidth
			rest /= info.InWidth
			iy := rest % info.InHeight
			bb := rest / info.InHeight
			var sum float32
			// dx[iy,ix] gathers from every output position whose window
			// covered it: oy = (iy + padTop - fy) / strideH.
			for fy := 0; fy < info.FilterHeight; fy++ {
				oyNum := iy + info.PadTop - fy
				if oyNum < 0 || oyNum%info.StrideHeight != 0 {
					continue
				}
				oy := oyNum / info.StrideHeight
				if oy >= info.OutHeight {
					continue
				}
				for fx := 0; fx < info.FilterWidth; fx++ {
					oxNum := ix + info.PadLeft - fx
					if oxNum < 0 || oxNum%info.StrideWidth != 0 {
						continue
					}
					ox := oxNum / info.StrideWidth
					if ox >= info.OutWidth {
						continue
					}
					dyBase := bb*outImg + oy*outRow + ox*outC
					wBase := (fy*info.FilterWidth+fx)*inC*outC + ic*outC
					for oc := 0; oc < outC; oc++ {
						sum += float32(dyTex.FetchFlat(dyBase+oc) * wTex.FetchFlat(wBase+oc))
					}
				}
			}
			return sum
		})
		return nil
	})

	b.register("Conv2DBackpropFilter", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 2 {
			return errf("Conv2DBackpropFilter: got %d inputs, want 2", len(inputs))
		}
		x, dy := inputs[0], inputs[1]
		filterShape := attrs.Ints("filterShape", nil)
		info, err := kernels.ComputeConv2DInfo(x.Shape, filterShape,
			attrs.Ints("strides", []int{1, 1}), attrs.Ints("dilations", []int{1, 1}),
			attrs.String("pad", "valid"), false)
		if err != nil {
			return err
		}
		if info.DilationHeight != 1 || info.DilationWidth != 1 {
			return kernels.ErrFallback
		}
		_, xTex := b.input(x)
		_, dyTex := b.input(dy)
		out, err := b.output(filterShape, tensor.Float32, res)
		if err != nil {
			return err
		}
		inC, outC := info.InChannels, info.OutChannels
		inRow := info.InWidth * inC
		inImg := info.InHeight * inRow
		outRow := info.OutWidth * outC
		outImg := info.OutHeight * outRow
		// Each filter value sums over the forward pass's in-bounds taps.
		work := macWork(out.size, int64(convTaps(info))*int64(inC)*int64(outC), 3)
		b.runFlat("Conv2DBackpropFilter", out, work, func(flat int) float32 {
			oc := flat % outC
			rest := flat / outC
			ic := rest % inC
			rest /= inC
			fx := rest % info.FilterWidth
			fy := rest / info.FilterWidth
			var sum float32
			for bb := 0; bb < info.BatchSize; bb++ {
				for oy := 0; oy < info.OutHeight; oy++ {
					iy := oy*info.StrideHeight - info.PadTop + fy
					if iy < 0 || iy >= info.InHeight {
						continue
					}
					for ox := 0; ox < info.OutWidth; ox++ {
						ix := ox*info.StrideWidth - info.PadLeft + fx
						if ix < 0 || ix >= info.InWidth {
							continue
						}
						sum += float32(xTex.FetchFlat(bb*inImg+iy*inRow+ix*inC+ic) *
							dyTex.FetchFlat(bb*outImg+oy*outRow+ox*outC+oc))
					}
				}
			}
			return sum
		})
		return nil
	})

	b.register("DepthwiseConv2dNativeBackpropInput", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 2 {
			return errf("DepthwiseConv2dNativeBackpropInput: got %d inputs, want 2", len(inputs))
		}
		dy, w := inputs[0], inputs[1]
		inShape := attrs.Ints("inputShape", nil)
		info, err := kernels.ComputeConv2DInfo(inShape, w.Shape,
			attrs.Ints("strides", []int{1, 1}), attrs.Ints("dilations", []int{1, 1}),
			attrs.String("pad", "valid"), true)
		if err != nil {
			return err
		}
		if info.DilationHeight != 1 || info.DilationWidth != 1 {
			return kernels.ErrFallback
		}
		_, dyTex := b.input(dy)
		_, wTex := b.input(w)
		out, err := b.output(inShape, tensor.Float32, res)
		if err != nil {
			return err
		}
		inC, mult, outC := info.InChannels, info.ChannelMultiplier, info.OutChannels
		outRow := info.OutWidth * outC
		outImg := info.OutHeight * outRow
		pairs, _ := backpropTaps(info)
		work := macWork(out.size, pairs*int64(outC), 3)
		b.runFlat("DepthwiseConv2dNativeBackpropInput", out, work, func(flat int) float32 {
			ic := flat % inC
			rest := flat / inC
			ix := rest % info.InWidth
			rest /= info.InWidth
			iy := rest % info.InHeight
			bb := rest / info.InHeight
			var sum float32
			for fy := 0; fy < info.FilterHeight; fy++ {
				oyNum := iy + info.PadTop - fy
				if oyNum < 0 || oyNum%info.StrideHeight != 0 {
					continue
				}
				oy := oyNum / info.StrideHeight
				if oy >= info.OutHeight {
					continue
				}
				for fx := 0; fx < info.FilterWidth; fx++ {
					oxNum := ix + info.PadLeft - fx
					if oxNum < 0 || oxNum%info.StrideWidth != 0 {
						continue
					}
					ox := oxNum / info.StrideWidth
					if ox >= info.OutWidth {
						continue
					}
					dyBase := bb*outImg + oy*outRow + ox*outC
					wBase := (fy*info.FilterWidth + fx) * inC * mult
					for q := 0; q < mult; q++ {
						sum += float32(dyTex.FetchFlat(dyBase+ic*mult+q) * wTex.FetchFlat(wBase+ic*mult+q))
					}
				}
			}
			return sum
		})
		return nil
	})

	b.register("DepthwiseConv2dNativeBackpropFilter", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 2 {
			return errf("DepthwiseConv2dNativeBackpropFilter: got %d inputs, want 2", len(inputs))
		}
		x, dy := inputs[0], inputs[1]
		filterShape := attrs.Ints("filterShape", nil)
		info, err := kernels.ComputeConv2DInfo(x.Shape, filterShape,
			attrs.Ints("strides", []int{1, 1}), attrs.Ints("dilations", []int{1, 1}),
			attrs.String("pad", "valid"), true)
		if err != nil {
			return err
		}
		if info.DilationHeight != 1 || info.DilationWidth != 1 {
			return kernels.ErrFallback
		}
		_, xTex := b.input(x)
		_, dyTex := b.input(dy)
		out, err := b.output(filterShape, tensor.Float32, res)
		if err != nil {
			return err
		}
		inC, mult, outC := info.InChannels, info.ChannelMultiplier, info.OutChannels
		inRow := info.InWidth * inC
		inImg := info.InHeight * inRow
		outRow := info.OutWidth * outC
		outImg := info.OutHeight * outRow
		work := macWork(out.size, int64(convTaps(info))*int64(outC), 3)
		b.runFlat("DepthwiseConv2dNativeBackpropFilter", out, work, func(flat int) float32 {
			q := flat % mult
			rest := flat / mult
			ic := rest % inC
			rest /= inC
			fx := rest % info.FilterWidth
			fy := rest / info.FilterWidth
			var sum float32
			for bb := 0; bb < info.BatchSize; bb++ {
				for oy := 0; oy < info.OutHeight; oy++ {
					iy := oy*info.StrideHeight - info.PadTop + fy
					if iy < 0 || iy >= info.InHeight {
						continue
					}
					for ox := 0; ox < info.OutWidth; ox++ {
						ix := ox*info.StrideWidth - info.PadLeft + fx
						if ix < 0 || ix >= info.InWidth {
							continue
						}
						sum += float32(xTex.FetchFlat(bb*inImg+iy*inRow+ix*inC+ic) *
							dyTex.FetchFlat(bb*outImg+oy*outRow+ox*outC+ic*mult+q))
					}
				}
			}
			return sum
		})
		return nil
	})

	b.register("MaxPoolGrad", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 2 {
			return errf("MaxPoolGrad: got %d inputs, want 2", len(inputs))
		}
		dy, x := inputs[0], inputs[1]
		filterSize := attrs.Ints("filterSize", []int{2, 2})
		strides := attrs.Ints("strides", filterSize)
		info, err := kernels.ComputePool2DInfo(x.Shape, filterSize, strides, attrs.String("pad", "valid"))
		if err != nil {
			return err
		}
		_, dyTex := b.input(dy)
		_, xTex := b.input(x)
		out, err := b.output(x.Shape, tensor.Float32, res)
		if err != nil {
			return err
		}
		c := info.OutChannels
		inRow := info.InWidth * c
		inImg := info.InHeight * inRow
		outRow := info.OutWidth * c
		outImg := info.OutHeight * outRow
		// Per value: its own x, and per covering window a rescan of the
		// window's cells (fetch + compare) and dy's value (charged as
		// taken: whether this position is the argmax is data).
		pairs, cells := backpropTaps(info)
		work := perValue(out.size, 1, 3*aluDecode)
		work.Fetches += int64(c) * (cells + pairs)
		work.ALU += int64(c) * (cells + 2*pairs)
		b.runFlat("MaxPoolGrad", out, work, func(flat int) float32 {
			ch := flat % c
			rest := flat / c
			ix := rest % info.InWidth
			rest /= info.InWidth
			iy := rest % info.InHeight
			bb := rest / info.InHeight
			myVal := xTex.FetchFlat(flat)
			var sum float32
			// Gather from each window that covers (iy, ix) and for which
			// this position is the (first) argmax.
			for fy := 0; fy < info.FilterHeight; fy++ {
				oyNum := iy + info.PadTop - fy
				if oyNum < 0 || oyNum%info.StrideHeight != 0 {
					continue
				}
				oy := oyNum / info.StrideHeight
				if oy >= info.OutHeight {
					continue
				}
				for fx := 0; fx < info.FilterWidth; fx++ {
					oxNum := ix + info.PadLeft - fx
					if oxNum < 0 || oxNum%info.StrideWidth != 0 {
						continue
					}
					ox := oxNum / info.StrideWidth
					if ox >= info.OutWidth {
						continue
					}
					// Find the window's argmax (first occurrence) and
					// check whether it is this position.
					best := float32(math.Inf(-1))
					bestIdx := -1
					yCorner := oy*info.StrideHeight - info.PadTop
					xCorner := ox*info.StrideWidth - info.PadLeft
					for wy := 0; wy < info.FilterHeight; wy++ {
						yy := yCorner + wy
						if yy < 0 || yy >= info.InHeight {
							continue
						}
						for wx := 0; wx < info.FilterWidth; wx++ {
							xx := xCorner + wx
							if xx < 0 || xx >= info.InWidth {
								continue
							}
							idx := bb*inImg + yy*inRow + xx*c + ch
							if v := xTex.FetchFlat(idx); v > best {
								best = v
								bestIdx = idx
							}
						}
					}
					if bestIdx == flat && myVal == best {
						sum += dyTex.FetchFlat(bb*outImg + oy*outRow + ox*c + ch)
					}
				}
			}
			return sum
		})
		return nil
	})

	b.register("AvgPoolGrad", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 1 {
			return errf("AvgPoolGrad: got %d inputs, want 1", len(inputs))
		}
		dy := inputs[0]
		inShape := attrs.Ints("inputShape", nil)
		filterSize := attrs.Ints("filterSize", []int{2, 2})
		strides := attrs.Ints("strides", filterSize)
		info, err := kernels.ComputePool2DInfo(inShape, filterSize, strides, attrs.String("pad", "valid"))
		if err != nil {
			return err
		}
		_, dyTex := b.input(dy)
		out, err := b.output(inShape, tensor.Float32, res)
		if err != nil {
			return err
		}
		c := info.OutChannels
		outRow := info.OutWidth * c
		outImg := info.OutHeight * outRow
		// Per covering window: a recount of its in-bounds cells, one dy
		// fetch, a divide and an add.
		pairs, cells := backpropTaps(info)
		work := perValue(out.size, 0, 3*aluDecode)
		work.Fetches += int64(c) * pairs
		work.ALU += int64(c) * (cells + 2*pairs)
		b.runFlat("AvgPoolGrad", out, work, func(flat int) float32 {
			ch := flat % c
			rest := flat / c
			ix := rest % info.InWidth
			rest /= info.InWidth
			iy := rest % info.InHeight
			bb := rest / info.InHeight
			var sum float32
			for fy := 0; fy < info.FilterHeight; fy++ {
				oyNum := iy + info.PadTop - fy
				if oyNum < 0 || oyNum%info.StrideHeight != 0 {
					continue
				}
				oy := oyNum / info.StrideHeight
				if oy >= info.OutHeight {
					continue
				}
				for fx := 0; fx < info.FilterWidth; fx++ {
					oxNum := ix + info.PadLeft - fx
					if oxNum < 0 || oxNum%info.StrideWidth != 0 {
						continue
					}
					ox := oxNum / info.StrideWidth
					if ox >= info.OutWidth {
						continue
					}
					// The window's in-bounds cell count (padding cells
					// are excluded from the forward average).
					yCorner := oy*info.StrideHeight - info.PadTop
					xCorner := ox*info.StrideWidth - info.PadLeft
					count := 0
					for wy := 0; wy < info.FilterHeight; wy++ {
						yy := yCorner + wy
						if yy < 0 || yy >= info.InHeight {
							continue
						}
						for wx := 0; wx < info.FilterWidth; wx++ {
							xx := xCorner + wx
							if xx >= 0 && xx < info.InWidth {
								count++
							}
						}
					}
					if count > 0 {
						sum += dyTex.FetchFlat(bb*outImg+oy*outRow+ox*c+ch) / float32(count)
					}
				}
			}
			return sum
		})
		return nil
	})
}
