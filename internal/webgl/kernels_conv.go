package webgl

import (
	"math"

	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// registerConv installs the convolution and pooling shader programs. Each
// output pixel decodes its NHWC coordinates and clips its receptive field
// once, then walks the taps over the pixel's run of output channels — the
// structure of the tf.conv2d() fragment shader described in Section 4.1
// ("the GLSL implementation of tf.conv2d() uses the auto-generated
// getA(batch, row, column, depth) method to sample from a 4D tensor"),
// with the per-value work that every value of a pixel shares done once.
func (b *Backend) registerConv() {
	b.register("Conv2D", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 2 {
			return errf("Conv2D: got %d inputs, want 2", len(inputs))
		}
		return b.conv2D("Conv2D", inputs, attrs, false, res)
	})

	b.register("DepthwiseConv2dNative", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 2 {
			return errf("DepthwiseConv2dNative: got %d inputs, want 2", len(inputs))
		}
		return b.depthwiseConv2D("DepthwiseConv2dNative", inputs, attrs, false, res)
	})

	pool := func(name string, isMax bool) kernels.OverrideKernel {
		return func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
			if len(inputs) != 1 {
				return errf("%s: got %d inputs, want 1", name, len(inputs))
			}
			x := inputs[0]
			filterSize := attrs.Ints("filterSize", []int{2, 2})
			strides := attrs.Ints("strides", filterSize)
			pad := attrs.String("pad", "valid")
			info, err := kernels.ComputePool2DInfo(x.Shape, filterSize, strides, pad)
			if err != nil {
				return err
			}
			_, xTex := b.input(x)
			out, err := b.output(info.OutShape(), x.DType, res)
			if err != nil {
				return err
			}
			c := info.OutChannels
			// One fetch and one compare-or-add per in-bounds tap; the
			// average divides once.
			taps := convTaps(info) * c
			work := perValue(out.size, 0, 3*aluDecode)
			work.Fetches += int64(taps)
			work.ALU += int64(taps)
			if !isMax {
				work.ALU += int64(out.size)
			}
			fill := float32(0)
			if isMax {
				fill = float32(math.Inf(-1))
			}
			b.run(name, out, work, func(lo, hi int, dst []float32) {
				xs := xTex.Floats()
				forEachPixel(info, c, lo, hi, dst, func(acc []float32, cLo int, win window) {
					for j := range acc {
						acc[j] = fill
					}
					count := 0
					win.forEachTap(info, func(inBase, _ int) {
						row := xs[inBase+cLo : inBase+cLo+len(acc)]
						if isMax {
							for j, v := range row {
								if v > acc[j] {
									acc[j] = v
								}
							}
						} else {
							for j, v := range row {
								acc[j] += v
							}
							count++
						}
					})
					if !isMax && count > 0 {
						for j := range acc {
							acc[j] /= float32(count)
						}
					}
				})
			})
			return nil
		}
	}
	b.register("MaxPool", pool("MaxPool", true))
	b.register("AvgPool", pool("AvgPool", false))
}

// window is one output pixel's receptive field after clipping: the input
// offset of its batch image, and its top-left input coordinate (which
// padding can put outside the image).
type window struct {
	imgBase          int
	yCorner, xCorner int
}

// forEachPixel walks the output values [lo, hi) of an NHWC program one
// pixel at a time. For each pixel it decodes (batch, y, x) once and calls
// fn with acc, the slice of dst holding the pixel's output channels
// [cLo, cLo+len(acc)) — a whole pixel except at the ends of the range,
// which fall wherever the device chunked it — and the pixel's window.
func forEachPixel(info kernels.Conv2DInfo, outC, lo, hi int, dst []float32, fn func(acc []float32, cLo int, win window)) {
	inImg := info.InHeight * info.InWidth * info.InChannels
	for at := lo; at < hi; {
		pixel, cLo := at/outC, at%outC
		n := min(outC-cLo, hi-at)
		ox := pixel % info.OutWidth
		rest := pixel / info.OutWidth
		oy := rest % info.OutHeight
		bb := rest / info.OutHeight
		fn(dst[at-lo:at-lo+n:at-lo+n], cLo, window{
			imgBase: bb * inImg,
			yCorner: oy*info.StrideHeight - info.PadTop,
			xCorner: ox*info.StrideWidth - info.PadLeft,
		})
		at += n
	}
}

// forEachTap calls fn for every filter tap of the window that lands inside
// the input image, in (fy, fx) order, with the flat input offset of the
// tap's pixel and the tap's index fy*FilterWidth+fx.
func (w window) forEachTap(info kernels.Conv2DInfo, fn func(inBase, tap int)) {
	inRow := info.InWidth * info.InChannels
	for fy := 0; fy < info.FilterHeight; fy++ {
		iy := w.yCorner + fy*info.DilationHeight
		if iy < 0 || iy >= info.InHeight {
			continue
		}
		for fx := 0; fx < info.FilterWidth; fx++ {
			ix := w.xCorner + fx*info.DilationWidth
			if ix < 0 || ix >= info.InWidth {
				continue
			}
			fn(w.imgBase+iy*inRow+ix*info.InChannels, fy*info.FilterWidth+fx)
		}
	}
}

// epilogue applies a fused kernel's bias and activation to the output
// channels [cLo, cLo+len(acc)) of one pixel or row.
func epilogue(acc []float32, cLo int, biasTex *glsim.Texture, act func(float32) float32) {
	if biasTex != nil {
		for j, bv := range biasTex.Floats()[cLo : cLo+len(acc)] {
			acc[j] += bv
		}
	}
	if act != nil {
		for j, v := range acc {
			acc[j] = act(v)
		}
	}
}

// axpy is acc[j] += a·row[j], four values a turn. It is the inner loop of the
// convolution and matrix-multiply programs, and it is unrolled for the
// host's sake: as a three-instruction loop its speed depended on whether the
// linker put it across a 64-byte line (predict_webgl p50 5.98 or 8.92 ms
// from the same machine code, EXPERIMENTS.md ISSUE 22). Each value keeps its
// own order of additions.
func axpy(acc, row []float32, a float32) {
	row = row[:len(acc)]
	j := 0
	for ; j+4 <= len(acc); j += 4 {
		d, r := acc[j:j+4:j+4], row[j:j+4:j+4]
		d[0] += a * r[0]
		d[1] += a * r[1]
		d[2] += a * r[2]
		d[3] += a * r[3]
	}
	for ; j < len(acc); j++ {
		acc[j] += a * row[j]
	}
}

// conv2D is the Conv2D and FusedConv2D program: every output value is the
// sum, in (fy, fx, ic) order, of input × filter over the in-bounds taps,
// then the epilogue. The sum is accumulated for a pixel's whole run of
// output channels at once — acc[j] += x·w[j] over a contiguous filter row —
// which leaves each value's own order of additions, and so its bits,
// unchanged.
func (b *Backend) conv2D(name string, inputs []kernels.Input, attrs kernels.Attrs, fused bool, res *kernels.TensorInfo) error {
	x, w := inputs[0], inputs[1]
	info, err := kernels.ComputeConv2DInfo(x.Shape, w.Shape,
		attrs.Ints("strides", []int{1, 1}), attrs.Ints("dilations", []int{1, 1}),
		attrs.String("pad", "valid"), false)
	if err != nil {
		return err
	}
	biasTex, act, err := b.fusedTail(name, inputs, attrs, info.OutChannels, fused)
	if err != nil {
		return err
	}
	_, xTex := b.input(x)
	_, wTex := b.input(w)
	out, err := b.output(info.OutShape(), tensor.Float32, res)
	if err != nil {
		return err
	}
	inC, outC := info.InChannels, info.OutChannels
	b.run(name, out, convWork(info, out.size, biasTex != nil, act != nil), func(lo, hi int, dst []float32) {
		xs, ws := xTex.Floats(), wTex.Floats()
		forEachPixel(info, outC, lo, hi, dst, func(acc []float32, cLo int, win window) {
			clear(acc)
			win.forEachTap(info, func(inBase, tap int) {
				wBase := tap*inC*outC + cLo
				for _, xv := range xs[inBase : inBase+inC] {
					axpy(acc, ws[wBase:wBase+len(acc)], xv)
					wBase += outC
				}
			})
			epilogue(acc, cLo, biasTex, act)
		})
	})
	return nil
}

// depthwiseConv2D is the DepthwiseConv2dNative and
// FusedDepthwiseConv2dNative program: output channel oc reads input
// channel oc/multiplier, and the filter is laid out so that a tap's
// weights for a pixel's output channels are one contiguous row.
func (b *Backend) depthwiseConv2D(name string, inputs []kernels.Input, attrs kernels.Attrs, fused bool, res *kernels.TensorInfo) error {
	x, w := inputs[0], inputs[1]
	info, err := kernels.ComputeConv2DInfo(x.Shape, w.Shape,
		attrs.Ints("strides", []int{1, 1}), attrs.Ints("dilations", []int{1, 1}),
		attrs.String("pad", "valid"), true)
	if err != nil {
		return err
	}
	biasTex, act, err := b.fusedTail(name, inputs, attrs, info.OutChannels, fused)
	if err != nil {
		return err
	}
	_, xTex := b.input(x)
	_, wTex := b.input(w)
	out, err := b.output(info.OutShape(), tensor.Float32, res)
	if err != nil {
		return err
	}
	mult, outC := info.ChannelMultiplier, info.OutChannels
	b.run(name, out, depthwiseWork(info, out.size, biasTex != nil, act != nil), func(lo, hi int, dst []float32) {
		xs, ws := xTex.Floats(), wTex.Floats()
		forEachPixel(info, outC, lo, hi, dst, func(acc []float32, cLo int, win window) {
			clear(acc)
			win.forEachTap(info, func(inBase, tap int) {
				wRow := ws[tap*outC+cLo : tap*outC+cLo+len(acc)]
				if mult == 1 {
					for j, xv := range xs[inBase+cLo : inBase+cLo+len(acc)] {
						acc[j] += xv * wRow[j]
					}
					return
				}
				for j, wv := range wRow {
					acc[j] += xs[inBase+(cLo+j)/mult] * wv
				}
			})
			epilogue(acc, cLo, biasTex, act)
		})
	})
	return nil
}
