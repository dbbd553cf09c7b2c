package webgl

import (
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
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

// clip returns the filter taps [fyLo, fyHi) × [fxLo, fxHi) of the window
// that land inside the input image: padding clips a filter to a rectangle
// (empty when the window lies wholly in the padding).
func (w window) clip(info kernels.Conv2DInfo) (fyLo, fyHi, fxLo, fxHi int) {
	fyLo, fyHi = kernels.TapRange(w.yCorner, info.DilationHeight, info.FilterHeight, info.InHeight)
	fxLo, fxHi = kernels.TapRange(w.xCorner, info.DilationWidth, info.FilterWidth, info.InWidth)
	return
}

// forEachTap calls fn for every filter tap of the window that lands inside
// the input image, in (fy, fx) order, with the flat input offset of the
// tap's pixel and the tap's index fy*FilterWidth+fx.
func (w window) forEachTap(info kernels.Conv2DInfo, fn func(inBase, tap int)) {
	inRow := info.InWidth * info.InChannels
	fyLo, fyHi, fxLo, fxHi := w.clip(info)
	for fy := fyLo; fy < fyHi; fy++ {
		rowBase := w.imgBase + (w.yCorner+fy*info.DilationHeight)*inRow
		for fx := fxLo; fx < fxHi; fx++ {
			fn(rowBase+(w.xCorner+fx*info.DilationWidth)*info.InChannels, fy*info.FilterWidth+fx)
		}
	}
}

// denseSteps is a dense product's offset table — step t reads its row of
// weights at t*stride — for the first len(offs) steps: what vec.AxpyN takes
// where a caller that skips zeros (native's gemmRow) passes the offsets it
// kept. A program body builds one on its stack per range it is handed;
// nothing is allocated per dispatch. Its length is a multiple of the vector
// core's four-wide step.
type denseSteps struct {
	stride int
	offs   [32]int
}

func newDenseSteps(stride int) (s denseSteps) {
	s.stride = stride
	for t := range s.offs {
		s.offs[t] = t * stride
	}
	return s
}

// accumulate is acc[j] += xs[t]·ws[t*stride+j], t ascending: the inner loop
// of the convolution and matrix-multiply programs. The stride is a filter or
// matrix row's length, which is not len(acc) on the partial pixels at a
// range's ends. Every step is multiplied, a zero xs[t] too, as the shader
// does — 0·Inf is NaN here and on the reference tier, which is why this is
// the dense vec.AxpyN and not native's zero-skipping gemmRow.
func (s *denseSteps) accumulate(acc, xs, ws []float32) {
	for len(xs) > len(s.offs) {
		vec.AxpyN(acc, xs[:len(s.offs)], s.offs[:], ws)
		xs, ws = xs[len(s.offs):], ws[len(s.offs)*s.stride:]
	}
	vec.AxpyN(acc, xs, s.offs[:], ws)
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
	ep, err := b.fusedTail(name, inputs, attrs, info.OutChannels, fused)
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
	inRow := info.InWidth * inC
	b.run(name, out, convWork(info, out.size, ep.bias != nil, ep.act != nil), func(lo, hi int, dst []float32) {
		xs, ws := xTex.Floats(), wTex.Floats()
		steps := newDenseSteps(outC)
		forEachPixel(info, outC, lo, hi, dst, func(acc []float32, cLo int, win window) {
			clear(acc)
			fyLo, fyHi, fxLo, fxHi := win.clip(info)
			// Undilated, a filter row's in-bounds taps are contiguous in x
			// and in w, so one product covers the whole run of them — the
			// stem's inC = 3 becomes nine steps, not three.
			run := 1
			if info.DilationWidth == 1 {
				run = fxHi - fxLo
			}
			for fy := fyLo; fy < fyHi; fy++ {
				rowBase := win.imgBase + (win.yCorner+fy*info.DilationHeight)*inRow
				for fx := fxLo; fx < fxHi; fx += run {
					inBase := rowBase + (win.xCorner+fx*info.DilationWidth)*inC
					wBase := (fy*info.FilterWidth+fx)*inC*outC + cLo
					steps.accumulate(acc, xs[inBase:inBase+run*inC], ws[wBase:])
				}
			}
			ep.apply(acc, cLo)
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
	ep, err := b.fusedTail(name, inputs, attrs, info.OutChannels, fused)
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
	inRow := info.InWidth * info.InChannels
	b.run(name, out, depthwiseWork(info, out.size, ep.bias != nil, ep.act != nil), func(lo, hi int, dst []float32) {
		xs, ws := xTex.Floats(), wTex.Floats()
		forEachPixel(info, outC, lo, hi, dst, func(acc []float32, cLo int, win window) {
			clear(acc)
			if mult == 1 && len(acc) == outC {
				// A whole pixel, one input channel per output channel: the
				// clipped filter is a rectangle of contiguous channel rows.
				fyLo, fyHi, fxLo, fxHi := win.clip(info)
				if fyLo < fyHi && fxLo < fxHi {
					inBase := win.imgBase + (win.yCorner+fyLo*info.DilationHeight)*inRow + (win.xCorner+fxLo*info.DilationWidth)*outC
					vec.DwPixel(acc, xs[inBase:], ws[(fyLo*info.FilterWidth+fxLo)*outC:],
						info.DilationHeight*inRow, info.DilationWidth*outC, info.FilterWidth*outC, fyHi-fyLo, fxHi-fxLo)
				}
				ep.apply(acc, cLo)
				return
			}
			// The partial pixels at a range's ends, and multipliers above 1.
			win.forEachTap(info, func(inBase, tap int) {
				wRow := ws[tap*outC+cLo : tap*outC+cLo+len(acc)]
				for j, wv := range wRow {
					acc[j] += float32(xs[inBase+(cLo+j)/mult] * wv)
				}
			})
			ep.apply(acc, cLo)
		})
	})
	return nil
}
