package kernels

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// The host backends' convolution walk and the bodies it drives. native and
// the WebGL simulator compute a convolution, a depthwise convolution and a
// pool with one loop nest over one geometry, written here once. A body
// gets a range [lo, lo+len(dst)) of the NHWC output's flat values — whole
// output rows from native's worker pool, or wherever the simulated device
// cut a texel range — and walkConv splits it into the pieces the vector
// cores take whole: a partial head pixel when the range starts mid-pixel,
// runs of whole pixels of one output row whose windows padding clips
// alike, and a partial tail pixel. The columns no padding clips are found
// once per call, so a row's interior is one run and only its border pixels
// compare their taps.
//
// Every output value receives the same products in the same order
// whichever piece it falls in, so what a body writes for a value does not
// depend on where its range was cut (the device's contract,
// TestKernelContract), and it is the reference kernel's function
// (TestForwardKernelsBitIdenticalToReference). The gradients with respect
// to the input get a range of dx instead, and scatter walks the output
// positions whose windows reach it.

// A Walk is the geometry of a convolution or pool as the bodies below take
// it: a Conv2DInfo in 32-bit fields. A backend's worker-pool or program
// closure holds one beside the operands and is allocated per dispatch,
// which is why it is half a Conv2DInfo's size.
type Walk struct {
	inH, inW, inC, outH, outW, outC    int32
	fH, fW, sH, sW, dH, dW, padT, padL int32
	mult                               int32
}

// NewWalk packs info.
func NewWalk(info Conv2DInfo) Walk {
	return Walk{int32(info.InHeight), int32(info.InWidth), int32(info.InChannels),
		int32(info.OutHeight), int32(info.OutWidth), int32(info.OutChannels),
		int32(info.FilterHeight), int32(info.FilterWidth), int32(info.StrideHeight), int32(info.StrideWidth),
		int32(info.DilationHeight), int32(info.DilationWidth), int32(info.PadTop), int32(info.PadLeft),
		int32(info.ChannelMultiplier)}
}

// info unpacks the geometry (BatchSize left 0: a body that needs it, the
// filter gradient's, takes it as an argument).
func (g Walk) info() Conv2DInfo {
	return Conv2DInfo{InHeight: int(g.inH), InWidth: int(g.inW), InChannels: int(g.inC),
		OutHeight: int(g.outH), OutWidth: int(g.outW), OutChannels: int(g.outC),
		FilterHeight: int(g.fH), FilterWidth: int(g.fW), StrideHeight: int(g.sH), StrideWidth: int(g.sW),
		DilationHeight: int(g.dH), DilationWidth: int(g.dW), PadTop: int(g.padT), PadLeft: int(g.padL),
		ChannelMultiplier: int(g.mult)}
}

// convPiece is one piece of a range: dst holds pixels whole output pixels
// of one output row (of any rows, when the walk is flat: see walkConv), or
// — pixels == 0 — the output channels [cLo, cLo+len(dst)) of one pixel.
// Every pixel of a piece keeps the same taps [fyLo, fyHi) × [fxLo, fxHi)
// of its window, those inside the input; in is the offset in x of the
// first pixel's first such tap, and each next pixel's is
// StrideWidth·InChannels on. When the window lies wholly in the padding
// the tap range is empty and in is meaningless.
type convPiece struct {
	dst                    []float32
	cLo, pixels, in        int
	fyLo, fyHi, fxLo, fxHi int
}

// span returns how many pixel rows the piece holds and how long each is:
// its whole pixels of outC, or its one partial pixel.
func (p convPiece) span(outC int) (count, n int) {
	if p.pixels == 0 {
		return 1, len(p.dst)
	}
	return p.pixels, outC
}

// interior returns the output columns [oxA, oxB) whose windows padding
// does not clip: from the first whose window starts inside the input to
// one past the last whose window ends inside it.
func interior(info *Conv2DInfo) (oxA, oxB int) {
	sW := info.StrideWidth
	oxA = (info.PadLeft + sW - 1) / sW
	if last := info.InWidth - 1 - (info.FilterWidth-1)*info.DilationWidth + info.PadLeft; last >= 0 {
		oxB = min(info.OutWidth, last/sW+1)
	}
	return oxA, max(oxA, oxB)
}

// runFloats bounds a run of whole pixels, in output values: Conv2D clears
// its run and then adds every tap into it, so the run stays in L1.
const runFloats = 8192

// walkConv hands body the pieces of the output values [lo, lo+len(dst)),
// in order: dst is what the body writes, or for the gradients the output
// gradient it reads.
func walkConv(info *Conv2DInfo, lo int, dst []float32, body func(convPiece)) {
	outC, outW, outH := info.OutChannels, info.OutWidth, info.OutHeight
	if outC == 0 {
		return
	}
	inC, sW, dW, fW, inW := info.InChannels, info.StrideWidth, info.DilationWidth, info.FilterWidth, info.InWidth
	inRow := inW * inC
	inImg := info.InHeight * inRow
	oxA, oxB := interior(info)
	// A one-tap window at stride 1 (which no padding reaches) reads x pixel
	// for pixel, so a run of whole pixels need not end with its output row.
	flat := info.FilterHeight == 1 && fW == 1 && info.StrideHeight == 1 && sW == 1
	// The walk's position: channel c of pixel (ox, oy) of image img.
	pixel := lo / outC
	c, ox, oy, img := lo%outC, pixel%outW, pixel/outW%outH, pixel/outW/outH
	var p convPiece
	for at, hi := lo, lo+len(dst); at < hi; {
		yCorner := oy*info.StrideHeight - info.PadTop
		xCorner := ox*sW - info.PadLeft
		p.fyLo, p.fyHi = TapRange(yCorner, info.DilationHeight, info.FilterHeight, info.InHeight)
		p.fxLo, p.fxHi = TapRange(xCorner, dW, fW, inW)
		p.in = img*inImg + (yCorner+p.fyLo*info.DilationHeight)*inRow + (xCorner+p.fxLo*dW)*inC
		p.cLo, p.pixels = c, 0
		n := min(outC-c, hi-at)
		if n == outC {
			// Whole pixels, up to runFloats of them and to the end of the
			// range or, unless the walk is flat, of the row: the interior
			// in one step, a border pixel by pixel while the padding clips
			// alike.
			end := ox + min((hi-at)/outC, max(1, runFloats/outC))
			if !flat {
				last := min(outW, end)
				if oxA <= ox && ox < oxB {
					end = min(oxB, last)
				} else {
					for end = ox + 1; end < last && (end < oxA || end >= oxB); end++ {
						if l, h := TapRange(end*sW-info.PadLeft, dW, fW, inW); l != p.fxLo || h != p.fxHi {
							break
						}
					}
				}
			}
			p.pixels, n = end-ox, (end-ox)*outC
		}
		p.dst = dst[at-lo : at-lo+n]
		body(p)
		at += n
		// The next piece starts at the first channel of the pixel after.
		c, ox = 0, ox+max(p.pixels, 1)
		for ox >= outW {
			ox -= outW
			if oy++; oy == outH {
				oy, img = 0, img+1
			}
		}
	}
}

// Conv2D computes the output values [lo, lo+len(dst)) of the convolution
// g describes — x NHWC, w [fh, fw, inC, outC] — into dst and applies ep to
// them. Each value is the product over the window's in-bounds taps in
// (fy, fx, ic) order, a zero x left out (GemmRow's). Undilated, a filter
// row's in-bounds taps are contiguous in x and in w, so one call covers
// them — the stem's inC = 3 is one product of nine steps, not three of
// three. Output rows of one or two vector steps take a run's pixels to
// AxpyRows together; wider ones take each pixel to GemmRow.
func (g Walk) Conv2D(x, w []float32, ep Epilogue, lo int, dst []float32) {
	info := g.info()
	inC, outC := info.InChannels, info.OutChannels
	inRow := info.InWidth * inC
	fW, dH, dW := info.FilterWidth, info.DilationHeight, info.DilationWidth
	pixelStride := info.StrideWidth * inC
	narrow := vec.NarrowRow(outC)
	ep.Bias = ep.biasFrom(0, outC)
	var nz vec.NZList
	walkConv(&info, lo, dst, func(p convPiece) {
		run := 1
		if dW == 1 {
			run = p.fxHi - p.fxLo
		}
		clear(p.dst)
		count, n := p.span(outC)
		for fy := p.fyLo; fy < p.fyHi; fy++ {
			for fx := p.fxLo; fx < p.fxHi; fx += run {
				// x[in] is the tap of the piece's first pixel, ws its row
				// of weights.
				in := p.in + (fy-p.fyLo)*dH*inRow + (fx-p.fxLo)*dW*inC
				ws := w[(fy*fW+fx)*inC*outC+p.cLo:]
				if narrow && p.pixels > 0 {
					vec.AxpyRows(p.dst, outC, x[in:], pixelStride, 1, run*inC, ws)
					continue
				}
				for i := 0; i < count; i++ {
					vec.GemmRow(p.dst[i*n:(i+1)*n], x[in+i*pixelStride:][:run*inC], 1, ws, outC, &nz)
				}
			}
		}
		ep.Apply(p.dst, p.cLo)
	})
}

// Depthwise computes the output values [lo, lo+len(dst)) of the depthwise
// convolution g describes — x NHWC, w [fh, fw, inC, mult], output channel
// oc reading input channel oc/mult — into dst and applies ep to them. Each
// value takes every product of its in-bounds taps, in (fy, fx) order. With
// one output channel per input channel a piece is one DwRun, epilogue
// included (a closure activation then runs over it); a multiplier above 1
// takes the scalar loop.
func (g Walk) Depthwise(x, w []float32, ep Epilogue, lo int, dst []float32) {
	info := g.info()
	inC, outC, mult := info.InChannels, info.OutChannels, info.ChannelMultiplier
	inRow := info.InWidth * inC
	fW, dH, dW := info.FilterWidth, info.DilationHeight, info.DilationWidth
	pixelStride := info.StrideWidth * inC
	ep.Bias = ep.biasFrom(0, outC)
	walkConv(&info, lo, dst, func(p convPiece) {
		rows, taps := p.fyHi-p.fyLo, p.fxHi-p.fxLo
		count, n := p.span(outC)
		// x from the first pixel's first tap, w from its weights; neither is
		// read when the window lies wholly in the padding.
		var xs, ws []float32
		if rows > 0 && taps > 0 {
			xs, ws = x[p.in:], w[(p.fyLo*fW+p.fxLo)*outC+p.cLo:]
		}
		if mult == 1 {
			if xs != nil {
				xs = xs[p.cLo:] // output channel c reads input channel c
			}
			vec.DwRun(p.dst, xs, ws, ep.biasFrom(p.cLo, n), count, pixelStride, dH*inRow, dW*inC, fW*outC, outC, rows, taps, ep.Kind)
			ep.applyClosure(p.dst)
			return
		}
		clear(p.dst)
		for i := 0; i < count && xs != nil; i++ {
			acc, xp := p.dst[i*n:(i+1)*n], xs[i*pixelStride:]
			for fy := 0; fy < rows; fy++ {
				for fx := 0; fx < taps; fx++ {
					xTap := xp[fy*dH*inRow+fx*dW*inC:]
					for j, wv := range ws[(fy*fW+fx)*outC:][:n] {
						acc[j] += float32(xTap[(p.cLo+j)/mult] * wv)
					}
				}
			}
		}
		ep.Apply(p.dst, p.cLo)
	})
}

// Pool computes the output values [lo, lo+len(dst)) of the pool g
// describes into dst: pixel — vec.PoolMax or vec.PoolAvg — reduces each
// pixel's window clipped to the input, channel run innermost.
func (g Walk) Pool(x []float32, pixel func(dst, x []float32, rowStride, tapStride, rows, taps int), lo int, dst []float32) {
	info := g.info()
	c := info.InChannels
	inRow := info.InWidth * c
	pixelStride := info.StrideWidth * c
	walkConv(&info, lo, dst, func(p convPiece) {
		rows, taps := p.fyHi-p.fyLo, p.fxHi-p.fxLo
		count, n := p.span(c)
		for i := 0; i < count; i++ {
			if rows == 0 || taps == 0 {
				pixel(p.dst[i*n:(i+1)*n], nil, 0, 0, 0, 0) // a window wholly in the padding
				continue
			}
			pixel(p.dst[i*n:(i+1)*n], x[p.in+i*pixelStride+p.cLo:], inRow, c, rows, taps)
		}
	})
}

// reach returns the output positions [lo, hi) of one axis whose windows —
// taps o·stride − pad + f·dilation, f < filter — reach an input coordinate
// in [inLo, inHi), inHi > inLo: the output rows an input gradient visits
// for a range of its input rows.
func reach(inLo, inHi, stride, pad, dilation, filter, outSize int) (lo, hi int) {
	if n := inLo + pad - (filter-1)*dilation; n > 0 {
		lo = (n + stride - 1) / stride
	}
	hi = min(outSize, (inHi-1+pad)/stride+1)
	return lo, max(lo, hi)
}

// scatter is the walk of an input gradient, whose range [lo, hi) is of
// dx, laid out as the input: it hands body, in the reference kernels'
// (b, oy, ox) order, the pieces — whole pixels (p.pixels ≥ 1) of one
// output row, p.dst their gradient in dy, taps clipped as walkConv clips
// them — of every output row whose windows reach the range's input rows.
// A body adds into the values inside the range only, so each value takes
// the reference's contributions in the reference's order wherever the
// range is cut; over whole images it is the reference's scatter.
func scatter(info *Conv2DInfo, dy []float32, lo, hi int, body func(convPiece)) {
	inRow := info.InWidth * info.InChannels
	inImg, outRow := info.InHeight*inRow, info.OutWidth*info.OutChannels
	outImg := info.OutHeight * outRow
	for b := lo / inImg; b*inImg < hi; b++ {
		rowLo, rowHi := max(lo-b*inImg, 0)/inRow, (min(hi-b*inImg, inImg)+inRow-1)/inRow
		oyLo, oyHi := reach(rowLo, rowHi, info.StrideHeight, info.PadTop, info.DilationHeight, info.FilterHeight, info.OutHeight)
		at := b*outImg + oyLo*outRow
		walkConv(info, at, dy[at:b*outImg+oyHi*outRow], body)
	}
}

// TransposeFilter lays a convolution's filter w, [fh, fw, inC, outC], out
// in wT as InputGrad reads it, [fh][outC][fw][inC]: a filter row's run of
// taps is contiguous in wT as it is in dx.
func (g Walk) TransposeFilter(w, wT []float32) {
	fH, fW, inC, outC := int(g.fH), int(g.fW), int(g.inC), int(g.outC)
	ocStride := fW * inC
	for fy := 0; fy < fH; fy++ {
		for fx := 0; fx < fW; fx++ {
			for ic := 0; ic < inC; ic++ {
				src, dst := ((fy*fW+fx)*inC+ic)*outC, fy*outC*ocStride+fx*inC+ic
				for oc := 0; oc < outC; oc++ {
					wT[dst+oc*ocStride] = w[src+oc]
				}
			}
		}
	}
}

// InputGrad computes the values [lo, lo+len(dst)) of a convolution's input
// gradient, laid out as the input, into dst: dy is the output's gradient,
// wT the filter as TransposeFilter lays it out. Each output position
// scatter hands it lists its nonzero dy once (vec.NZList) — a zero's
// products are left out, as in every product — and each filter row's run
// of in-bounds taps, clipped to the range, is one vec.AxpyN: undilated,
// those taps are contiguous in dx and in wT, whose rows oc lie ocStride
// apart. No two taps of a position reach the same input pixel, so each
// value takes its contributions in the reference's (oy, ox, oc) order.
func (g Walk) InputGrad(dy, wT []float32, lo int, dst []float32) {
	if len(dst) == 0 {
		return
	}
	info := g.info()
	inC, outC := info.InChannels, info.OutChannels
	inRow, ocStride := info.InWidth*inC, info.FilterWidth*inC
	dH, dW := info.DilationHeight, info.DilationWidth
	pixelStride, hi := info.StrideWidth*inC, lo+len(dst)
	clear(dst)
	var nz vec.NZList
	scatter(&info, dy, lo, hi, func(p convPiece) {
		rows, taps := p.fyHi-p.fyLo, p.fxHi-p.fxLo
		if rows == 0 || taps == 0 {
			return // windows wholly in the padding
		}
		run := 1
		if dW == 1 {
			run = taps
		}
		// A pixel's window covers [first, first+span) of dx.
		span := (rows-1)*dH*inRow + ((taps-1)*dW+1)*inC
		for i := 0; i < p.pixels; i++ {
			first := p.in + i*pixelStride
			if first >= hi || first+span <= lo {
				continue
			}
			// A window inside the range adds whole runs, one the range cuts
			// their part inside it.
			cut := first < lo || first+span > hi
			grad, dx := p.dst[i*outC:(i+1)*outC], dst[max(first-lo, 0):]
			for ocLo := 0; ocLo < outC; ocLo += vec.NZCap {
				vals, idx := nz.List(grad[ocLo:min(ocLo+vec.NZCap, outC)], ocLo)
				if len(vals) == 0 {
					continue
				}
				for fy := p.fyLo; fy < p.fyHi; fy++ {
					for fx := p.fxLo; fx < p.fxHi; fx += run {
						at, ws := (fy-p.fyLo)*dH*inRow+(fx-p.fxLo)*dW*inC, wT[fy*outC*ocStride+fx*inC:]
						if !cut {
							vec.AxpyN(dx[at:at+run*inC], vals, idx, ws, ocStride)
						} else if a, e := max(first+at, lo), min(first+at+run*inC, hi); a < e {
							vec.AxpyN(dst[a-lo:e-lo], vals, idx, ws[a-first-at:], ocStride)
						}
					}
				}
			}
		}
	})
}

// DepthwiseInputGrad computes the values [lo, lo+len(dst)) of a depthwise
// convolution's input gradient into dst: dy is the output's gradient, w
// the filter [fh, fw, inC, mult]. Each output position scatter hands it
// adds, per in-bounds tap and input channel in the range, the sum from +0
// of the channel's mult products dy·w — every product, as the forward
// depthwise takes every one — in the reference kernel's order.
func (g Walk) DepthwiseInputGrad(dy, w []float32, lo int, dst []float32) {
	if len(dst) == 0 {
		return
	}
	info := g.info()
	inC, outC, mult := info.InChannels, info.OutChannels, info.ChannelMultiplier
	inRow, fW, dH, dW := info.InWidth*inC, info.FilterWidth, info.DilationHeight, info.DilationWidth
	pixelStride, hi := info.StrideWidth*inC, lo+len(dst)
	clear(dst)
	scatter(&info, dy, lo, hi, func(p convPiece) {
		for i := 0; i < p.pixels; i++ {
			grad := p.dst[i*outC : (i+1)*outC]
			for fy := p.fyLo; fy < p.fyHi; fy++ {
				for fx := p.fxLo; fx < p.fxHi; fx++ {
					at := p.in + i*pixelStride + (fy-p.fyLo)*dH*inRow + (fx-p.fxLo)*dW*inC
					tap := w[(fy*fW+fx)*outC:][:outC]
					for ic := max(lo-at, 0); ic < min(hi-at, inC); ic++ {
						var sum float32
						for q := ic * mult; q < (ic+1)*mult; q++ {
							sum += float32(grad[q] * tap[q])
						}
						dst[at+ic-lo] += sum
					}
				}
			}
		}
	})
}

// DepthwiseFilterGrad computes the filter-gradient values
// [lo, lo+len(dst)) of the depthwise convolution g describes over batch
// images — dw [fh, fw, inC, mult] of x NHWC and dy — into dst. Value
// (fy, fx, c) accumulates x[b, iy, ix, c/mult]·dy[b, oy, ox, c] over every
// output position whose tap (fy, fx) lands inside the input, in
// (b, oy, ox) order, a zero x left out: the reference kernel's
// contributions in its order.
func (g Walk) DepthwiseFilterGrad(x, dy []float32, batch, lo int, dst []float32) {
	if len(dst) == 0 {
		return
	}
	info := g.info()
	inC, outC, mult := info.InChannels, info.OutChannels, info.ChannelMultiplier
	inRow, outRow := info.InWidth*inC, info.OutWidth*outC
	fW, dH, dW, sW := info.FilterWidth, info.DilationHeight, info.DilationWidth, info.StrideWidth
	hi := lo + len(dst)
	clear(dst)
	for bb := 0; bb < batch; bb++ {
		for oy := 0; oy < info.OutHeight; oy++ {
			yCorner := oy*info.StrideHeight - info.PadTop
			fyLo, fyHi := TapRange(yCorner, dH, info.FilterHeight, info.InHeight)
			dyRow := (bb*info.OutHeight + oy) * outRow
			for fy := fyLo; fy < fyHi; fy++ {
				xRow := (bb*info.InHeight + yCorner + fy*dH) * inRow
				for fx := 0; fx < fW; fx++ {
					tap := (fy*fW + fx) * outC
					cLo, cHi := max(lo-tap, 0), min(hi-tap, outC)
					if cLo >= cHi {
						continue
					}
					xOff := fx*dW - info.PadLeft
					oxLo, oxHi := outRange(xOff, sW, info.OutWidth, info.InWidth)
					acc := dst[tap+cLo-lo : tap+cHi-lo]
					for ox := oxLo; ox < oxHi; ox++ {
						xs, dys := x[xRow+(ox*sW+xOff)*inC:], dy[dyRow+ox*outC:]
						for j := range acc {
							if xv := xs[(cLo+j)/mult]; xv != 0 {
								acc[j] += float32(xv * dys[cLo+j])
							}
						}
					}
				}
			}
		}
	}
}

// MaxPoolGrad computes the values [lo, lo+len(dst)) of a max pool's input
// gradient, laid out as x, into dst: each output position scatter hands it
// routes its dy, per channel, to the first maximum of its window clipped
// to the input (to nothing when no cell exceeds -Inf) — one
// vec.PoolMaxGrad for a window inside the range, the same rule channel by
// channel for one the range cuts, adding only inside the range.
func (g Walk) MaxPoolGrad(x, dy []float32, lo int, dst []float32) {
	if len(dst) == 0 {
		return
	}
	info := g.info()
	c := info.InChannels
	inRow, pixelStride, hi := info.InWidth*c, info.StrideWidth*c, lo+len(dst)
	clear(dst)
	scatter(&info, dy, lo, hi, func(p convPiece) {
		rows, taps := p.fyHi-p.fyLo, p.fxHi-p.fxLo
		if rows == 0 || taps == 0 {
			return
		}
		span := (rows-1)*inRow + taps*c
		for i := 0; i < p.pixels; i++ {
			first, grad := p.in+i*pixelStride, p.dst[i*c:(i+1)*c]
			switch {
			case first >= hi || first+span <= lo:
			case lo <= first && first+span <= hi:
				vec.PoolMaxGrad(dst[first-lo:], x[first:], grad, inRow, c, rows, taps)
			default:
				for ch, dv := range grad {
					best, bestAt := float32(math.Inf(-1)), -1
					for r := 0; r < rows; r++ {
						for t := 0; t < taps; t++ {
							if at := first + r*inRow + t*c + ch; x[at] > best {
								best, bestAt = x[at], at
							}
						}
					}
					if lo <= bestAt && bestAt < hi {
						dst[bestAt-lo] += dv
					}
				}
			}
		}
	})
}

// AvgPoolGrad computes the values [lo, lo+len(dst)) of an average pool's
// input gradient into dst: each output position scatter hands it shares
// its dy, per channel, among the rows·taps cells of its window inside the
// input, dy/cells added to each cell in the range.
func (g Walk) AvgPoolGrad(dy []float32, lo int, dst []float32) {
	if len(dst) == 0 {
		return
	}
	info := g.info()
	c := info.InChannels
	inRow, pixelStride, hi := info.InWidth*c, info.StrideWidth*c, lo+len(dst)
	clear(dst)
	scatter(&info, dy, lo, hi, func(p convPiece) {
		rows, taps := p.fyHi-p.fyLo, p.fxHi-p.fxLo
		cells := float32(rows * taps)
		for i := 0; i < p.pixels; i++ {
			grad := p.dst[i*c : (i+1)*c]
			for r := 0; r < rows; r++ {
				for t := 0; t < taps; t++ {
					at := p.in + i*pixelStride + r*inRow + t*c
					for ch := max(lo-at, 0); ch < min(hi-at, c); ch++ {
						dst[at+ch-lo] += grad[ch] / cells
					}
				}
			}
		}
	})
}

// FilterGrad computes the filter-gradient values [lo, lo+len(dst)) of the
// convolution g describes over batch images — dw [fh, fw, inC, outC] of x
// NHWC and dy, the output's gradient — into dst: whole filter rows from native's worker
// pool, or a texel range cut anywhere. Row (fy, fx, ic) accumulates
// x[b, iy, ix, ic]·dy[b, oy, ox, :] over every output position whose tap
// (fy, fx) lands inside the input, in (b, oy, ox) order, a zero x left
// out: the reference kernel's contributions in its order. Along one output
// row those x elements sit StrideWidth·inC apart and the dy rows are
// contiguous, so a row's share of (b, oy) is one vec.GemmRow with the x
// elements as the strided lhs (over the row's columns in range) — or, when
// a row is one or two vector steps, one vec.AxpyRows for the whole rows of
// the tap's input channels, which share that run of dy. (b, oy) outermost
// keeps one dy row and the range's rows in L1 while every filter row takes
// its share of them.
func (g Walk) FilterGrad(x, dy []float32, batch, lo int, dst []float32) {
	if len(dst) == 0 {
		return
	}
	info := g.info()
	inC, outC := info.InChannels, info.OutChannels
	inRow := info.InWidth * inC
	inImg, outRow := info.InHeight*inRow, info.OutWidth*outC
	outImg := info.OutHeight * outRow
	fW, dH, dW, sW := info.FilterWidth, info.DilationHeight, info.DilationWidth, info.StrideWidth
	aStride, narrow := sW*inC, vec.NarrowRow(outC)
	hi := lo + len(dst)
	// The rows the range touches, [rLo, rHi), and the whole ones, [wLo, wHi).
	rLo, rHi, wLo, wHi := lo/outC, (hi+outC-1)/outC, (lo+outC-1)/outC, hi/outC
	clear(dst)
	var nz vec.NZList
	for bb := 0; bb < batch; bb++ {
		for oy := 0; oy < info.OutHeight; oy++ {
			yCorner := oy*info.StrideHeight - info.PadTop
			fyLo, fyHi := TapRange(yCorner, dH, info.FilterHeight, info.InHeight)
			for fy := fyLo; fy < fyHi; fy++ {
				xRow := bb*inImg + (yCorner+fy*dH)*inRow
				for fx := 0; fx < fW; fx++ {
					tapRow := (fy*fW + fx) * inC
					icLo, icHi := max(rLo-tapRow, 0), min(rHi-tapRow, inC)
					xOff := fx*dW - info.PadLeft
					oxLo, oxHi := outRange(xOff, sW, info.OutWidth, info.InWidth)
					if icLo >= icHi || oxLo == oxHi {
						continue
					}
					span := (oxHi-oxLo-1)*aStride + 1
					xBase := xRow + (oxLo*sW+xOff)*inC
					dyBase := bb*outImg + oy*outRow + oxLo*outC
					dyRun := dy[dyBase : dyBase+(oxHi-oxLo)*outC]
					wholeLo, wholeHi := max(icLo, wLo-tapRow), min(icHi, wHi-tapRow)
					for ic := icLo; ic < icHi; ic++ {
						r := tapRow + ic
						if narrow && ic == wholeLo && wholeLo < wholeHi {
							vec.AxpyRows(dst[r*outC-lo:(tapRow+wholeHi)*outC-lo], outC, x[xBase+ic:], 1, aStride, oxHi-oxLo, dyRun)
							ic = wholeHi - 1
							continue
						}
						c0, c1 := max(lo-r*outC, 0), min(hi-r*outC, outC)
						vec.GemmRow(dst[r*outC+c0-lo:r*outC+c1-lo], x[xBase+ic:xBase+ic+span], aStride, dyRun[c0:], outC, &nz)
					}
				}
			}
		}
	}
}

// outRange returns the output positions [lo, hi) whose input coordinate
// o*stride + offset lies inside [0, size): the transpose of TapRange, for a
// fixed filter tap instead of a fixed output position.
func outRange(offset, stride, outSize, size int) (lo, hi int) {
	if offset < 0 {
		lo = (-offset + stride - 1) / stride
	}
	if size > offset {
		hi = min(outSize, (size-offset+stride-1)/stride)
	}
	return lo, max(lo, hi)
}

// Epilogue is a fused kernel's tail on the host backends: the optional
// per-channel bias, then the activation Act (nil: none), an element-wise
// table entry's function — ReLU and ReLU6 in the vector core's own loop
// (its Kind), any other per value. The zero value does nothing; the
// reference kernels' applyEpilogue is its oracle.
type Epilogue struct {
	// Bias is nil, or one value per output channel; the walk cuts a longer
	// slice (a bias texture's host slice runs to its last texel) to that.
	Bias []float32
	Act  func(float32) float32
	Kind vec.Act
}

// FusedInputs admits a convolution's or matmul's two operands, or on a
// fused kernel a third, the bias.
func FusedInputs(name string, inputs []Input, fused bool) error {
	if len(inputs) == 2 || (fused && len(inputs) == 3) {
		return nil
	}
	want := "2"
	if fused {
		want = "2 or 3"
	}
	return errIn(name, "got %d inputs, want %s", len(inputs), want)
}

// FusedTail resolves the epilogue of kernel name with outC output
// channels: the activation attribute (none on an unfused kernel), after
// checking the optional bias operand inputs[2], whose values a range body
// takes from its input buffers (Epilogue.Biased).
func FusedTail(name string, inputs []Input, attrs Attrs, outC int) (Epilogue, error) {
	var ep Epilogue
	if len(inputs) == 3 {
		if s := inputs[2].Shape; len(s) != 1 || s[0] != outC {
			return ep, fmt.Errorf("%s: bias must have shape [%d], got %v", name, outC, s)
		}
	}
	actName := attrs.Activation
	op, ok := Activation(actName)
	if !ok {
		return ep, fmt.Errorf("%s: unknown activation %q", name, actName)
	}
	if op != nil {
		ep.Act, ep.Kind = op.Unary, op.Kind
	}
	return ep, nil
}

// Biased is e with a fused kernel's bias, its third input buffer, if the
// call has one.
func (e Epilogue) Biased(in [][]float32) Epilogue {
	if len(in) > 2 {
		e.Bias = in[2]
	}
	return e
}

// Apply adds the bias to, and applies the activation to, output values
// from channel cLo on: part of one pixel or matrix row, or — from channel
// 0 — a run of whole pixels, along which the bias repeats. The bias and a
// ReLU-family activation are one vec.BiasAct over all of dst.
func (e Epilogue) Apply(dst []float32, cLo int) {
	vec.BiasAct(dst, e.biasFrom(cLo, len(dst)), e.Kind)
	e.applyClosure(dst)
}

// biasFrom is the bias of the n output values from channel cLo: nil, the
// channels [cLo, cLo+n), or — when the values run past the last channel,
// as whole pixels do — the whole row.
func (e Epilogue) biasFrom(cLo, n int) []float32 {
	if e.Bias == nil {
		return nil
	}
	return e.Bias[cLo:min(len(e.Bias), cLo+n)]
}

// applyClosure applies an activation the vector cores do not have, value
// by value.
func (e Epilogue) applyClosure(dst []float32) {
	if e.Kind == vec.ActNone && e.Act != nil {
		for i, v := range dst {
			dst[i] = e.Act(v)
		}
	}
}
