package kernels

import (
	"fmt"

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
// (TestForwardKernelsBitIdenticalToReference).

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

// info unpacks the geometry (BatchSize left 0: no body reads it).
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

// PoolGrad routes a max pool's output gradient back into dx, laid out as
// x: dy holds the gradient of the output values [lo, lo+len(dy)), and each
// pixel's goes through vec.PoolMaxGrad to the first maximum of its window
// clipped to the input. Overlapping windows add into the same cell of dx
// in output order, so a caller splits the output only between images.
func (g Walk) PoolGrad(x, dx []float32, lo int, dy []float32) {
	info := g.info()
	c := info.InChannels
	inRow := info.InWidth * c
	pixelStride := info.StrideWidth * c
	walkConv(&info, lo, dy, func(p convPiece) {
		if rows, taps := p.fyHi-p.fyLo, p.fxHi-p.fxLo; rows > 0 && taps > 0 {
			count, n := p.span(c)
			for i := 0; i < count; i++ {
				at := p.in + i*pixelStride + p.cLo
				vec.PoolMaxGrad(dx[at:], x[at:], p.dst[i*n:(i+1)*n], inRow, c, rows, taps)
			}
		}
	})
}

// InputGrad scatters a convolution's output gradient back into dx, laid
// out as the input: dy holds the gradient of the output values
// [lo, lo+len(dy)), wT the filter transposed to [fy][oc][fx][ic]. A pixel's
// nonzero dy elements are listed once (vec.NZList) — a zero's products are
// left out, as in every product — and each filter row's run of in-bounds
// taps is one vec.AxpyN: undilated, those taps are contiguous in dx and in
// wT, whose rows oc lie ocStride apart. No two taps of a pixel reach the
// same input pixel, so each dx element takes its contributions in (oy, ox,
// oc) order; the pixels of an image add into the same dx, so a caller
// splits the output only between images.
func (g Walk) InputGrad(wT, dx []float32, lo int, dy []float32) {
	info := g.info()
	inC, outC := info.InChannels, info.OutChannels
	inRow, ocStride := info.InWidth*inC, info.FilterWidth*inC
	dH, dW := info.DilationHeight, info.DilationWidth
	pixelStride := info.StrideWidth * inC
	var nz vec.NZList
	walkConv(&info, lo, dy, func(p convPiece) {
		run := 1
		if dW == 1 {
			run = p.fxHi - p.fxLo
		}
		count, n := p.span(outC)
		for i := 0; i < count; i++ {
			grad := p.dst[i*n : (i+1)*n]
			for ocLo := 0; ocLo < n; ocLo += vec.NZCap {
				vals, idx := nz.List(grad[ocLo:min(ocLo+vec.NZCap, n)], p.cLo+ocLo)
				if len(vals) == 0 {
					continue
				}
				for fy := p.fyLo; fy < p.fyHi; fy++ {
					for fx := p.fxLo; fx < p.fxHi; fx += run {
						at := p.in + i*pixelStride + (fy-p.fyLo)*dH*inRow + (fx-p.fxLo)*dW*inC
						vec.AxpyN(dx[at:at+run*inC], vals, idx, wT[fy*outC*ocStride+fx*inC:], ocStride)
					}
				}
			}
		}
	})
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
	return fmt.Errorf("%s: got %d inputs, want %s", name, len(inputs), want)
}

// FusedTail resolves the epilogue of kernel name with outC output
// channels: the activation attribute (none on an unfused kernel), and the
// optional bias operand inputs[2], whose values bias reads — or, when bias
// is nil, the caller sets as Bias itself.
func FusedTail(name string, inputs []Input, attrs Attrs, outC int, bias func(Input) []float32) (Epilogue, error) {
	var ep Epilogue
	if len(inputs) == 3 {
		if s := inputs[2].Shape; len(s) != 1 || s[0] != outC {
			return ep, fmt.Errorf("%s: bias must have shape [%d], got %v", name, outC, s)
		}
		if bias != nil {
			ep.Bias = bias(inputs[2])
		}
	}
	actName := attrs.String("activation", "")
	op, ok := Activation(actName)
	if !ok {
		return ep, fmt.Errorf("%s: unknown activation %q", name, actName)
	}
	if op != nil {
		ep.Act, ep.Kind = op.Unary, op.Kind
	}
	return ep, nil
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
