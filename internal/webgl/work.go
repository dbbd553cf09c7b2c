package webgl

import (
	"repro/internal/glsim"
	"repro/internal/kernels"
)

// This file is the backend's half of the device's timing model: the work
// each program declares per dispatch, as closed forms of shapes already
// computed at dispatch time. The counts describe the shader the program
// stands for — one fetch per texture sample, one ALU operation per
// arithmetic instruction, a div/mod pair per decoded coordinate — not the
// Go loop that evaluates it, so rewriting a program's body changes no
// modelled number. Data-dependent branches are charged as taken.

const (
	// aluDecode is one coordinate of getOutputCoords(): a div and a mod.
	aluDecode = 2
	// aluTerm is one term of a compiled sampler: div, mod, multiply-add.
	aluTerm = 3
	// aluMAC is a multiply and an add.
	aluMAC = 2
)

// perValue is the work of a program that spends the same fetches and ALU
// operations on each of n output values.
func perValue(n, fetches, alu int) glsim.Work {
	return glsim.Work{Fetches: int64(n) * int64(fetches), ALU: int64(n) * int64(alu)}
}

// samplerTerms is the number of index terms the shader compiler emits to
// read an operand of shape inShape from a program whose output has shape
// outShape (compileSampler's kept dimensions, without compiling anything):
// with squeezing only the operand's own non-degenerate dimensions decode,
// without it every output dimension does.
func samplerTerms(inShape, outShape []int, squeeze bool) int {
	if !squeeze {
		return len(outShape)
	}
	terms := 0
	for _, d := range inShape {
		if d != 1 {
			terms++
		}
	}
	return terms
}

// termCount totals samplerTerms over a program's sampled operands.
func (b *Backend) termCount(outShape []int, inShapes ...[]int) int {
	terms := 0
	for _, in := range inShapes {
		terms += samplerTerms(in, outShape, b.cfg.SqueezeLogicalShapes)
	}
	return terms
}

// windowTaps counts the (out, f) pairs of one spatial axis whose input
// coordinate out*stride - pad + f*dilation lies inside [0, in): the taps a
// forward window program keeps after clipping by padding.
func windowTaps(in, out, filter, stride, dilation, pad int) int {
	taps := 0
	for o := 0; o < out; o++ {
		corner := o*stride - pad
		for f := 0; f < filter; f++ {
			if i := corner + f*dilation; i >= 0 && i < in {
				taps++
			}
		}
	}
	return taps
}

// convTaps is the number of in-bounds (batch, oy, ox, fy, fx) taps of a
// resolved convolution or pooling window.
func convTaps(info kernels.Conv2DInfo) int {
	return info.BatchSize *
		windowTaps(info.InHeight, info.OutHeight, info.FilterHeight, info.StrideHeight, info.DilationHeight, info.PadTop) *
		windowTaps(info.InWidth, info.OutWidth, info.FilterWidth, info.StrideWidth, info.DilationWidth, info.PadLeft)
}

// gatherTaps counts, along one spatial axis of a backward window program,
// the (in, f) pairs that name an output position — (in + pad - f) is a
// non-negative multiple of stride below out — and, in cells, the total
// number of in-bounds input cells of the windows those pairs name (what a
// pooling gradient rescans per pair).
func gatherTaps(in, out, filter, stride, pad int) (pairs, cells int) {
	for i := 0; i < in; i++ {
		for f := 0; f < filter; f++ {
			num := i + pad - f
			if num < 0 || num%stride != 0 || num/stride >= out {
				continue
			}
			pairs++
			corner := num - pad
			for w := 0; w < filter; w++ {
				if c := corner + w; c >= 0 && c < in {
					cells++
				}
			}
		}
	}
	return pairs, cells
}

// convWork is the work of a (fused) convolution: two fetches and a
// multiply-add per tap per input channel per output channel, an NHWC
// decode per output value, and the epilogue's bias fetch and activation.
func convWork(info kernels.Conv2DInfo, size int, bias, act bool) glsim.Work {
	macs := int64(convTaps(info)) * int64(info.InChannels) * int64(info.OutChannels)
	return addEpilogue(macWork(size, macs, 3), size, bias, act)
}

// depthwiseWork is convWork for a depthwise convolution: one input
// channel per output channel, and one more div/mod to split the output
// channel into (input channel, multiplier index).
func depthwiseWork(info kernels.Conv2DInfo, size int, bias, act bool) glsim.Work {
	macs := int64(convTaps(info)) * int64(info.OutChannels)
	return addEpilogue(macWork(size, macs, 4), size, bias, act)
}

func addEpilogue(w glsim.Work, size int, bias, act bool) glsim.Work {
	if bias {
		w.Fetches += int64(size)
		w.ALU += int64(size)
	}
	if act {
		w.ALU += int64(size)
	}
	return w
}

// packedMatMulWork is the work of the packed matmul shader, whose texel
// computes four consecutive outputs: a texel that lies inside one output
// row fetches A once per k for all its columns (the vec4 trick); a texel
// that straddles a row end falls back to the per-value shader.
//
// Which texels straddle repeats every lcm(4, n) values, so one period is
// walked and multiplied, then the tail: the form is evaluated on the
// dispatching goroutine, where an enqueue may not cost a walk of every
// texel (Section 4.1.1).
func packedMatMulWork(size, n, k int) glsim.Work {
	w := macWork(size, int64(size)*int64(k), 2)
	if size == 0 {
		return w
	}
	// saved counts the A samples per k that the texels of [lo, hi) share.
	saved := func(lo, hi int) (shared int64) {
		for base := lo; base < hi; base += 4 {
			limit := min(4, size-base)
			if base%n+limit <= n {
				shared += int64(limit - 1)
			}
		}
		return shared
	}
	period := 4 * n
	if n%4 == 0 {
		period = n
	} else if n%2 == 0 {
		period = 2 * n
	}
	full := size / period
	shared := saved(full*period, size)
	if full > 0 {
		shared += int64(full) * saved(0, period)
	}
	w.Fetches -= shared * int64(k)
	return w
}

// backpropTaps is the number of (batch, iy, ix, fy, fx) pairs a backward
// window program gathers from, and the number of input cells a pooling
// gradient rescans to re-derive each window's argmax or cell count.
func backpropTaps(info kernels.Conv2DInfo) (pairs, cells int64) {
	pr, cr := gatherTaps(info.InHeight, info.OutHeight, info.FilterHeight, info.StrideHeight, info.PadTop)
	pc, cc := gatherTaps(info.InWidth, info.OutWidth, info.FilterWidth, info.StrideWidth, info.PadLeft)
	return int64(info.BatchSize) * int64(pr) * int64(pc), int64(info.BatchSize) * int64(cr) * int64(cc)
}

// aluAdamStep is ApplyAdam's arithmetic per value: the two bias-correction
// divides, the learning-rate multiply, the square root, the epsilon add,
// the update's divide and the subtract (three fetches: x, m and v).
const aluAdamStep = 7

// adamMomentsWork is the work of AdamMoments over the 2n-value slot of an
// n-value variable: every value fetches its old moment and the gradient
// and compares its index against n to learn which moment it is; a first
// moment is then two multiplies and an add, a second moment squares the
// gradient first.
func adamMomentsWork(n int) glsim.Work {
	return glsim.Work{Fetches: 4 * int64(n), ALU: int64(n)*(1+3) + int64(n)*(1+4)}
}

// macWork is the work of size output values that together perform macs
// multiply-adds (two fetches each) behind a decode of decodeDims div/mods.
func macWork(size int, macs int64, decodeDims int) glsim.Work {
	return glsim.Work{Fetches: 2 * macs, ALU: aluMAC*macs + int64(size)*int64(decodeDims)*aluDecode}
}
