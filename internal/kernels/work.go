package kernels

// Work is what one dispatch of a kernel costs the shader it stands for:
// texture fetches and ALU operations — one fetch per texture sample, one
// operation per arithmetic instruction, a div/mod pair per decoded
// coordinate — as closed forms of shapes the kernel's check computes
// anyway, counted for the per-value shader, not for the Go loop that
// evaluates it, so rewriting a body changes no count. Data-dependent
// branches are charged as taken. Webgl's modelled device charges it (the
// clock tf.time() and the paper's ablations read); native sizes its chunks
// from the fetch count, the operand values a kernel reads.
type Work struct{ Fetches, ALU int64 }

const (
	// ALUDecode is one coordinate of getOutputCoords(): a div and a mod.
	ALUDecode = 2
	// ALUTerm is one term of a compiled sampler: div, mod, multiply-add.
	ALUTerm = 3
	// aluMAC is a multiply and an add.
	aluMAC = 2
)

// PerValue is the work of a program that spends the same fetches and ALU
// operations on each of n output values.
func PerValue(n, fetches, alu int) Work {
	return Work{Fetches: int64(n) * int64(fetches), ALU: int64(n) * int64(alu)}
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
func convTaps(info Conv2DInfo) int {
	return info.BatchSize *
		windowTaps(info.InHeight, info.OutHeight, info.FilterHeight, info.StrideHeight, info.DilationHeight, info.PadTop) *
		windowTaps(info.InWidth, info.OutWidth, info.FilterWidth, info.StrideWidth, info.DilationWidth, info.PadLeft)
}

// gatherTaps counts, along one spatial axis of a backward window program,
// the (in, f) pairs that name an output position — (in + pad − f·dilation)
// is a non-negative multiple of stride below out — and, in cells, the
// total number of in-bounds input cells of the windows those pairs name
// (what a pooling gradient rescans per pair).
func gatherTaps(in, out, filter, stride, dilation, pad int) (pairs, cells int) {
	for i := 0; i < in; i++ {
		for f := 0; f < filter; f++ {
			num := i + pad - f*dilation
			if num < 0 || num%stride != 0 || num/stride >= out {
				continue
			}
			pairs++
			corner := num - pad
			for w := 0; w < filter; w++ {
				if c := corner + w*dilation; c >= 0 && c < in {
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
func convWork(info Conv2DInfo, size int, bias, act bool) Work {
	macs := int64(convTaps(info)) * int64(info.InChannels) * int64(info.OutChannels)
	return addEpilogue(macWork(size, macs, 3), size, bias, act)
}

// depthwiseWork is convWork for a depthwise convolution: one input
// channel per output channel, and one more div/mod to split the output
// channel into (input channel, multiplier index).
func depthwiseWork(info Conv2DInfo, size int, bias, act bool) Work {
	macs := int64(convTaps(info)) * int64(info.OutChannels)
	return addEpilogue(macWork(size, macs, 4), size, bias, act)
}

func addEpilogue(w Work, size int, bias, act bool) Work {
	if bias {
		w.Fetches += int64(size)
		w.ALU += int64(size)
	}
	if act {
		w.ALU += int64(size)
	}
	return w
}

// backpropTaps is the number of (batch, iy, ix, fy, fx) pairs a backward
// window program gathers from, and the number of input cells a pooling
// gradient rescans to re-derive each window's argmax or cell count.
func backpropTaps(info Conv2DInfo) (pairs, cells int64) {
	pr, cr := gatherTaps(info.InHeight, info.OutHeight, info.FilterHeight, info.StrideHeight, info.DilationHeight, info.PadTop)
	pc, cc := gatherTaps(info.InWidth, info.OutWidth, info.FilterWidth, info.StrideWidth, info.DilationWidth, info.PadLeft)
	return int64(info.BatchSize) * int64(pr) * int64(pc), int64(info.BatchSize) * int64(cr) * int64(cc)
}

// aluAdamStep is ApplyAdam's arithmetic per value: the two bias-correction
// divides, the learning-rate multiply, the square root, the epsilon add,
// the update's divide and the subtract (three fetches: x, m and v; the
// step's two bias corrections are the program's uniforms, read once).
const aluAdamStep = 7

// adamMomentsWork is the work of AdamMoments over the 2n-value slot of an
// n-value variable: every value fetches its old moment and the gradient
// and compares its index against n to learn which moment it is; a first
// moment is then two multiplies and an add, a second moment squares the
// gradient first.
func adamMomentsWork(n int) Work {
	return Work{Fetches: 4 * int64(n), ALU: int64(n)*(1+3) + int64(n)*(1+4)}
}

// softmaxWork is the work of Softmax over outer rows of inner values: the
// three passes of the real backend's shaders, summed. Per row, the max
// fetches and compares each value, and the exp-sum fetches the max and
// each value, subtracting, exponentiating and adding; per value, the
// normalize decodes its row, fetches the value, the max and the sum,
// subtracts, exponentiates and divides.
func softmaxWork(outer, inner int) Work {
	rows, values := PerValue(outer, 2*inner+1, 4*inner), PerValue(outer*inner, 3, ALUDecode+3)
	return Work{Fetches: rows.Fetches + values.Fetches, ALU: rows.ALU + values.ALU}
}

// macWork is the work of size output values that together perform macs
// multiply-adds (two fetches each) behind a decode of decodeDims div/mods.
func macWork(size int, macs int64, decodeDims int) Work {
	return Work{Fetches: 2 * macs, ALU: aluMAC*macs + int64(size)*int64(decodeDims)*ALUDecode}
}
