package native

// The vector cores: the three inner loops that carry MobileNet's execute
// time — the GEMM/conv row update, the depthwise pixel, the
// bias+activation epilogue — each with an AVX2 body in vec_amd64.s and
// the pure-Go body below. The Go bodies are always compiled: they are the
// oracle the differential tests hold the assembly to, and what runs on a
// CPU without AVX2 or off amd64.
//
// The assembly is bit-identical to the Go bodies, not merely close: one
// SIMD lane per output element, a separate multiply and add per step (no
// FMA, which would skip the product's rounding), and the same order over
// k or over filter taps. So the backend's bit-identity contracts — across
// worker counts, pooled vs unpooled, fused vs unfused — hold with the
// cores on or off and need no tolerance. The one thing not pinned is which
// payload survives when two NaNs meet in an add or multiply: that follows
// operand order, which the Go compiler is free to choose in the scalar
// bodies.

// useAVX2 selects the assembly cores. Set once at init from CPUID; only
// the in-package tests ever flip it, to compare the two bodies.
var useAVX2 = hasAVX2()

// actKind is a fused activation resolved from its attribute string once
// per kernel call, so the per-pixel epilogue switches on an integer.
type actKind int

const (
	actNone  actKind = iota
	actRelu          // v > 0 ? v : 0 — NaN and -0 become +0
	actRelu6         // v < 0 ? 0 : v > 6 ? 6 : v — NaN and -0 pass through
	actFunc          // any other activation: a scalar function per element
)

// gemmRow accumulates one output row of a matrix product:
// row[j] += a[kk*aStride] * b[kk*len(row)+j], kk ascending over the
// ⌈len(a)/aStride⌉ lhs elements, skipping those that are zero (half of
// them after a relu-family epilogue; a skipped 0·Inf also stays out of
// the sum, as it always has on this backend).
//
// The assembly takes the nonzero elements compacted into a short list —
// the compaction compiles to conditional moves, so a random sparsity
// pattern costs no branch mispredictions — and consumes them four at a
// time: the row is loaded and stored once per four k steps, and each
// element still sees its adds one at a time in k order.
func gemmRow(row, a []float32, aStride int, b []float32) {
	if !useAVX2 {
		gemmRowGo(row, a, aStride, b)
		return
	}
	n := len(row)
	k := (len(a) + aStride - 1) / aStride
	_ = b[:k*n] // every offset handed to the assembly is at most (k-1)*n
	var vals [nzCap]float32
	var offs [nzCap]int
	p := 0
	for ai, off := 0, 0; ai < len(a); ai, off = ai+aStride, off+n {
		av := a[ai]
		vals[p], offs[p] = av, off
		if av != 0 {
			p++
		}
		if p == nzCap {
			axpyNAVX2(row, vals[:], offs[:], b)
			p = 0
		}
	}
	if p > 0 {
		axpyNAVX2(row, vals[:p], offs[:p], b)
	}
}

// axpyN is the step under gemmRow, for a caller that gathers the nonzero
// lhs elements itself (to reuse one gather across several rows):
// row[j] += vals[t] * b[offs[t]+j], t ascending; offs ascends.
func axpyN(row, vals []float32, offs []int, b []float32) {
	if len(vals) == 0 || len(row) == 0 {
		return
	}
	offs = offs[:len(vals)]
	_ = b[offs[len(offs)-1]+len(row)-1]
	if useAVX2 {
		axpyNAVX2(row, vals, offs, b)
		return
	}
	for t, av := range vals {
		for j, bv := range b[offs[t] : offs[t]+len(row)] {
			row[j] += float32(av * bv)
		}
	}
}

// nzCap is how many nonzero lhs elements gemmRow gathers before handing
// them to the assembly: a multiple of its four-wide step, small enough
// that zeroing the two stack arrays per call is noise.
const nzCap = 32

// dwPixel accumulates one output pixel of a depthwise convolution with
// channel multiplier 1 over a rows×taps rectangle of filter taps (the
// part of the filter that lies inside the input), c = len(dst) channels:
//
//	dst[ch] += x[r*xRowStride + t*xTapStride + ch] * w[r*wRowStride + t*c + ch]
//
// r then t ascending. x and w start at the rectangle's first tap. The
// assembly keeps eight channels of dst in a register across all the taps.
func dwPixel(dst, x, w []float32, xRowStride, xTapStride, wRowStride, rows, taps int) {
	c := len(dst)
	if c == 0 || rows <= 0 || taps <= 0 {
		return
	}
	_ = x[(rows-1)*xRowStride+(taps-1)*xTapStride+c-1]
	_ = w[(rows-1)*wRowStride+(taps-1)*c+c-1]
	if useAVX2 {
		dwPixelAVX2(dst, x, w, xRowStride, xTapStride, wRowStride, rows, taps)
		return
	}
	dwPixelGo(dst, x, w, xRowStride, xTapStride, wRowStride, rows, taps)
}

// biasAct computes dst[i] = act(dst[i] + bias[i]) for kind none, relu or
// relu6; a nil bias skips the add. Only the with-bias form has an
// assembly body: adding a zero vector instead would turn -0 into +0.
func biasAct(dst, bias []float32, kind actKind) {
	if useAVX2 && bias != nil {
		biasActAVX2(dst, bias[:len(dst)], int(kind))
		return
	}
	biasActGo(dst, bias, kind)
}

// The float32 conversions around each product forbid the compiler from
// fusing it into the add (the spec allows x*y+z to round once; arm64 and
// GOAMD64=v3 builds do), so every platform rounds the way the AVX2 bodies
// do.

func gemmRowGo(row, a []float32, aStride int, b []float32) {
	n := len(row)
	for ai, off := 0, 0; ai < len(a); ai, off = ai+aStride, off+n {
		av := a[ai]
		if av == 0 {
			continue
		}
		for j, bv := range b[off : off+n] {
			row[j] += float32(av * bv)
		}
	}
}

func dwPixelGo(dst, x, w []float32, xRowStride, xTapStride, wRowStride, rows, taps int) {
	c := len(dst)
	for r := 0; r < rows; r++ {
		for t := 0; t < taps; t++ {
			xs := x[r*xRowStride+t*xTapStride:]
			ws := w[r*wRowStride+t*c:]
			for ch := range dst {
				dst[ch] += float32(xs[ch] * ws[ch])
			}
		}
	}
}

func biasActGo(dst, bias []float32, kind actKind) {
	if bias != nil {
		for i := range dst {
			dst[i] += bias[i]
		}
	}
	switch kind {
	case actRelu:
		for i, v := range dst {
			if !(v > 0) {
				dst[i] = 0
			}
		}
	case actRelu6:
		for i, v := range dst {
			if v < 0 {
				dst[i] = 0
			} else if v > 6 {
				dst[i] = 6
			}
		}
	}
}
