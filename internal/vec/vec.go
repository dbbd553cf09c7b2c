// Package vec holds the vector cores: the row loops that carry a model's
// host time on every backend that computes on the host — the dense row
// update under GEMM and convolution (dense for one row, zero-skipping for
// several narrow ones), the depthwise pixel, the bias+activation epilogue,
// the pooling pixel (max, average, and the
// max pool's gradient) and the ReLU family — each written once, here.
// native's kernels and the WebGL simulator's shader programs call them; a
// second copy of one of these loops in a backend is a fork (CI greps for
// it).
//
// All but the ReLU family have an AVX2 body in vec_amd64.s and the pure-Go
// body below. The Go bodies are always compiled: they are the oracle the
// differential tests hold the assembly to, and what runs on a CPU without
// AVX2 or off amd64. The ReLU family is Go only: it selects on the bit
// pattern, which the compiler already turns into conditional moves.
//
// The assembly is bit-identical to the Go bodies, not merely close: one
// SIMD lane per output element, a separate multiply and add per step (no
// FMA, which would skip the product's rounding), the same order over k or
// over filter taps, and compares whose operand order reproduces the Go
// branch on NaN and on ±0 ties. So the backends' bit-identity contracts — across
// worker counts, pooled vs unpooled, fused vs unfused, goldens recorded on
// scalar loops — hold with the cores on or off and need no tolerance. The
// one thing not pinned is which payload survives when two NaNs meet in an
// add or multiply: that follows operand order, which the Go compiler is
// free to choose in the scalar bodies.
package vec

import "math"

// useAVX2 selects the assembly cores. Set once at init from CPUID; only
// tests ever flip it (ForceScalar), to compare the two bodies.
var useAVX2 = hasAVX2()

// ForceScalar turns the AVX2 bodies off until restore is called, for the
// tests that compare whole models across the two bodies; forced is false
// when they were off already (no AVX2 on this CPU) and there is nothing to
// compare. Tests only — CI fails on a call from a non-test file — and only
// while no kernel is running.
func ForceScalar() (restore func(), forced bool) {
	was := useAVX2
	useAVX2 = false
	return func() { useAVX2 = was }, was
}

// Act is an activation BiasAct applies in its own loop.
type Act int

const (
	ActNone  Act = iota
	ActRelu      // v > 0 ? v : 0 — NaN and -0 become +0
	ActRelu6     // v < 0 ? 0 : v > 6 ? 6 : v — NaN and -0 pass through
)

// AxpyN accumulates a run of row updates:
//
//	row[j] += vals[t] * b[offs[t]+j]
//
// t ascending; offs ascends. It is dense — a zero in vals is multiplied
// like any other value, so 0·Inf puts a NaN in the sum; a caller that wants
// zeros skipped (native's gemmRow) leaves them out of vals. The assembly
// consumes the entries four at a time: the row is loaded and stored once
// per four steps, and each element still sees its adds one at a time in t
// order.
func AxpyN(row, vals []float32, offs []int, b []float32) {
	if len(vals) == 0 || len(row) == 0 {
		return
	}
	offs = offs[:len(vals)]
	_ = b[offs[len(offs)-1]+len(row)-1]
	if useAVX2 {
		axpyNAVX2(row, vals, offs, b)
		return
	}
	// The float32 conversions around each product, here and below, forbid
	// the compiler from fusing it into the add (the spec allows x*y+z to
	// round once; arm64 and GOAMD64=v3 builds do), so every platform rounds
	// the way the AVX2 bodies do.
	for t, av := range vals {
		for j, bv := range b[offs[t] : offs[t]+len(row)] {
			row[j] += float32(av * bv)
		}
	}
}

// AxpyRows accumulates a small product into len(acc)/n output rows of n
// floats, leaving out the zeros of its lhs:
//
//	acc[i*n+j] += a[i*iStride+t*tStride] * b[t*n+j]   where a[…] != 0
//
// t ascending over k steps for every row i. It is native's product for
// rows of one or two vector steps, where gathering each row's nonzero lhs
// into a list for AxpyN costs more than the arithmetic: several pixels of
// a convolution (iStride the distance between their windows, tStride 1),
// or the filter-gradient rows of several input channels (iStride 1,
// tStride the distance between output positions). A zero lhs element is
// skipped, not multiplied — 0·Inf stays out of the sum — which the
// assembly does without a branch: it multiplies, then selects -0 in place
// of the product, and adding -0 changes no float. Four rows advance
// together, so their add chains overlap.
func AxpyRows(acc []float32, n int, a []float32, iStride, tStride, k int, b []float32) {
	if n <= 0 || k <= 0 || len(acc) < n {
		return
	}
	rows := len(acc) / n
	acc = acc[:rows*n]
	_, _ = a[(rows-1)*iStride+(k-1)*tStride], b[k*n-1]
	if useAVX2 && n%8 == 0 {
		axpyRowsAVX2(acc, n, a, iStride, tStride, k, b)
		return
	}
	for i := 0; i < rows; i++ {
		row := acc[i*n : (i+1)*n]
		for t := 0; t < k; t++ {
			av := a[i*iStride+t*tStride]
			if av == 0 {
				continue
			}
			for j, bv := range b[t*n : (t+1)*n] {
				row[j] += float32(av * bv)
			}
		}
	}
}

// DwPixel accumulates one output pixel of a depthwise convolution with
// channel multiplier 1 over a rows×taps rectangle of filter taps (the
// part of the filter that lies inside the input), c = len(dst) channels:
//
//	dst[ch] += x[r*xRowStride + t*xTapStride + ch] * w[r*wRowStride + t*c + ch]
//
// r then t ascending. x and w start at the rectangle's first tap. The
// assembly keeps eight channels of dst in a register across all the taps.
func DwPixel(dst, x, w []float32, xRowStride, xTapStride, wRowStride, rows, taps int) {
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

// The pooling pixels work on one output position of an NHWC pool: the
// rows×taps rectangle of input pixels its window covers inside the input,
// c channels each, the rectangle's first pixel at x[0], the next tap
// tapStride floats on and the next row rowStride. The channel run is the
// inner loop, so every tap is one contiguous load per eight channels.

// windowEnd is one past the last float a rows×taps window of c-channel
// pixels touches.
func windowEnd(c, rowStride, tapStride, rows, taps int) int {
	return (rows-1)*rowStride + (taps-1)*tapStride + c
}

// PoolMax is a max pool's output pixel: dst[ch] is the running maximum
// that starts at -Inf and takes each v = x[r*rowStride+t*tapStride+ch], r
// then t ascending, for which v > maximum. So a NaN never wins, of two
// equal zeros the first stays, and an all-NaN or empty window reads -Inf.
func PoolMax(dst, x []float32, rowStride, tapStride, rows, taps int) {
	c := len(dst)
	if c == 0 {
		return
	}
	if rows > 0 && taps > 0 {
		_ = x[windowEnd(c, rowStride, tapStride, rows, taps)-1]
		if useAVX2 {
			poolMaxAVX2(dst, x, rowStride, tapStride, rows, taps)
			return
		}
	} else {
		rows = 0
	}
	negInf := float32(math.Inf(-1))
	for ch := range dst {
		dst[ch] = negInf
	}
	for r := 0; r < rows; r++ {
		for t := 0; t < taps; t++ {
			for ch, v := range x[r*rowStride+t*tapStride:][:c] {
				if v > dst[ch] {
					dst[ch] = v
				}
			}
		}
	}
}

// PoolAvg is an average pool's output pixel: the window's values added
// to +0 one at a time, r then t ascending, and the sum divided by the
// rows·taps cells the window has inside the input. An empty window reads 0.
func PoolAvg(dst, x []float32, rowStride, tapStride, rows, taps int) {
	c := len(dst)
	if c == 0 {
		return
	}
	if rows <= 0 || taps <= 0 {
		clear(dst)
		return
	}
	_ = x[windowEnd(c, rowStride, tapStride, rows, taps)-1]
	if useAVX2 {
		poolAvgAVX2(dst, x, rowStride, tapStride, rows, taps)
		return
	}
	clear(dst)
	for r := 0; r < rows; r++ {
		for t := 0; t < taps; t++ {
			for ch, v := range x[r*rowStride+t*tapStride:][:c] {
				dst[ch] += v
			}
		}
	}
	n := float32(rows * taps)
	for ch := range dst {
		dst[ch] /= n
	}
}

// PoolMaxGrad routes one output pixel's gradient dy (c = len(dy)
// channels) back through a max pool: per channel, dy[ch] is added to dx at
// the window's first maximum — the tap PoolMax's comparison would have
// kept — and to nothing when no tap exceeds -Inf. dx is laid out as x is
// and starts at the same pixel. The assembly finds the winning tap of
// eight channels with a compare and two blends per tap, then walks the
// taps again and stores dx+dy where the tap won and dx unchanged elsewhere:
// a select, not a multiply or an add of zero, so a NaN or Inf in dy reaches
// only the winner and a -0 already in dx survives.
func PoolMaxGrad(dx, x, dy []float32, rowStride, tapStride, rows, taps int) {
	c := len(dy)
	if c == 0 || rows <= 0 || taps <= 0 {
		return
	}
	end := windowEnd(c, rowStride, tapStride, rows, taps)
	_, _ = x[end-1], dx[end-1]
	if useAVX2 {
		poolMaxGradAVX2(dx, x, dy, rowStride, tapStride, rows, taps)
		return
	}
	for ch, g := range dy {
		best, bestAt := float32(math.Inf(-1)), -1
		for r := 0; r < rows; r++ {
			for t := 0; t < taps; t++ {
				at := r*rowStride + t*tapStride + ch
				if v := x[at]; v > best {
					best, bestAt = v, at
				}
			}
		}
		if bestAt >= 0 {
			dx[bestAt] += g
		}
	}
}

// BiasAct computes dst[i] = act(dst[i] + bias[i]); a nil bias skips the
// add. Only the with-bias form has an assembly body: adding a zero vector
// instead would turn -0 into +0.
func BiasAct(dst, bias []float32, act Act) {
	if bias != nil {
		bias = bias[:len(dst)]
		if useAVX2 {
			biasActAVX2(dst, bias, int(act))
			return
		}
		for i := range dst {
			dst[i] += bias[i]
		}
	}
	switch act {
	case ActRelu:
		Relu(dst, dst)
	case ActRelu6:
		Relu6(dst, dst)
	}
}

// The ReLU family selects on the bit pattern instead of comparing floats:
// a sign test on activations is a coin flip to the branch predictor, and
// an integer select compiles to a conditional move. Read as unsigned
// integers, the floats above zero are [1, infBits], those below
// [signBit+1, signBit+infBits], and a NaN is a magnitude past infBits — so
// each test is one subtract or shift and one unsigned compare. dst and x
// have the same length and may be the same slice.
const (
	signBit = 1 << 31
	infBits = 0x7f800000
	sixBits = 0x40c00000 // float32(6)
	oneBits = 0x3f800000 // float32(1)
)

// maskIf is all ones when cond holds, else zero; inlined, it is a
// conditional move.
func maskIf(cond bool) uint32 {
	if cond {
		return ^uint32(0)
	}
	return 0
}

// Relu is dst[i] = x[i] > 0 ? x[i] : 0, so NaN and -0 become +0.
func Relu(dst, x []float32) {
	dst = dst[:len(x)]
	for i, v := range x {
		bits := math.Float32bits(v)
		dst[i] = math.Float32frombits(bits & maskIf(bits-1 < infBits))
	}
}

// Relu6 is dst[i] = x[i] < 0 ? 0 : x[i] > 6 ? 6 : x[i], so NaN and -0
// pass through.
func Relu6(dst, x []float32) {
	dst = dst[:len(x)]
	for i, v := range x {
		bits := math.Float32bits(v)
		below := maskIf(bits-(signBit+1) < infBits)
		above := maskIf(bits-(sixBits+1) < infBits-sixBits)
		dst[i] = math.Float32frombits(bits&^(below|above) | sixBits&above)
	}
}

// Step is dst[i] = x[i] > 0 ? 1 : alpha, and a NaN passes through: the
// ReLU gradient's mask.
func Step(dst, x []float32, alpha float32) {
	dst = dst[:len(x)]
	alphaBits := math.Float32bits(alpha)
	for i, v := range x {
		bits := math.Float32bits(v)
		above := maskIf(bits-1 < infBits)
		nan := maskIf(bits<<1 > infBits<<1)
		dst[i] = math.Float32frombits(alphaBits&^(above|nan) | oneBits&above | bits&nan)
	}
}
