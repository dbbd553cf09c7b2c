package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
)

// Differential tests for the vector cores: each AVX2 body against its
// pure-Go body, compared by bit pattern. Two NaNs count as equal whatever
// their payloads (see vec.go: which payload survives NaN∘NaN is operand
// order, which the compiler picks for the Go bodies); everything else —
// rounding, ±0, ±Inf, denormals, where a NaN appears at all — must match
// to the bit.

// vecSpecials are the operand values the cores' edge semantics turn on.
var vecSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.Copysign(0, -1)), 0,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, // denormals
	math.MaxFloat32, -math.MaxFloat32, 3e38, 1.5e30, // products that overflow
	6, -6, 1, -1, 0.1, 5.9999995, 6.0000005,
}

// vecOperand fills n values from a cheap deterministic mix of ordinary
// magnitudes and, about one in four, a special.
func vecOperand(n int, seed uint32) []float32 {
	s := seed*2654435761 + 1
	next := func() uint32 {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		return s
	}
	out := make([]float32, n)
	for i := range out {
		r := next()
		if r%4 == 0 {
			out[i] = vecSpecials[int(r>>8)%len(vecSpecials)]
		} else {
			out[i] = (float32(r>>8)/float32(1<<24) - 0.5) * 16
		}
	}
	return out
}

func requireSameFloats(t testing.TB, label string, got, want []float32) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d: got %g (bits %08x), want %g (bits %08x)",
				label, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// The check functions run one core on both bodies, through its exported
// wrapper, so the wrapper's part of the contract (the bounds it derives,
// BiasAct's nil-bias form) is held to the Go body too.

// onGoBodies runs f with the assembly switched off.
func onGoBodies(f func()) {
	restore, _ := ForceScalar()
	defer restore()
	f()
}

// bothBodies runs a function with the assembly on and with it off.
var bothBodies = map[string]func(func()){"avx2": func(f func()) { f() }, "go": onGoBodies}

func checkAxpyN(t testing.TB, row, vals []float32, idx []int32, b []float32, bStride int) {
	t.Helper()
	got, want := slices.Clone(row), slices.Clone(row)
	AxpyN(got, vals, idx, b, bStride)
	onGoBodies(func() { AxpyN(want, vals, idx, b, bStride) })
	requireSameFloats(t, "AxpyN", got, want)
}

// checkList lists a from base on both bodies and holds both to the
// definition: every element but ±0, NaN included, in order, with its index.
func checkList(t testing.TB, a []float32, base int) {
	t.Helper()
	var wantVals []float32
	var wantIdx []int32
	for i, v := range a {
		if v != 0 {
			wantVals, wantIdx = append(wantVals, v), append(wantIdx, int32(base+i))
		}
	}
	for body, run := range bothBodies {
		var nz NZList
		var vals []float32
		var idx []int32
		run(func() { vals, idx = nz.List(a, base) })
		if len(vals) != len(wantVals) || !slices.Equal(idx, wantIdx) {
			t.Fatalf("List %s len(a)=%d base=%d: %d values at %v, want %d at %v", body, len(a), base, len(vals), idx, len(wantVals), wantIdx)
		}
		for i := range vals {
			if math.Float32bits(vals[i]) != math.Float32bits(wantVals[i]) {
				t.Fatalf("List %s len(a)=%d: value %d is bits %08x, want %08x", body, len(a), i, math.Float32bits(vals[i]), math.Float32bits(wantVals[i]))
			}
		}
	}
}

func checkAxpyRows(t testing.TB, acc []float32, n int, a []float32, iStride, tStride, k int, b []float32) {
	t.Helper()
	got, want := slices.Clone(acc), slices.Clone(acc)
	AxpyRows(got, n, a, iStride, tStride, k, b)
	onGoBodies(func() { AxpyRows(want, n, a, iStride, tStride, k, b) })
	requireSameFloats(t, "AxpyRows", got, want)
}

var acts = map[Act]string{ActNone: "none", ActRelu: "relu", ActRelu6: "relu6"}

// checkDwRun runs DwRun into pixels pixels of len(dst)/pixels channels on
// both bodies, with bias and without, under each activation. dst's values
// are what was there before: the two bodies start from different ones, and
// neither may read them.
func checkDwRun(t testing.TB, dst, x, w, bias []float32, pixels, xPixel, xRow, xTap, wRow, wTap, rows, taps int) {
	t.Helper()
	for act, name := range acts {
		for _, bias := range [][]float32{bias, nil} {
			got, want := slices.Clone(dst), make([]float32, len(dst))
			for i := range want {
				want[i] = float32(i) + 0.5
			}
			DwRun(got, x, w, bias, pixels, xPixel, xRow, xTap, wRow, wTap, rows, taps, act)
			onGoBodies(func() { DwRun(want, x, w, bias, pixels, xPixel, xRow, xTap, wRow, wTap, rows, taps, act) })
			requireSameFloats(t, fmt.Sprintf("DwRun %s pixels=%d rows=%d taps=%d bias=%t", name, pixels, rows, taps, bias != nil), got, want)
		}
	}
}

// checkBiasAct runs BiasAct on both bodies with bias as given, and — when
// it is longer — with its first 1, 3, 8 and 11 values as a row repeated
// along dst.
func checkBiasAct(t testing.TB, dst, bias []float32) {
	t.Helper()
	rows := [][]float32{bias}
	for _, n := range []int{1, 3, 8, 11} {
		if n < len(bias) {
			rows = append(rows, bias[:n])
		}
	}
	for _, bias := range rows {
		for act, name := range acts {
			got, want := slices.Clone(dst), slices.Clone(dst)
			BiasAct(got, bias, act)
			onGoBodies(func() { BiasAct(want, bias, act) })
			requireSameFloats(t, fmt.Sprintf("BiasAct %s len(bias)=%d", name, len(bias)), got, want)
		}
	}
}

func checkPoolPixels(t testing.TB, c int, x []float32, rowStride, tapStride, rows, taps int) {
	t.Helper()
	for name, pool := range map[string]func(dst, x []float32, rowStride, tapStride, rows, taps int){"PoolMax": PoolMax, "PoolAvg": PoolAvg} {
		got, want := make([]float32, c), make([]float32, c)
		pool(got, x, rowStride, tapStride, rows, taps)
		onGoBodies(func() { pool(want, x, rowStride, tapStride, rows, taps) })
		requireSameFloats(t, name, got, want)
	}
}

func checkPoolMaxGrad(t testing.TB, dx, x, dy []float32, rowStride, tapStride, rows, taps int) {
	t.Helper()
	got, want := slices.Clone(dx), slices.Clone(dx)
	PoolMaxGrad(got, x, dy, rowStride, tapStride, rows, taps)
	onGoBodies(func() { PoolMaxGrad(want, x, dy, rowStride, tapStride, rows, taps) })
	requireSameFloats(t, "PoolMaxGrad", got, want)
}

// checkRow runs one element-wise row on both bodies, into a fresh dst and
// in place (dst aliasing x, as BiasAct runs Relu(dst, dst)).
func checkRow(t testing.TB, label string, x []float32, row func(dst, x []float32)) {
	t.Helper()
	got, want := make([]float32, len(x)), make([]float32, len(x))
	row(got, x)
	onGoBodies(func() { row(want, x) })
	requireSameFloats(t, label, got, want)
	inPlace := slices.Clone(x)
	row(inPlace, inPlace)
	requireSameFloats(t, label+" in place", inPlace, want)
}

// checkReluRows runs Relu, Relu6 and Step on both bodies.
func checkReluRows(t testing.TB, x []float32, alpha float32) {
	t.Helper()
	checkRow(t, "Relu", x, Relu)
	checkRow(t, "Relu6", x, Relu6)
	checkRow(t, "Step", x, func(dst, x []float32) { Step(dst, x, alpha) })
}

// checkBatchNorm normalises x against c = len(p)/4 channels of statistics
// p = mean ‖ variance ‖ scale ‖ offset, starting phase channels into a
// pixel, on both bodies.
func checkBatchNorm(t testing.TB, x, p []float32, phase int) {
	t.Helper()
	c := len(p) / 4
	mean, variance, scale, offset := p[:c], p[c:2*c], p[2*c:3*c], p[3*c:4*c]
	checkRow(t, fmt.Sprintf("BatchNorm c=%d phase=%d", c, phase), x, func(dst, x []float32) {
		BatchNorm(dst, x, mean, variance, scale, offset, 1e-3, phase)
	})
}

var binOps = map[BinOp]string{Add: "Add", Sub: "Sub", Mul: "Mul", Div: "Div"}

// checkBinary runs the four binaries on both bodies, a op x into n values,
// and — where a is as long as the output — in place over a.
func checkBinary(t testing.TB, n int, a, x []float32) {
	t.Helper()
	for op, name := range binOps {
		label := fmt.Sprintf("%s n=%d len(a)=%d len(x)=%d", name, n, len(a), len(x))
		got, want := make([]float32, n), make([]float32, n)
		Binary(op, got, a, x)
		onGoBodies(func() { Binary(op, want, a, x) })
		requireSameFloats(t, label, got, want)
		if len(a) == n {
			inPlace := slices.Clone(a)
			Binary(op, inPlace, inPlace, x)
			requireSameFloats(t, label+" in place over a", inPlace, want)
		}
		if len(x) == n {
			inPlace := slices.Clone(x)
			Binary(op, inPlace, a, inPlace)
			requireSameFloats(t, label+" in place over x", inPlace, want)
		}
	}
}

// checkBinaryLayouts runs every layout native's binary kernels pass: the
// same shape, a scalar on either side, and rows of 3, 8 and 16 floats (an
// odd bias, one vector, two) repeated along the other operand on either
// side.
func checkBinaryLayouts(t testing.TB, a, x []float32) {
	t.Helper()
	n := len(a)
	checkBinary(t, n, a, x[:n])
	for _, p := range []int{1, 3, 8, 16} {
		if p <= len(x) {
			checkBinary(t, n, a, x[:p])
			checkBinary(t, n, x[:p], a)
		}
	}
}

// checkSumRows sums rows rows of x (stride floats apart) into n columns on
// both bodies.
func checkSumRows(t testing.TB, n int, x []float32, stride, rows int) {
	t.Helper()
	got, want := make([]float32, n), make([]float32, n)
	SumRows(got, x, stride, rows)
	onGoBodies(func() { SumRows(want, x, stride, rows) })
	requireSameFloats(t, fmt.Sprintf("SumRows n=%d stride=%d rows=%d", n, stride, rows), got, want)
}

// adamCoef is beta1, 1-beta1, beta2, 1-beta2, lr, 1-beta1³, 1-beta2³ and
// eps of Adam's third step with the default betas, rounded as the optimizer
// rounds them.
var adamCoef = [8]float32{0.9, float32(1 - 0.9), 0.999, float32(1 - 0.999), 0.01,
	float32(1 - 0.9*0.9*0.9), float32(1 - 0.999*0.999*0.999), 1e-8}

// checkAdam runs Adam's two rows on both bodies for a variable x with
// gradient g and slot mv (m ‖ v, 2·len(g) values): AdamMoments over the
// whole slot, and cut at lo and hi — three ranges, the middle one crossing
// from m into v when lo < len(g) < hi — which must give the same values as
// the whole; then AdamStep from the new moments, into a fresh dst and in
// place over a copy of x.
func checkAdam(t testing.TB, x, mv, g []float32, coef [8]float32, lo, hi int) {
	t.Helper()
	n := len(g)
	beta1, c1, beta2, c2, lr, corr1, corr2, eps := coef[0], coef[1], coef[2], coef[3], coef[4], coef[5], coef[6], coef[7]
	label := fmt.Sprintf("n=%d coef=%v", n, coef)
	got, want := make([]float32, 2*n), make([]float32, 2*n)
	AdamMoments(got, mv, g, 0, beta1, c1, beta2, c2)
	onGoBodies(func() { AdamMoments(want, mv, g, 0, beta1, c1, beta2, c2) })
	requireSameFloats(t, "AdamMoments "+label, got, want)
	lo, hi = min(lo, 2*n), min(max(lo, hi), 2*n)
	cut := make([]float32, 2*n)
	for _, r := range [][2]int{{0, lo}, {lo, hi}, {hi, 2 * n}} {
		AdamMoments(cut[r[0]:r[1]], mv, g, r[0], beta1, c1, beta2, c2)
	}
	requireSameFloats(t, fmt.Sprintf("AdamMoments cut at %d, %d, %s", lo, hi, label), cut, want)

	step, stepWant := make([]float32, n), make([]float32, n)
	AdamStep(step, x, want[:n], want[n:], lr, corr1, corr2, eps)
	onGoBodies(func() { AdamStep(stepWant, x, want[:n], want[n:], lr, corr1, corr2, eps) })
	requireSameFloats(t, "AdamStep "+label, step, stepWant)
	inPlace := slices.Clone(x)
	AdamStep(inPlace, inPlace, want[:n], want[n:], lr, corr1, corr2, eps)
	requireSameFloats(t, "AdamStep in place "+label, inPlace, stepWant)
}

// checkReluFamily holds the bit-select rows to the float comparisons that
// define them, exactly: no NaN is produced, so payloads count too.
func checkReluFamily(t testing.TB, x []float32, alpha float32) {
	t.Helper()
	relu, relu6, step := make([]float32, len(x)), make([]float32, len(x)), make([]float32, len(x))
	Relu(relu, x)
	Relu6(relu6, x)
	Step(step, x, alpha)
	for i, v := range x {
		var r, r6 float32
		if v > 0 {
			r = v
		}
		switch {
		case v < 0:
			r6 = 0
		case v > 6:
			r6 = 6
		default:
			r6 = v
		}
		s := alpha
		switch {
		case v != v:
			s = v
		case v > 0:
			s = 1
		}
		for _, c := range []struct {
			name      string
			got, want float32
		}{{"Relu", relu[i], r}, {"Relu6", relu6[i], r6}, {"Step", step[i], s}} {
			if math.Float32bits(c.got) != math.Float32bits(c.want) {
				t.Fatalf("%s(%g, bits %08x) = bits %08x, want %08x", c.name, v, math.Float32bits(v), math.Float32bits(c.got), math.Float32bits(c.want))
			}
		}
	}
}

// denseIdx is the index list of a dense product: 0, 1, …, k-1.
func denseIdx(k int) []int32 {
	idx := make([]int32, k)
	for t := range idx {
		idx[t] = int32(t)
	}
	return idx
}

func requireAVX2(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU: the Go bodies are the only ones that run")
	}
}

// TestVecCoresBitIdentity sweeps every output length 0…67 (empty, pure
// scalar tail, one to eight 8-wide steps plus each tail) at every
// sub-slice offset 0…7 of its backing array, so the loads and stores hit
// every alignment, on operands seeded from vecSpecials.
func TestVecCoresBitIdentity(t *testing.T) {
	requireAVX2(t)
	seed := uint32(0)
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 7; off++ {
			seed += 3
			dst := vecOperand(off+n, seed)[off:]

			// k from 0 to 40, so the run ends on every remainder of the
			// four-wide step; about a quarter of vals is ±0 and some of it
			// NaN/Inf, all of it multiplied. The row stride is the row's
			// own length (a GEMM) and wider (a pixel's slice of a filter row).
			k := int(seed) % 41
			for _, stride := range []int{n, n + 5} {
				vals := vecOperand(off+k, seed+1)[off:]
				b := vecOperand(off+k*stride+n, seed+2)[off:]
				checkAxpyN(t, dst, vals, denseIdx(k), b, stride)
			}
			// A list with gaps, as the compaction hands one on.
			if k > 0 {
				idx := make([]int32, k)
				for i := range idx {
					idx[i] = int32(i + i/2)
				}
				b := vecOperand(off+int(idx[k-1])*(n+1)+n, seed+2)[off:]
				checkAxpyN(t, dst, vecOperand(off+k, seed+1)[off:], idx, b, n+1)
			}
			// Lists of every length up to NZCap, the tail block masked.
			checkList(t, vecOperand(off+min(n, NZCap), seed+8)[off:], int(seed)%1000)

			// One to six rows of the same product (a tile of four and every
			// remainder), the lhs laid out as a convolution's pixels are
			// (rows far apart, steps adjacent) and as a filter gradient's
			// channels are (rows adjacent, steps far apart). Only a row of
			// whole vector steps reaches the assembly.
			for rows := 1; rows <= 6; rows++ {
				acc := vecOperand(off+rows*n, seed+3)[off:]
				b := vecOperand(off+k*n, seed+2)[off:]
				checkAxpyRows(t, acc, n, vecOperand(off+rows*(k+2), seed+1)[off:], k+2, 1, k, b)
				checkAxpyRows(t, acc, n, vecOperand(off+rows+k*(rows+3), seed+1)[off:], 1, rows+3, k, b)
			}

			// A 3×3 filter clipped to rows×taps rectangles, over runs of one
			// to six pixels of n channels (a group of four and every
			// remainder), strides as a stride-2 layer would pass them. A
			// pixel of the input and of the filter holds n channels, or —
			// as for a piece that is one pixel's window of channels — three
			// more than the run takes.
			for pixels := 1; pixels <= 6; pixels++ {
				rows, taps := [6]int{3, 2, 3, 1, 3, 2}[pixels-1], [6]int{3, 3, 2, 1, 3, 2}[pixels-1]
				c := n + pixels%2*3
				xPixel, xRow, xTap, wRow := 2*c, (2*pixels+3)*c, c, 3*c
				x := vecOperand(off+(pixels-1)*xPixel+(rows-1)*xRow+(taps-1)*xTap+n, seed+1)[off:]
				w := vecOperand(off+(rows-1)*wRow+(taps-1)*c+n, seed+2)[off:]
				checkDwRun(t, vecOperand(off+pixels*n, seed)[off:], x, w, vecOperand(off+n, seed+3)[off:], pixels, xPixel, xRow, xTap, wRow, c, rows, taps)
			}
			// A 3×3 pooling window clipped to every rows×taps rectangle;
			// w, cut to x's length, stands in for the gradient already in
			// dx.
			for rows := 1; rows <= 3; rows++ {
				for taps := 1; taps <= 3; taps++ {
					xRow, xTap, wRow := 5*n+1, n, 3*n
					x := vecOperand(off+(rows-1)*xRow+(taps-1)*xTap+n, seed+1)[off:]
					w := vecOperand(off+(rows-1)*wRow+taps*n, seed+2)[off:]
					checkPoolPixels(t, n, x, xRow, xTap, rows, taps)
					checkPoolMaxGrad(t, w[:min(len(w), len(x))], x[:min(len(w), len(x))], dst, min(xRow, wRow), xTap, rows, taps)
				}
			}

			checkBiasAct(t, dst, vecOperand(off+n, seed+1)[off:])
			checkBiasAct(t, dst, nil)
			checkReluFamily(t, dst, 0.25)
			checkReluRows(t, dst, 0.25)
			checkBinaryLayouts(t, dst, vecOperand(off+n+16, seed+1)[off:])
			// No rows to a few, rows packed (a bias gradient's [rows, n]) and
			// strided wider than the sum.
			for rows := 0; rows <= 5; rows++ {
				for _, stride := range []int{n, n + 3} {
					checkSumRows(t, n, vecOperand(off+max(0, rows*stride), seed+5)[off:], stride, rows)
				}
			}
			checkAdam(t, dst, vecOperand(off+2*n, seed+6)[off:], vecOperand(off+n, seed+7)[off:], adamCoef, n/2, n+n/3+1)
			// Channel counts under a vector, either side of one and of two,
			// and wider than BatchNorm's tile (so every range here is part
			// of one pixel); ranges begin at every phase in turn. Most
			// variances are made non-negative so most outputs are numbers.
			for _, c := range []int{1, 3, 8, 9, 16, 32, 300} {
				p := vecOperand(off+4*c, seed+4)[off:]
				for i := c; i < 2*c; i++ {
					p[i] = float32(math.Abs(float64(p[i])))
				}
				checkBatchNorm(t, dst, p, int(seed)%c)
			}
		}
	}
	// Every special against every special, in every lane of an 8-wide step
	// and of the scalar tail.
	for _, av := range vecSpecials {
		for _, bv := range vecSpecials {
			for _, yv := range vecSpecials {
				a, b, y := make([]float32, 5), make([]float32, 5*11), make([]float32, 11)
				for i := range a {
					a[i] = av
				}
				for i := range b {
					b[i] = bv
				}
				for i := range y {
					y[i] = yv
				}
				checkAxpyN(t, y, a, denseIdx(5), b, 11)
				checkList(t, slices.Concat(a, y, a[:3]), 3)
				for _, n := range []int{8, 16} {
					acc := make([]float32, 5*n)
					for i := range acc {
						acc[i] = yv
					}
					checkAxpyRows(t, acc, n, a, 1, 0, 3, b)
				}
				// x holds av: a bias here, and below batch norm's x and
				// Adam's gradient.
				x := make([]float32, 11)
				for i := range x {
					x[i] = av
				}
				// A depthwise pixel, and four of them: the 2×2 window is
				// every pixel's (xPixel 0).
				checkDwRun(t, y, b, b[11:], x, 1, 0, 22, 11, 22, 11, 2, 2)
				checkDwRun(t, slices.Concat(y, y, y, y), b, b[11:], x, 4, 0, 22, 11, 22, 11, 2, 2)
				checkBiasAct(t, y, b[:11])
				checkReluRows(t, y, av)
				checkBinaryLayouts(t, y, b[:16])
				// x = av against mean bv and variance yv, one pixel of 11
				// channels; scale av and offset bv.
				checkBatchNorm(t, x, slices.Concat(b[:11], y, x, b[:11]), 0)
				// A window of nothing but bv, and one with av in each
				// position in turn.
				for at := 0; at < 4*11; at += 11 {
					x := slices.Clone(b[:4*11])
					copy(x[at:], a)
					checkPoolPixels(t, 11, x, 22, 11, 2, 2)
					checkPoolMaxGrad(t, slices.Clone(b[:4*11]), x, y, 22, 11, 2, 2)
					checkSumRows(t, 11, x, 11, 4)
				}
				// Adam: variable yv, gradient av (x), moments bv and yv,
				// under the standard coefficients and under av, bv and yv
				// as coefficients.
				mv := slices.Concat(b[:11], y)
				checkAdam(t, y, mv, x, adamCoef, 5, 16)
				checkAdam(t, y, mv, x, [8]float32{bv, yv, av, bv, yv, av, bv, yv}, 11, 11)
			}
		}
	}
}

// TestVecCoresStayInBounds: a core writes exactly the slice it was given —
// the elements either side keep their sentinel.
func TestVecCoresStayInBounds(t *testing.T) {
	requireAVX2(t)
	const sentinel = 12345
	for n := 0; n <= 40; n++ {
		buf := make([]float32, n+16)
		for i := range buf {
			buf[i] = sentinel
		}
		dst := buf[8 : 8+n : 8+n]
		AxpyN(dst, vecOperand(6, 7), denseIdx(6), vecOperand(6*n, 8), n)
		DwRun(dst, vecOperand(4*n, 9), vecOperand(4*n, 10), vecOperand(n, 34), 1, 0, 2*n, n, 2*n, n, 2, 2, ActRelu6)
		if c := n / 4; c > 0 {
			// Four pixels of c channels: the first 4c values of dst.
			DwRun(dst, vecOperand(4*n, 9), vecOperand(4*n, 10), vecOperand(c, 34), 4, c, 2*n, c, 2*n, c, 2, 2, ActRelu)
		}
		BiasAct(dst, vecOperand(3, 35), ActNone)
		if n >= 8 {
			AxpyRows(dst[:n/8*8], 8, vecOperand(3*n, 16), 3, 1, 3, vecOperand(3*8, 17))
		}
		BiasAct(dst, vecOperand(n, 11), ActRelu6)
		Relu6(dst, dst)
		Relu(dst, vecOperand(n, 18))
		Step(dst, dst, 0.5)
		Binary(Div, dst, vecOperand(n, 19), vecOperand(3, 20))
		Binary(Sub, dst, vecOperand(1, 21), dst)
		BatchNorm(dst, vecOperand(n, 22), vecOperand(9, 23), vecOperand(9, 24), vecOperand(9, 25), vecOperand(9, 26), 1e-3, n%9)
		PoolMax(dst, vecOperand(4*n, 12), 2*n, n, 2, 2)
		PoolAvg(dst, vecOperand(4*n, 13), 2*n, n, 2, 2)
		// dst as the gradient's dx: one tap, so the window is the slice.
		PoolMaxGrad(dst, vecOperand(n, 14), vecOperand(n, 15), n, n, 1, 1)
		SumRows(dst, vecOperand(3*n+2, 27), n+1, 3)
		// dst as values [n/2, n/2+n) of a 2n slot: the end of m, the start of v.
		AdamMoments(dst, vecOperand(2*n, 28), vecOperand(n, 29), n/2, 0.9, 0.1, 0.999, 0.001)
		AdamStep(dst, vecOperand(n, 30), vecOperand(n, 31), vecOperand(n, 32), 0.01, 0.1, 0.001, 1e-8)
		for i, v := range buf {
			if (i < 8 || i >= 8+n) && v != sentinel {
				t.Fatalf("n=%d: buf[%d] = %g, outside the slice handed to the cores", n, i, v)
			}
		}
		// The compaction stores whole blocks of eight: none may pass the
		// list's end, even when every element is listed.
		var list struct {
			nz    NZList
			guard [8]int32
		}
		for i := range list.guard {
			list.guard[i] = sentinel
		}
		ones := make([]float32, min(n+24, NZCap))
		for i := range ones {
			ones[i] = 1
		}
		if vals, _ := list.nz.List(ones, 0); len(vals) != len(ones) {
			t.Fatalf("List of %d ones listed %d", len(ones), len(vals))
		}
		for i, v := range list.guard {
			if v != sentinel {
				t.Fatalf("List of %d ones: guard[%d] = %d, past the list", len(ones), i, v)
			}
		}
	}
}

// FuzzVecCores reads its input as float32 bit patterns, so the fuzzer
// reaches every NaN payload, denormal and sign combination, and carves
// every core's operands out of them: k, the tap rectangle, the binaries'
// row and batch norm's channel count and phase come from the two leading
// arguments, the output length from how many floats there are.
func FuzzVecCores(f *testing.F) {
	requireAVX2(f)
	var specials []byte
	for _, a := range vecSpecials {
		for _, b := range vecSpecials {
			specials = binary.LittleEndian.AppendUint32(specials, math.Float32bits(a))
			specials = binary.LittleEndian.AppendUint32(specials, math.Float32bits(b))
		}
	}
	f.Add(uint8(3), uint8(4), specials)
	f.Add(uint8(36), uint8(8), specials)
	f.Add(uint8(1), uint8(0), specials[:4*19])
	f.Add(uint8(0), uint8(0), []byte{})
	// The case that separates the dense AxpyN from a zero-skipping caller:
	// four ±0 steps against a b of +Inf and NaN.
	var zeroInf []byte
	for i := 0; i < 4+9+4*9; i++ {
		bits := [4]uint32{0, 1 << 31, 0x7f800000, 0x7fc00000}[i%2+2*min(i/4, 1)]
		zeroInf = binary.LittleEndian.AppendUint32(zeroInf, bits)
	}
	f.Add(uint8(3), uint8(0), zeroInf)
	f.Fuzz(func(t *testing.T, kSel, tapSel uint8, data []byte) {
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}

		// vals = a[k] ‖ row[n] ‖ b[k×n]
		k := 1 + int(kSel)%40
		if len(vals) >= k {
			n := (len(vals) - k) / (k + 1)
			checkAxpyN(t, vals[k:k+n], vals[:k], denseIdx(k), vals[k+n:k+n+k*n], n)
		}

		// vals = a[rows×k] ‖ acc[rows×n] ‖ b[k×n], n 8 or 16
		if n, rows := 8+8*int(tapSel&1), 1+int(tapSel>>1)%6; len(vals) >= rows*k+rows*n+k*n {
			a, acc, b := vals[:rows*k], vals[rows*k:rows*k+rows*n], vals[rows*k+rows*n:]
			checkAxpyRows(t, acc, n, a, k, 1, k, b)
			checkAxpyRows(t, acc, n, a, 1, rows, k, b)
		}

		// vals = dst[c] ‖ x[rows×taps×c] ‖ w[rows×taps×c]
		rows, taps := 1+int(tapSel)%3, 1+int(tapSel)/3%3
		c := len(vals) / (2*rows*taps + 1)
		x := vals[c : c+rows*taps*c]
		w := vals[c+rows*taps*c:]
		checkList(t, vals[:min(len(vals), NZCap)], int(kSel))
		if c > 0 {
			// One pixel, and p pixels of c/p channels each, the next pixel
			// c/p floats on in x.
			checkDwRun(t, vals[:c], x, w, x[:c], 1, 0, taps*c, c, taps*c, c, rows, taps)
			if p := 1 + int(kSel)%6; c >= p {
				cp := c / p
				checkDwRun(t, vals[:p*cp], x, w, w[:cp], p, cp, taps*c, c, taps*c, c, rows, taps)
			}
			checkPoolPixels(t, c, x, taps*c, c, rows, taps)
			checkPoolMaxGrad(t, w, x, vals[:c], taps*c, c, rows, taps)
		}

		checkBiasAct(t, vals[:len(vals)/2], vals[len(vals)/2:])
		checkBiasAct(t, vals, nil)
		checkReluFamily(t, vals, float32(kSel)/16)
		checkReluRows(t, vals, float32(kSel)/16)

		// vals = a[n] ‖ x[n]: the same shape, and x's first p values as a
		// row on either side.
		if n, p := len(vals)/2, 1+int(tapSel)%20; n > 0 {
			checkBinary(t, n, vals[:n], vals[n:2*n])
			if p <= n {
				checkBinary(t, n, vals[:n], vals[n:n+p])
				checkBinary(t, n, vals[n:n+p], vals[:n])
			}
		}

		// vals = mean[c] ‖ variance[c] ‖ scale[c] ‖ offset[c] ‖ x
		if c := 1 + int(kSel)%40; len(vals) > 4*c {
			checkBatchNorm(t, vals[4*c:], vals[:4*c], int(tapSel)%c)
		}

		// vals as rows of 1 + kSel%40 columns, 1 + tapSel%8 floats apart
		// beyond them.
		if n := 1 + int(kSel)%40; len(vals) >= n {
			stride := n + int(tapSel)%8
			checkSumRows(t, n, vals, stride, 1+(len(vals)-n)/stride)
		}

		// vals = x[n] ‖ m[n] ‖ v[n] ‖ g[n], under the standard coefficients
		// or, when kSel is odd, under the first eight values as coefficients;
		// the moments cut at the tapSel-th value and in the middle of v.
		if n := len(vals) / 4; n > 0 {
			coef := adamCoef
			if kSel&1 == 1 && len(vals) >= 8 {
				coef = [8]float32(vals[:8])
			}
			checkAdam(t, vals[:n], vals[n:3*n], vals[3*n:4*n], coef, int(tapSel)%(2*n), n+n/2)
		}
	})
}

// TestAxpyRowsSkipsZeros: a ±0 lhs element contributes nothing on either
// body — not the NaN that 0·Inf is, and not a +0 that would turn a -0
// accumulator into +0 — where a NaN lhs element is multiplied like any
// other value. The narrow rows of every product depend on it as the wide
// ones do on GemmRow leaving zeros out of AxpyN's list.
func TestAxpyRowsSkipsZeros(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	for _, n := range []int{8, 16, 11} {
		for _, rows := range []int{1, 4, 6} {
			for _, body := range bothBodies {
				// Steps: ±0 against Inf and NaN, then 2 against 3, and in
				// the last row NaN against 3.
				a := make([]float32, rows*4)
				for i := 0; i < rows; i++ {
					copy(a[i*4:], []float32{0, negZero, 2, 0})
				}
				a[rows*4-1] = nan
				b := make([]float32, 4*n)
				for j := 0; j < n; j++ {
					b[j], b[n+j], b[2*n+j], b[3*n+j] = inf, nan, 3, 3
				}
				acc := make([]float32, rows*n)
				for i := range acc {
					acc[i] = negZero
				}
				body(func() {
					AxpyRows(acc, n, a, 4, 1, 2, b) // the two zero steps only
				})
				for i, v := range acc {
					if math.Float32bits(v) != math.Float32bits(negZero) {
						t.Fatalf("n=%d rows=%d: acc[%d] = %g (bits %08x) after zero steps, want -0", n, rows, i, v, math.Float32bits(v))
					}
				}
				body(func() { AxpyRows(acc, n, a, 4, 1, 4, b) })
				for i, v := range acc {
					if last := i/n == rows-1; last && v == v || !last && v != 6 {
						t.Fatalf("n=%d rows=%d: acc[%d] = %g, want 6 (NaN in the last row)", n, rows, i, v)
					}
				}
			}
		}
	}
}

// TestListEveryZeroMask walks the compaction through every pattern of
// zeros an eight-lane block can hold: lane l of each block is ±0 (+0 in
// even blocks, -0 in odd ones) where bit l of the mask m is set, and
// otherwise a NaN, a denormal of either sign or a normal value, which are
// all listed. Every length 0…67 at every offset 0…7: whole blocks, every
// masked tail, and lists longer than NZCap taken as GemmRow takes them.
// GemmRow then multiplies the list against +Inf on both bodies: a zero
// listed would put 0·Inf = NaN in the row.
func TestListEveryZeroMask(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	listed := []float32{float32(math.NaN()), 1e-39, -math.SmallestNonzeroFloat32, 1.5, -2}
	b := make([]float32, 3*67)
	for i := range b {
		b[i] = float32(math.Inf(1))
	}
	for m := 0; m < 256; m++ {
		for n := 0; n <= 67; n++ {
			for off := 0; off <= 7; off++ {
				a := make([]float32, off+n)[off:]
				want := make([]float32, 3)
				for i := range a {
					if m&(1<<(i%8)) != 0 {
						a[i] = [2]float32{0, negZero}[i/8%2]
						continue
					}
					a[i] = listed[(i+m)%len(listed)]
					for j := range want {
						want[j] += float32(a[i] * b[3*i+j])
					}
				}
				for lo := 0; lo < n; lo += NZCap {
					checkList(t, a[lo:min(lo+NZCap, n)], lo)
				}
				for body, run := range bothBodies {
					got := make([]float32, 3)
					run(func() { GemmRow(got, a, 1, b, 3, new(NZList)) })
					requireSameFloats(t, fmt.Sprintf("GemmRow %s mask %08b n=%d", body, m, n), got, want)
				}
			}
		}
	}
}

// TestAxpyNIsDense: a zero step is multiplied, not skipped, on both bodies —
// 0·Inf and 0·NaN are NaN in every lane and in the tail. GemmRow gets its
// skip by leaving zeros out of vals, and native's input gradient by
// gathering only the nonzero dy; the core itself takes what it is handed.
func TestAxpyNIsDense(t *testing.T) {
	for _, zero := range []float32{0, float32(math.Copysign(0, -1))} {
		for _, w := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
			b := make([]float32, 5*11)
			for i := range b {
				b[i] = w
			}
			for _, body := range []func(func()){func(f func()) { f() }, onGoBodies} {
				row := make([]float32, 11)
				body(func() { AxpyN(row, []float32{zero, zero, zero, zero, zero}, denseIdx(5), b, 11) })
				for j, v := range row {
					if v == v {
						t.Fatalf("%g·%g: row[%d] = %g, want NaN", zero, w, j, v)
					}
				}
			}
		}
	}
}

// TestPoolPixelEdgeSemantics pins, on both bodies, the cases the pooling
// pixels' comparison turns on: a NaN never wins, the first of two equal
// values (±0 included) stays, a window with nothing above -Inf has no
// winner, and the gradient touches the winning cell only.
func TestPoolPixelEdgeSemantics(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	for _, c := range []struct {
		name   string
		window [4]float32 // a 2×2 window of one channel
		max    float32
		winner int // the tap the gradient goes to, -1 for none
	}{
		{"nan first", [4]float32{nan, 1, 3, 2}, 3, 2},
		{"nan last", [4]float32{1, 3, 2, nan}, 3, 1},
		{"nan only", [4]float32{nan, nan, nan, nan}, -inf, -1},
		{"all -inf", [4]float32{-inf, -inf, -inf, -inf}, -inf, -1},
		{"+0 then -0", [4]float32{-1, 0, negZero, -2}, 0, 1},
		{"-0 then +0", [4]float32{-1, negZero, 0, -2}, negZero, 1},
		{"tie", [4]float32{2, 5, 5, 5}, 5, 1},
		{"+inf", [4]float32{1, inf, nan, inf}, inf, 1},
		{"denormal", [4]float32{-1e-39, 1e-45, 1e-39, 0}, 1e-39, 2},
	} {
		for _, lanes := range []int{1, 8, 11} { // scalar tail, one vector, both
			for body, run := range bothBodies {
				x := make([]float32, 4*lanes)
				for tap, v := range c.window {
					for ch := 0; ch < lanes; ch++ {
						x[tap*lanes+ch] = v
					}
				}
				got := make([]float32, lanes)
				// dy is +Inf and dx holds -0: a multiply by a 0/1 mask
				// would leave NaNs in the losing cells, an added +0 would
				// flip their sign.
				dx, dy := make([]float32, 4*lanes), make([]float32, lanes)
				for i := range dx {
					dx[i] = negZero
				}
				for i := range dy {
					dy[i] = inf
				}
				run(func() {
					PoolMax(got, x, 2*lanes, lanes, 2, 2)
					PoolMaxGrad(dx, x, dy, 2*lanes, lanes, 2, 2)
				})
				for ch, v := range got {
					if math.Float32bits(v) != math.Float32bits(c.max) {
						t.Errorf("%s/%s/%d lanes: PoolMax[%d] = %g (bits %08x), want %g", c.name, body, lanes, ch, v, math.Float32bits(v), c.max)
					}
				}
				for i, v := range dx {
					want := negZero
					if i/lanes == c.winner {
						want = inf
					}
					if math.Float32bits(v) != math.Float32bits(want) {
						t.Errorf("%s/%s/%d lanes: PoolMaxGrad dx[%d] = %g (bits %08x), want %g", c.name, body, lanes, i, v, math.Float32bits(v), want)
					}
				}
			}
		}
	}
	// The average starts from +0 (a window of -0 reads +0) and an empty
	// window reads 0 / -Inf.
	for body, run := range bothBodies {
		avg, max := []float32{7, 7, 7}, []float32{7, 7, 7}
		run(func() {
			PoolAvg(avg[:2], []float32{negZero, negZero, negZero, negZero}, 2, 2, 1, 2)
			PoolAvg(avg[2:], nil, 0, 0, 0, 0)
			PoolMax(max, nil, 0, 0, 0, 3)
		})
		for i := range avg {
			if math.Float32bits(avg[i]) != 0 || max[i] != -inf {
				t.Errorf("%s: avg[%d] = %g (bits %08x), max[%d] = %g; want +0 and -Inf", body, i, avg[i], math.Float32bits(avg[i]), i, max[i])
			}
		}
	}
}
