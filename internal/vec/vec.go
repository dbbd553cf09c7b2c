// Package vec holds the vector cores: the row loops that carry a model's
// host time on every backend that computes on the host — the row product
// under GEMM and convolution (GemmRow for one row, on the lhs compaction
// NZList and AxpyN, and AxpyRows for several narrow ones, both leaving a
// zero lhs element out of the sum), the depthwise run of pixels with its
// epilogue, the bias+activation epilogue, the pooling pixel (max,
// average, and the max pool's gradient), the element-wise rows — the
// ReLU family, Step, batch norm's normalise row and the four arithmetic
// binaries — and a training step's tail — the leading-axes sum of a bias
// gradient and Adam's two update rows — each written once, here. native's kernels
// and the WebGL simulator's shader programs call them; a second copy of one
// of these loops in a backend is a fork (CI greps for it).
//
// Every core has an AVX2 body in vec_amd64.s and the pure-Go body below.
// The Go bodies are always compiled: they are the oracle the differential
// tests hold the assembly to, and what runs on a CPU without AVX2 or off
// amd64.
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
//	row[j] += vals[t] * b[idx[t]*bStride+j]
//
// t ascending; idx ascends from 0 or more, and bStride >= 0. It multiplies
// whatever it is handed — a zero in vals too, so 0·Inf puts a NaN in the
// sum; the products leave a zero lhs element out by leaving it out of vals
// (NZList.List). The assembly consumes the entries four at a time: the row
// is loaded and stored once per four steps, and each element still sees
// its adds one at a time in t order.
func AxpyN(row, vals []float32, idx []int32, b []float32, bStride int) {
	if len(vals) == 0 || len(row) == 0 {
		return
	}
	idx = idx[:len(vals)]
	_ = b[int(idx[len(idx)-1])*bStride+len(row)-1]
	if useAVX2 {
		axpyNAVX2(row, vals, idx, b, bStride)
		return
	}
	// The float32 conversions around each product, here and below, forbid
	// the compiler from fusing it into the add (the spec allows x*y+z to
	// round once; arm64 and GOAMD64=v3 builds do), so every platform rounds
	// the way the AVX2 bodies do.
	for t, av := range vals {
		for j, bv := range b[int(idx[t])*bStride:][:len(row)] {
			row[j] += float32(av * bv)
		}
	}
}

// AxpyRows accumulates a small product into len(acc)/n output rows of n
// floats, leaving out the zeros of its lhs:
//
//	acc[i*n+j] += a[i*iStride+t*tStride] * b[t*n+j]   where a[…] != 0
//
// t ascending over k steps for every row i. It is GemmRow for rows of one
// or two vector steps, where gathering each row's nonzero lhs into a list
// costs more than the arithmetic: several pixels of a convolution (iStride
// the distance between their windows, tStride 1), or the filter-gradient
// rows of several input channels (iStride 1, tStride the distance between
// output positions). A zero lhs element is left out, as in every product
// (GemmRow) — 0·Inf stays out of the sum — which the assembly does without
// a branch: it multiplies, then selects -0 in place of the product, and
// adding -0 changes no float. Four rows advance together, so their add
// chains overlap.
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

// NZCap is how many lhs elements an NZList lists at a time: a multiple of
// the compaction's eight-wide block, and a power of two.
const NZCap = 64

// NZList is the scratch of a zero-skipping product: the nonzero lhs
// elements of up to NZCap, each with its index, the rhs row it multiplies.
// A caller declares one per range of rows and passes it down, so it is
// zeroed once per range, not once per row.
type NZList struct {
	vals [NZCap]float32
	idx  [NZCap]int32
}

// List lists the nonzero elements of a, at most NZCap of them, in order:
// vals[t] = a[i] and idx[t] = base+i for each i where a[i] is not ±0 (a
// NaN is listed). The slices are nz's and live until its next List. The
// assembly compacts eight elements per step without a branch — a compare
// against zero, its sign mask, a 256-entry permutation that moves the
// listed lanes to the front, and a population count that advances the
// list; so does the Go body, whose test on the bits compiles to a
// conditional move, so a random sparsity pattern costs no mispredictions.
func (nz *NZList) List(a []float32, base int) (vals []float32, idx []int32) {
	return nz.list(a, 1, base)
}

// list is List over the elements a[0], a[aStride], …, at most NZCap of
// them; idx counts elements, not floats. Only a unit stride reaches the
// assembly.
func (nz *NZList) list(a []float32, aStride, base int) ([]float32, []int32) {
	if len(a) == 0 {
		return nil, nil
	}
	if aStride == 1 {
		_ = nz.vals[len(a)-1] // at most NZCap elements
		if useAVX2 {
			p := compactAVX2(nz.vals[:], nz.idx[:], a, base)
			return nz.vals[:p], nz.idx[:p]
		}
	}
	// With at most NZCap elements (GemmRow cuts a strided lhs so), p <
	// NZCap at every store and the index masks change nothing but spare
	// the loop its two bounds checks.
	p, kk := 0, int32(base)
	for i := 0; i < len(a); i, kk = i+aStride, kk+1 {
		av := a[i]
		nz.vals[p&(NZCap-1)], nz.idx[p&(NZCap-1)] = av, kk
		if math.Float32bits(av)<<1 != 0 {
			p++
		}
	}
	return nz.vals[:p], nz.idx[:p]
}

// NarrowRow reports whether an output row of n floats is one or two vector
// steps. Such a row's arithmetic is a handful of instructions per lhs
// element, less than listing that element costs, so a product whose rows
// are narrow goes to AxpyRows, which takes the lhs as it lies, and a wide
// one to GemmRow, which spares the row the work of a zero altogether.
func NarrowRow(n int) bool { return n == 8 || n == 16 }

// GemmRow accumulates one output row of a matrix product, leaving out the
// zeros of its lhs:
//
//	row[j] += a[kk*aStride] * b[kk*bStride+j]   where a[kk*aStride] != 0
//
// kk ascending over the ⌈len(a)/aStride⌉ lhs elements. This is the product
// of the host backends' convolutions and matrix multiplies, and its rule is
// every tier's, the reference kernels' included: a zero lhs element
// contributes nothing, so 0·Inf stays out of the sum. On finite operands
// leaving it out changes no bit — the sum starts at +0, which no added ±0
// moves — and after a ReLU-family activation half the lhs is zeros, whose
// products the skip saves.
//
// The lhs is listed NZCap elements at a time (NZList), and each list handed
// to AxpyN.
func GemmRow(row, a []float32, aStride int, b []float32, bStride int, nz *NZList) {
	for lo, kk := 0, 0; lo < len(a); lo, kk = lo+NZCap*aStride, kk+NZCap {
		vals, idx := nz.list(a[lo:min(lo+NZCap*aStride, len(a))], aStride, kk)
		AxpyN(row, vals, idx, b, bStride)
	}
}

// DwRun computes pixels output pixels of a depthwise convolution with
// channel multiplier 1, c = len(dst)/pixels channels each — a run of whole
// pixels, or one pixel's window of channels — with its epilogue:
//
//	dst[i*c+ch] = act(+0 + Σ x[i*xPixel + r*xRow + t*xTap + ch]·w[r*wRow + t*wTap + ch] + bias[ch])
//
// the sum over the rows×taps rectangle of filter taps inside the input, r
// then t ascending, each product rounded and then added; a nil bias is not
// added (BiasAct). x and w start at the rectangle's first tap and the run's
// first channel, bias at that channel. The assembly starts each sum at +0
// in a register, keeps it there across all the taps — four pixels' eight
// channels at a time, which share each load of w — and stores it once,
// after the bias and ReLU or ReLU6.
func DwRun(dst, x, w, bias []float32, pixels, xPixel, xRow, xTap, wRow, wTap, rows, taps int, act Act) {
	if pixels <= 0 || len(dst) < pixels {
		return
	}
	c := len(dst) / pixels
	dst = dst[:pixels*c]
	if bias != nil {
		bias = bias[:c]
	}
	if rows <= 0 || taps <= 0 {
		clear(dst) // a window wholly in the padding
		BiasAct(dst, bias, act)
		return
	}
	_ = x[(pixels-1)*xPixel+(rows-1)*xRow+(taps-1)*xTap+c-1]
	_ = w[(rows-1)*wRow+(taps-1)*wTap+c-1]
	if useAVX2 {
		dwRunAVX2(dst, x, w, bias, c, pixels, xPixel, xRow, xTap, wRow, wTap, rows, taps, int(act))
		return
	}
	clear(dst)
	for i := 0; i < pixels; i++ {
		acc := dst[i*c : (i+1)*c]
		for r := 0; r < rows; r++ {
			for t := 0; t < taps; t++ {
				xs := x[i*xPixel+r*xRow+t*xTap:][:c]
				for ch, wv := range w[r*wRow+t*wTap:][:c] {
					acc[ch] += float32(xs[ch] * wv)
				}
			}
		}
	}
	BiasAct(dst, bias, act)
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

// BiasAct computes dst[i] = act(dst[i] + bias[i%len(bias)]): a bias as
// long as dst is read straight, and a shorter one is a row repeated along
// it — a per-channel bias onto a run of whole pixels, one call per run. A
// nil bias skips the add (adding a zero vector instead would turn -0 into
// +0), and the ReLU rows below are BiasAct without one.
func BiasAct(dst, bias []float32, act Act) {
	if len(dst) == 0 {
		return
	}
	if bias != nil {
		bias = bias[:min(len(bias), len(dst))]
		_ = bias[0] // an empty row would repeat forever
		if useAVX2 {
			biasActAVX2(dst, dst, bias, int(act))
			return
		}
		for i := 0; i < len(dst); i += len(bias) {
			for j, bv := range bias[:min(len(bias), len(dst)-i)] {
				dst[i+j] += bv
			}
		}
	}
	switch act {
	case ActRelu:
		Relu(dst, dst)
	case ActRelu6:
		Relu6(dst, dst)
	}
}

// The Go bodies of the ReLU family select on the bit pattern instead of
// comparing floats: a sign test on activations is a coin flip to the branch
// predictor, and an integer select compiles to a conditional move. Read as
// unsigned integers, the floats above zero are [1, infBits], those below
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
	if useAVX2 {
		biasActAVX2(dst, x, nil, int(ActRelu))
		return
	}
	for i, v := range x {
		bits := math.Float32bits(v)
		dst[i] = math.Float32frombits(bits & maskIf(bits-1 < infBits))
	}
}

// Relu6 is dst[i] = x[i] < 0 ? 0 : x[i] > 6 ? 6 : x[i], so NaN and -0
// pass through.
func Relu6(dst, x []float32) {
	dst = dst[:len(x)]
	if useAVX2 {
		biasActAVX2(dst, x, nil, int(ActRelu6))
		return
	}
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
	if useAVX2 {
		stepAVX2(dst, x, alpha)
		return
	}
	alphaBits := math.Float32bits(alpha)
	for i, v := range x {
		bits := math.Float32bits(v)
		above := maskIf(bits-1 < infBits)
		nan := maskIf(bits<<1 > infBits<<1)
		dst[i] = math.Float32frombits(alphaBits&^(above|nan) | oneBits&above | bits&nan)
	}
}

// normTile is how many channels' √(variance+ε) BatchNorm keeps on its
// stack at a time; MobileNet α=0.25's widest layer fits one tile.
const normTile = 256

// BatchNorm is FusedBatchNorm over a run of channel-innermost values — a
// whole [..., c] tensor or any range of it — against c = len(mean) channels
// of statistics:
//
//	dst[i] = float32((x[i]-mean[k])/sd[k]*scale[k]) + offset[k]
//	k = (phase+i) % c,  sd[k] = float32(√(variance[k]+eps))
//
// every step rounded to float32 in the reference kernel's order — a
// subtract, a divide, a multiply and an add, none fused into the next, and
// no division turned into a multiply by the reciprocal. √(variance+ε) is a
// channel's, not a value's: it is taken here, in Go, once per channel into
// a stack tile of normTile. When the c channels fit one tile the range is
// one call to the body, which walks it with the four [c] vectors as its
// period; wider layers take one call per pixel and tile. dst and x have the
// same length and may be the same slice; 0 <= phase < c.
func BatchNorm(dst, x, mean, variance, scale, offset []float32, eps float32, phase int) {
	if len(x) == 0 {
		return
	}
	c := len(mean)
	_ = mean[phase]
	dst, variance, scale, offset = dst[:len(x)], variance[:c], scale[:c], offset[:c]
	var sd [normTile]float32
	for c0 := 0; c0 < c; c0 += normTile {
		c1 := min(c0+normTile, c)
		for j, v := range variance[c0:c1] {
			sd[j] = float32(math.Sqrt(float64(v + eps)))
		}
		if c1-c0 == c {
			normRow(dst, x, mean, sd[:c], scale, offset, phase)
			return
		}
		// Pixel by pixel, the first starting phase values before x[0].
		for p := -phase; p < len(x); p += c {
			from, to := max(0, p+c0), min(len(x), p+c1)
			if from >= to {
				continue
			}
			k, n := from-p, to-from
			normRow(dst[from:to], x[from:to], mean[k:k+n], sd[k-c0:k-c0+n], scale[k:k+n], offset[k:k+n], 0)
		}
	}
}

// normRow is BatchNorm's body with sd given: len(sd) == len(mean).
func normRow(dst, x, mean, sd, scale, offset []float32, phase int) {
	if useAVX2 {
		batchNormAVX2(dst, x, mean, sd, scale, offset, phase)
		return
	}
	for c := len(mean); len(x) > 0; phase = 0 {
		n := min(len(x), c-phase)
		m, d, s, o := mean[phase:phase+n], sd[phase:phase+n], scale[phase:phase+n], offset[phase:phase+n]
		for j, v := range x[:n] {
			dst[j] = float32((v-m[j])/d[j]*s[j]) + o[j]
		}
		dst, x = dst[n:], x[n:]
	}
}

// BinOp is the arithmetic of a Binary row.
type BinOp int

const (
	Add BinOp = iota
	Sub
	Mul
	Div
)

// rowRun is how many floats Binary repeats a short row into before it
// walks it: a scalar or an 8-float bias row then costs one pass of the
// body's run loop per 64 values, not per one or per eight.
const rowRun = 64

// Binary is element-wise Add, Sub, Mul or Div (RealDiv), operands in that
// order:
//
//	dst[i] = a[i%len(a)] op x[i%len(x)]
//
// so an operand as long as dst is read straight and a shorter one is a row
// repeated along it — a bias onto the channels of [..., C], a scalar onto
// anything. Both bodies walk dst in runs that end where either operand
// wraps, with the plain IEEE operation per value.
func Binary(op BinOp, dst, a, x []float32) {
	if len(dst) == 0 {
		return
	}
	var aRow, xRow [rowRun]float32
	a, x = repeatRow(aRow[:], a, len(dst)), repeatRow(xRow[:], x, len(dst))
	if useAVX2 {
		binaryAVX2(int(op), dst, a, x)
		return
	}
	for i := 0; i < len(dst); {
		ia, ix := i%len(a), i%len(x)
		n := min(len(dst)-i, len(a)-ia, len(x)-ix)
		d, av, xv := dst[i:i+n], a[ia:ia+n], x[ix:ix+n]
		switch op {
		case Add:
			for j := range d {
				d[j] = av[j] + xv[j]
			}
		case Sub:
			for j := range d {
				d[j] = av[j] - xv[j]
			}
		case Mul:
			for j := range d {
				d[j] = av[j] * xv[j]
			}
		case Div:
			for j := range d {
				d[j] = av[j] / xv[j]
			}
		}
		i += n
	}
}

// repeatRow returns row, or — when it is shorter than both buf and the n
// values it is repeated along — as many whole copies of it as buf holds,
// which read the same at every index i%len.
func repeatRow(buf, row []float32, n int) []float32 {
	_ = row[0]
	if len(row) >= len(buf) || len(row) >= n {
		return row
	}
	k := len(buf) / len(row) * len(row)
	for i := 0; i < k; i += len(row) {
		copy(buf[i:], row)
	}
	return buf[:k]
}

// SumRows adds rows of x column by column:
//
//	dst[j] = +0 + x[j] + x[stride+j] + … + x[(rows-1)*stride+j]
//
// left to right, each add rounded — the order in which Sum over the
// leading axes of [rows, stride] meets each column's values (a bias
// gradient), the row-major order of its reduced axes. Columns are
// independent add chains; the assembly keeps four vectors of them in
// registers across all the rows.
func SumRows(dst, x []float32, stride, rows int) {
	if len(dst) == 0 {
		return
	}
	if rows <= 0 {
		clear(dst)
		return
	}
	_ = x[(rows-1)*stride+len(dst)-1]
	if useAVX2 {
		sumRowsAVX2(dst, x, stride, rows)
		return
	}
	clear(dst)
	for r := 0; r < rows; r++ {
		for j, v := range x[r*stride:][:len(dst)] {
			dst[j] += v
		}
	}
}

// AdamMoments is Adam's moment update over a range of its slot, which
// holds the first moments m and then the second moments v of an n-value
// variable ([2, ...shape]):
//
//	m'[i] = float32(m[i]·beta1) + float32(g[i]·c1)
//	v'[i] = float32(v[i]·beta2) + float32(float32(g[i]·g[i])·c2)
//
// c1 = 1-beta1 and c2 = 1-beta2 as the caller rounded them: every step is
// the float32 operation the eager op chain (Mul, Square, Add) performed, in
// its order. dst holds the slot's values [lo, lo+len(dst)) — a range that
// may begin in m and end in v, as a program's texel range does — mv is the
// whole current slot and n = len(g).
func AdamMoments(dst, mv, g []float32, lo int, beta1, c1, beta2, c2 float32) {
	n, hi := len(g), lo+len(dst)
	mv = mv[:2*n]
	if lo < n {
		k := min(hi, n)
		moment(dst[:k-lo], mv[lo:k], g[lo:k], beta1, c1, false)
	}
	if hi > n {
		from := max(lo, n)
		moment(dst[from-lo:], mv[from:hi], g[from-n:hi-n], beta2, c2, true)
	}
}

// moment is AdamMoments' body over one moment: dst[i] = float32(s[i]·beta)
// + float32(q·c), q = g[i], or g[i]·g[i] rounded when square.
func moment(dst, s, g []float32, beta, c float32, square bool) {
	s, g = s[:len(dst)], g[:len(dst)]
	if useAVX2 {
		sq := 0
		if square {
			sq = 1
		}
		momentAVX2(dst, s, g, beta, c, sq)
		return
	}
	if square {
		for i, gv := range g {
			dst[i] = float32(s[i]*beta) + float32(float32(gv*gv)*c)
		}
		return
	}
	for i, gv := range g {
		dst[i] = float32(s[i]*beta) + float32(gv*c)
	}
}

// AdamStep is Adam's variable update over a range of n values, from the
// moments AdamMoments just produced:
//
//	dst[i] = x[i] - float32(m[i]/corr1·lr) / (float32(√(v[i]/corr2)) + eps)
//
// corr1 = 1-beta1^t and corr2 = 1-beta2^t as the caller rounded them. Each
// of the seven operations rounds to float32 in the eager op chain's order
// (two RealDivs, a Mul, Sqrt, Add, RealDiv, Sub); the square root is taken
// in float64 and rounded, which is the correctly rounded float32 root that
// VSQRTPS computes. dst may be x.
func AdamStep(dst, x, m, v []float32, lr, corr1, corr2, eps float32) {
	dst, m, v = dst[:len(x)], m[:len(x)], v[:len(x)]
	if useAVX2 {
		adamStepAVX2(dst, x, m, v, lr, corr1, corr2, eps)
		return
	}
	for i, xv := range x {
		mHat := m[i] / corr1
		num := mHat * lr
		den := float32(math.Sqrt(float64(v[i]/corr2))) + eps
		dst[i] = xv - num/den
	}
}
