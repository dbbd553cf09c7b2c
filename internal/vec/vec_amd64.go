package vec

// Implemented in vec_amd64.s. They check no bounds (the wrappers in
// vec.go do) and retain no argument.

// axpyNAVX2 computes row[j] += a[t]*b[off[t]+j] for t ascending;
// len(off) == len(a), off[t]+len(row) <= len(b).
//
//go:noescape
func axpyNAVX2(row, a []float32, off []int, b []float32)

// axpyRowsAVX2 is AxpyRows' body for n a multiple of 8: len(acc) a
// positive multiple of n, k >= 1.
//
//go:noescape
func axpyRowsAVX2(acc []float32, n int, a []float32, iStride, tStride, k int, b []float32)

// dwPixelAVX2 is DwPixel's body; see there.
//
//go:noescape
func dwPixelAVX2(dst, x, w []float32, xRowStride, xTapStride, wRowStride, rows, taps int)

// biasActAVX2 is the body of BiasAct and of the ReLU rows: dst[i] =
// act(x[i] + bias[i]), or act(x[i]) when bias is empty; len(x) == len(dst),
// len(bias) is len(dst) or 0, kind is ActNone, ActRelu or ActRelu6.
//
//go:noescape
func biasActAVX2(dst, x, bias []float32, kind int)

// stepAVX2 is Step's body; len(x) == len(dst).
//
//go:noescape
func stepAVX2(dst, x []float32, alpha float32)

// batchNormAVX2 is BatchNorm's row with sd given: len(x) == len(dst), the
// four parameter slices len(mean) long, 0 <= phase < len(mean).
//
//go:noescape
func batchNormAVX2(dst, x, mean, sd, scale, offset []float32, phase int)

// binaryAVX2 is Binary's body; op is a BinOp, len(a) and len(x) >= 1.
//
//go:noescape
func binaryAVX2(op int, dst, a, x []float32)

// poolMaxAVX2, poolAvgAVX2 and poolMaxGradAVX2 are the bodies of PoolMax,
// PoolAvg and PoolMaxGrad; rows >= 1, taps >= 1.
//
//go:noescape
func poolMaxAVX2(dst, x []float32, rowStride, tapStride, rows, taps int)

//go:noescape
func poolAvgAVX2(dst, x []float32, rowStride, tapStride, rows, taps int)

//go:noescape
func poolMaxGradAVX2(dx, x, dy []float32, rowStride, tapStride, rows, taps int)

// sumRowsAVX2 is SumRows' body; rows >= 1, len(dst) >= 1.
//
//go:noescape
func sumRowsAVX2(dst, x []float32, stride, rows int)

// momentAVX2 is AdamMoments' body over one moment; len(s) and len(g) are
// len(dst), square is 0 or 1.
//
//go:noescape
func momentAVX2(dst, s, g []float32, beta, c float32, square int)

// adamStepAVX2 is AdamStep's body; the four slices have one length.
//
//go:noescape
func adamStepAVX2(dst, x, m, v []float32, lr, corr1, corr2, eps float32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM state across context switches — both are needed before a VEX.256
// instruction may run.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
