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

// biasActAVX2 is BiasAct's with-bias body; len(bias) == len(dst), kind is
// ActNone, ActRelu or ActRelu6.
//
//go:noescape
func biasActAVX2(dst, bias []float32, kind int)

// poolMaxAVX2, poolAvgAVX2 and poolMaxGradAVX2 are the bodies of PoolMax,
// PoolAvg and PoolMaxGrad; rows >= 1, taps >= 1.
//
//go:noescape
func poolMaxAVX2(dst, x []float32, rowStride, tapStride, rows, taps int)

//go:noescape
func poolAvgAVX2(dst, x []float32, rowStride, tapStride, rows, taps int)

//go:noescape
func poolMaxGradAVX2(dx, x, dy []float32, rowStride, tapStride, rows, taps int)

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
