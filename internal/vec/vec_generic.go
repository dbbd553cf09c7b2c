//go:build !amd64

package vec

// Off amd64 there is no assembly: hasAVX2 keeps useAVX2 false, so the
// pure-Go bodies in vec.go run and these are never reached.

func hasAVX2() bool { return false }

func axpyNAVX2(row, vals []float32, idx []int32, b []float32, bStride int) {
	panic("vec: no AVX2 core on this GOARCH")
}

func compactAVX2(vals []float32, idx []int32, a []float32, base int) int {
	panic("vec: no AVX2 core on this GOARCH")
}

func axpyRowsAVX2(acc []float32, n int, a []float32, iStride, tStride, k int, b []float32) {
	panic("vec: no AVX2 core on this GOARCH")
}

func dwRunAVX2(dst, x, w, bias []float32, c, pixels, xPixel, xRow, xTap, wRow, wTap, rows, taps, act int) {
	panic("vec: no AVX2 core on this GOARCH")
}

func biasActAVX2(dst, x, bias []float32, kind int) {
	panic("vec: no AVX2 core on this GOARCH")
}

func stepAVX2(dst, x []float32, alpha float32) {
	panic("vec: no AVX2 core on this GOARCH")
}

func batchNormAVX2(dst, x, mean, sd, scale, offset []float32, phase int) {
	panic("vec: no AVX2 core on this GOARCH")
}

func binaryAVX2(op int, dst, a, x []float32) {
	panic("vec: no AVX2 core on this GOARCH")
}

func poolMaxAVX2(dst, x []float32, rowStride, tapStride, rows, taps int) {
	panic("vec: no AVX2 core on this GOARCH")
}

func poolAvgAVX2(dst, x []float32, rowStride, tapStride, rows, taps int) {
	panic("vec: no AVX2 core on this GOARCH")
}

func poolMaxGradAVX2(dx, x, dy []float32, rowStride, tapStride, rows, taps int) {
	panic("vec: no AVX2 core on this GOARCH")
}

func sumRowsAVX2(dst, x []float32, stride, rows int) {
	panic("vec: no AVX2 core on this GOARCH")
}

func momentAVX2(dst, s, g []float32, beta, c float32, square int) {
	panic("vec: no AVX2 core on this GOARCH")
}

func adamStepAVX2(dst, x, m, v []float32, lr, corr1, corr2, eps float32) {
	panic("vec: no AVX2 core on this GOARCH")
}
