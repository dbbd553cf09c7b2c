package native

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// Differential tests for the forward kernels a training step runs — the
// convolution, the pools, the [outer, inner] reductions and the transpose
// ops.reduce puts in front of them — against internal/kernels,
// by bit pattern (grad_test.go holds the backward kernels to the same
// standard). What the comparisons turn on: a NaN never wins a max, the
// first of two equal values stays (±0 included), an average divides by the
// cells inside the input, a sum adds left to right from +0, and a
// transpose moves bits.

// patternFill cycles through pattern, so where each value lands in a
// window shifts from window to window and from geometry to geometry.
func patternFill(name string, pattern ...float32) fill {
	return fill{name, func(n int, seed uint32) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = pattern[(i+int(seed))%len(pattern)]
		}
		return out
	}}
}

var (
	nan32     = float32(math.NaN())
	inf32     = float32(math.Inf(1))
	negZero32 = float32(math.Copysign(0, -1))
)

// forwardFills adds to the gradient suite's dense, sparse and
// mixed-specials operands the patterns a comparison-based kernel can get
// wrong: a NaN first, last or alone in a window, ±0 and other ties, ±Inf
// (the accumulators' own starting values) and denormals.
var forwardFills = append(gradFills[:len(gradFills):len(gradFills)],
	patternFill("nan-sparse", nan32, 1, -2, 3, 0.5, -inf32, 2),
	patternFill("nan-only", nan32),
	patternFill("zero-ties", 0, negZero32, negZero32, 0, 0),
	patternFill("ties", 2, 2, -1, 2, -1, -1, 5, 5, 5, 5, 5),
	patternFill("inf-denormal", inf32, 1e-39, -1e-39, 1e-45, -inf32, 0, -1e-45, inf32, 3e38, 3e38, math.MaxFloat32),
)

func (g gradGeometry) poolAttrs() kernels.Attrs {
	return kernels.Attrs{"filterSize": []int{g.fh, g.fw}, "strides": []int{g.stride, g.stride}, "pad": g.pad}
}

// checkPools runs MaxPool and AvgPool on g (inC channels, fh×fw window).
func checkPools(t testing.TB, nb *Backend, g gradGeometry, f fill) {
	t.Helper()
	xShape := []int{g.batch, g.h, g.w, g.inC}
	x := operand{f.gen(tensor.ShapeSize(xShape), 4), xShape}
	for _, name := range []string{"MaxPool", "AvgPool"} {
		checkAgainstReference(t, nb, name+"/"+g.String()+"/"+f.name, name, g.poolAttrs(), x)
	}
}

// checkConvForward runs Conv2D on g against the reference kernel.
func checkConvForward(t testing.TB, nb *Backend, g gradGeometry, f fill) {
	t.Helper()
	xShape := []int{g.batch, g.h, g.w, g.inC}
	wShape := []int{g.fh, g.fw, g.inC, g.outC}
	x := operand{f.gen(tensor.ShapeSize(xShape), 1), xShape}
	w := operand{f.gen(tensor.ShapeSize(wShape), 2), wShape}
	checkAgainstReference(t, nb, "Conv2D/"+g.String()+"/"+f.name, "Conv2D", g.convAttrs(), x, w)
}

// checkReductions runs the four [outer, inner] reductions and BiasAddGrad,
// which sums the outer dimension instead.
func checkReductions(t testing.TB, nb *Backend, outer, inner int, f fill) {
	t.Helper()
	x := operand{f.gen(outer*inner, 6), []int{outer, inner}}
	for _, name := range []string{"Sum", "Mean", "Max", "Min", "BiasAddGrad"} {
		checkAgainstReference(t, nb, fmt.Sprintf("%s/%dx%d/%s", name, outer, inner, f.name), name, nil, x)
	}
}

func checkTranspose(t testing.TB, nb *Backend, shape, perm []int, f fill) {
	t.Helper()
	x := operand{f.gen(tensor.ShapeSize(shape), 7), shape}
	checkAgainstReference(t, nb, fmt.Sprintf("Transpose/%v/%v/%s", shape, perm, f.name), "Transpose", kernels.Attrs{"perm": perm}, x)
}

// permutations returns every ordering of 0…n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int{}, p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// forwardPools is the pooling half of the matrix: 2×2, 3×3 and 3×2
// windows at strides 1–3 (overlapping, abutting and gapped), both pads on
// an odd-sized image, channel counts either side of one and of eight
// vector steps, a zero batch, and two shapes large enough that parallelFor
// cuts them into several chunks.
func forwardPools() []gradGeometry {
	var pools []gradGeometry
	for _, pad := range []string{"same", "valid"} {
		for _, win := range [][2]int{{2, 2}, {3, 3}, {3, 2}} {
			for stride := 1; stride <= 3; stride++ {
				for _, c := range []int{1, 3, 8, 9, 16, 17, 64, 65} {
					pools = append(pools, gradGeometry{batch: 2, h: 7, w: 9, inC: c, fh: win[0], fw: win[1], stride: stride, pad: pad})
				}
			}
		}
	}
	return append(pools,
		gradGeometry{batch: 0, h: 4, w: 4, inC: 2, fh: 2, fw: 2, stride: 2, pad: "valid"},
		gradGeometry{batch: 16, h: 24, w: 24, inC: 8, fh: 2, fw: 2, stride: 2, pad: "valid"},
		gradGeometry{batch: 16, h: 23, w: 24, inC: 16, fh: 3, fw: 3, stride: 2, pad: "same"},
	)
}

func checkForwardMatrix(t *testing.T, nb *Backend) {
	t.Helper()
	convs, _ := gradMatrix()
	for _, f := range forwardFills {
		for _, g := range forwardPools() {
			checkPools(t, nb, g, f)
		}
		// The gradient suite's geometries, forward: output rows of 8 and 16
		// floats and of every other width.
		for _, g := range convs {
			checkConvForward(t, nb, g, f)
		}
		// Empty on either side, one element, short and long rows, and
		// 64×2048: eight chunks. BiasAddGrad's columns: a vector step and
		// either side of one, four steps and either side of them.
		for _, outer := range []int{0, 1, 3, 17} {
			for _, inner := range []int{0, 1, 7, 8, 9, 31, 32, 33, 64, 1000} {
				checkReductions(t, nb, outer, inner, f)
			}
		}
		checkReductions(t, nb, 64, 2048, f)
		// The bench convnet's three bias gradients: [N·H·W, C].
		checkReductions(t, nb, 32*16*16, 8, f)
		checkReductions(t, nb, 32*8*8, 16, f)
		checkReductions(t, nb, 32, 10, f)
		// Every permutation of every rank up to four — the rotations
		// ops.reduce emits (alone and behind leading axes that stay put)
		// and everything that is not one — with unit and zero dims.
		for _, shape := range [][]int{{}, {6}, {5, 7}, {3, 1, 4}, {2, 0, 3}, {2, 3, 4, 5}, {1, 33, 1, 9}} {
			for _, perm := range permutations(len(shape)) {
				checkTranspose(t, nb, shape, perm, f)
			}
		}
		// The bias gradient's transpose and a global pool's, sized to
		// split across chunks and to leave ragged tile edges.
		checkTranspose(t, nb, []int{8, 16, 16, 8}, []int{3, 0, 1, 2}, f)
		checkTranspose(t, nb, []int{3, 7, 7, 65}, []int{0, 3, 1, 2}, f)
		checkTranspose(t, nb, []int{2, 3, 37, 41, 2}, []int{0, 1, 3, 4, 2}, f)
	}
}

// TestForwardKernelsBitIdenticalToReference: Conv2D, MaxPool, AvgPool,
// Sum, Mean, Max, Min, BiasAddGrad and Transpose on node agree with the reference
// kernels to the bit, at every worker count and with the AVX2 cores on or
// off.
func TestForwardKernelsBitIdenticalToReference(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			nb := New()
			nb.SetWorkers(workers)
			checkForwardMatrix(t, nb)
		})
	}
	t.Run("scalar", func(t *testing.T) {
		restore, _ := vec.ForceScalar()
		defer restore()
		nb := New()
		nb.SetWorkers(4)
		checkForwardMatrix(t, nb)
	})
}

// TestConvSkipsZeroLhsInEveryFilterRow: a zero x opposite an Inf or NaN
// weight contributes nothing wherever in the pixel's window it lies — first
// filter row or last, narrow output row or wide — so 0·Inf never reaches a
// sum as NaN on this backend, however the walk batches the pixel's taps
// into calls to the vector cores (AxpyRows under narrow output rows,
// GemmRow under wide ones).
func TestConvSkipsZeroLhsInEveryFilterRow(t *testing.T) {
	nb := benchBackend()
	for _, outC := range []int{8, 16, 12, 40} {
		for _, inC := range []int{1, 3, 16} { // 9, 27 and 144 taps a pixel: under and over nzCap
			for _, special := range []float32{inf32, -inf32, nan32} {
				for row := 0; row < 3; row++ {
					// One 3×3 window, "valid": a single output pixel. x is 1
					// except for ±0 across filter row `row`; w is 0.5 except
					// for the special opposite those zeros.
					x, w := make([]float32, 3*3*inC), make([]float32, 3*3*inC*outC)
					for i := range x {
						x[i] = 1
					}
					for i := range w {
						w[i] = 0.5
					}
					for i := row * 3 * inC; i < (row+1)*3*inC; i++ {
						x[i] = []float32{0, negZero32}[i%2]
						for oc := 0; oc < outC; oc++ {
							w[i*outC+oc] = special
						}
					}
					in := []kernels.Input{benchInput(nb, x, 1, 3, 3, inC), benchInput(nb, w, 3, 3, inC, outC)}
					var out kernels.TensorInfo
					if err := nb.table["Conv2D"](in, kernels.Attrs{}, &out); err != nil {
						t.Fatal(err)
					}
					for oc, v := range nb.Raw(out.DataID) {
						if want := float32(6*inC) * 0.5; v != want {
							t.Errorf("outC %d inC %d, zeros in filter row %d opposite %g: out[%d] = %g, want %g", outC, inC, row, special, oc, v, want)
						}
					}
					for _, id := range []tensor.DataID{in[0].DataID, in[1].DataID, out.DataID} {
						nb.DisposeData(id)
					}
				}
			}
		}
	}
}

// TestForwardKernelErrorParity: what the reference rejects the native
// kernel rejects, and a rejected call registers no output.
func TestForwardKernelErrorParity(t *testing.T) {
	nb := benchBackend()
	x := operand{make([]float32, 2*5*5*3), []int{2, 5, 5, 3}}
	flat := operand{make([]float32, 6), []int{2, 3}}
	perm := func(p ...int) kernels.Attrs { return kernels.Attrs{"perm": p} }
	for _, c := range []struct {
		label, kernel string
		attrs         kernels.Attrs
		ops           []operand
	}{
		{"pool/ok", "MaxPool", kernels.Attrs{}, []operand{x}},
		{"pool/rank", "MaxPool", kernels.Attrs{}, []operand{flat}},
		{"pool/two inputs", "AvgPool", kernels.Attrs{}, []operand{x, x}},
		{"pool/bad pad", "AvgPool", kernels.Attrs{"pad": "full"}, []operand{x}},
		{"pool/window larger than input", "MaxPool", kernels.Attrs{"filterSize": []int{6, 6}}, []operand{x}},
		{"reduce/rank", "Sum", nil, []operand{x}},
		{"reduce/no input", "Max", nil, nil},
		{"bias grad/rank", "BiasAddGrad", nil, []operand{x}},
		{"bias grad/two inputs", "BiasAddGrad", nil, []operand{flat, flat}},
		{"transpose/ok", "Transpose", perm(1, 0), []operand{flat}},
		{"transpose/short perm", "Transpose", perm(0), []operand{flat}},
		{"transpose/no perm", "Transpose", nil, []operand{flat}},
		{"transpose/repeated axis", "Transpose", perm(1, 1), []operand{flat}},
		{"transpose/axis out of range", "Transpose", perm(2, 0), []operand{flat}},
		{"transpose/negative axis", "Transpose", perm(-1, 0), []operand{flat}},
		{"transpose/two inputs", "Transpose", perm(1, 0), []operand{flat, flat}},
	} {
		checkAgainstReference(t, nb, c.label, c.kernel, c.attrs, c.ops...)
	}
}

// TestTransposeRunsRotationsNatively: the permutations ops.reduce emits —
// the reduced axes rotated innermost, behind any leading axes that stay —
// are the native kernel's; anything else is declined for the reference
// kernel to run.
func TestTransposeRunsRotationsNatively(t *testing.T) {
	nb := benchBackend()
	in := benchInput(nb, make([]float32, 2*3*4*5), 2, 3, 4, 5)
	for _, c := range []struct {
		perm   []int
		native bool
	}{
		{[]int{0, 1, 2, 3}, true},
		{[]int{3, 0, 1, 2}, true}, // Sum over [0, 1, 2]: a bias gradient
		{[]int{1, 2, 3, 0}, true},
		{[]int{2, 3, 0, 1}, true},
		{[]int{0, 3, 1, 2}, true}, // Mean over [1, 2]: a global average pool
		{[]int{0, 1, 3, 2}, true},
		{[]int{0, 2, 1, 3}, false},
		{[]int{3, 2, 1, 0}, false},
		{[]int{1, 0, 2, 3}, false},
		{[]int{1, 0}, false},
	} {
		var out kernels.TensorInfo
		err := nb.table["Transpose"]([]kernels.Input{in}, kernels.Attrs{"perm": c.perm}, &out)
		if c.native && err != nil {
			t.Errorf("perm %v: %v, want the native kernel to run it", c.perm, err)
		}
		if !c.native && err != kernels.ErrFallback {
			t.Errorf("perm %v: err = %v, want ErrFallback", c.perm, err)
		}
		if err == nil {
			nb.DisposeData(out.DataID)
		}
	}
}

// FuzzForwardKernels is FuzzGradKernels' sibling for the forward suite:
// the selector bytes pick a pooling geometry, a reduction shape (the four
// reductions and BiasAddGrad), a transpose shape and permutation or a
// forward convolution, and the
// operand cycles through data read as float32 bit patterns.
func FuzzForwardKernels(f *testing.F) {
	var specials []byte
	for _, v := range vecSpecials {
		specials = binary.LittleEndian.AppendUint32(specials, math.Float32bits(v))
	}
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), specials)
	f.Add(uint8(0x68), uint8(0x07), uint8(0x15), uint8(0x10), specials)
	f.Add(uint8(0x35), uint8(0x48), uint8(0x2a), uint8(0x21), specials[:12])
	f.Add(uint8(0x93), uint8(0x11), uint8(0x07), uint8(0x41), []byte{0, 0, 192, 127, 0, 0, 0, 128, 0, 0, 0, 0})
	f.Add(uint8(0x34), uint8(0x25), uint8(0x03), uint8(0x02), specials)  // rotation [3 0 1 2]
	f.Add(uint8(0x34), uint8(0x25), uint8(0x09), uint8(0x02), specials)  // prefix + rotation
	f.Add(uint8(0x34), uint8(0x25), uint8(0x17), uint8(0x02), specials)  // reversal
	f.Add(uint8(0xff), uint8(0xff), uint8(0xff), uint8(0x12), []byte{})  // rank 1
	f.Add(uint8(0x40), uint8(0x03), uint8(0x01), uint8(0xf2), specials)  // a zero dim
	f.Add(uint8(0xff), uint8(0x1f), uint8(0x00), uint8(0x01), specials)  // long rows
	f.Add(uint8(0x00), uint8(0x05), uint8(0x00), uint8(0x01), []byte{1}) // empty rows
	f.Add(uint8(0x08), uint8(0x13), uint8(0x00), uint8(0x01), specials)  // 19 rows of 8: a bias gradient
	f.Add(uint8(0x77), uint8(0x02), uint8(0x0a), uint8(0x13), specials)  // conv, outC 8
	f.Add(uint8(0x59), uint8(0x17), uint8(0x5a), uint8(0x27), specials)  // conv, outC 16, stride 2
	f.Add(uint8(0x95), uint8(0x28), uint8(0x4a), uint8(0x03), specials)  // conv, outC 3, dilation 2
	nb := New()
	nb.SetWorkers(3)
	f.Fuzz(func(t *testing.T, size, chans, filt, mode uint8, data []byte) {
		vals := make([]float32, max(1, len(data)/4))
		for i := range vals[:len(data)/4] {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		cycle := fill{"fuzz", func(n int, seed uint32) []float32 {
			out := make([]float32, n)
			for i := range out {
				out[i] = vals[(i+int(seed))%len(vals)]
			}
			return out
		}}
		switch mode & 3 {
		case 3:
			checkConvForward(t, nb, gradGeometry{
				batch: int(mode>>4) % 3, h: 1 + int(size&0xf)%11, w: 1 + int(size>>4)%11,
				inC: 1 + int(chans&0xf)%10, outC: []int{8, 16, 1 + int(chans>>4)}[int(chans>>4)%3],
				fh: 1 + int(filt&0x3), fw: 1 + int(filt>>2&0x3),
				stride: 1 + int(filt>>4&0x3)%3, dilation: 1 + int(filt>>6),
				pad: []string{"same", "valid"}[mode>>2&1],
			}, cycle)
		case 0:
			checkPools(t, nb, gradGeometry{
				batch: int(mode>>4) % 3, h: 1 + int(size&0xf)%11, w: 1 + int(size>>4)%11,
				inC: 1 + int(chans)%70,
				fh:  1 + int(filt&0x3), fw: 1 + int(filt>>2&0x3),
				stride: 1 + int(filt>>4&0x3)%3,
				pad:    []string{"same", "valid"}[mode>>2&1],
			}, cycle)
		case 1:
			checkReductions(t, nb, int(chans)%20, int(size)*int(1+filt%9), cycle)
		default:
			// Rank 0–4 from the mode, dims 0–4 from size and chans, and the
			// filt-th permutation of that rank.
			dims := []int{int(size&0xf) % 5, int(size>>4) % 5, int(chans&0xf) % 5, int(chans>>4) % 5}
			shape := dims[:int(mode>>4)%5]
			perms := permutations(len(shape))
			checkTranspose(t, nb, shape, perms[int(filt)%len(perms)], cycle)
		}
	})
}
