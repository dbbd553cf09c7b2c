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

// checkReductions runs the seven [outer, inner] reductions and
// BiasAddGrad, which sums the outer dimension instead.
func checkReductions(t testing.TB, nb *Backend, outer, inner int, f fill) {
	t.Helper()
	x := operand{f.gen(outer*inner, 6), []int{outer, inner}}
	for _, name := range []string{"Sum", "Mean", "Max", "Min", "Prod", "ArgMax", "ArgMin", "BiasAddGrad"} {
		checkAgainstReference(t, nb, fmt.Sprintf("%s/%dx%d/%s", name, outer, inner, f.name), name, nil, x)
	}
}

func checkTranspose(t testing.TB, nb *Backend, shape, perm []int, f fill) {
	t.Helper()
	x := operand{f.gen(tensor.ShapeSize(shape), 7), shape}
	checkAgainstReference(t, nb, fmt.Sprintf("Transpose/%v/%v/%s", shape, perm, f.name), "Transpose", kernels.Attrs{"perm": perm}, x)
}

// checkMatMuls runs BatchMatMul on an m×k·k×n product — A a batch of
// three against B's broadcast one — and _FusedMatMul with a bias and an
// activation, for every pair of transposes.
func checkMatMuls(t testing.TB, nb *Backend, m, k, n int, f fill) {
	t.Helper()
	for i, tr := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		aShape, bShape := []int{m, k}, []int{k, n}
		if tr[0] {
			aShape = []int{k, m}
		}
		if tr[1] {
			bShape = []int{n, k}
		}
		label := fmt.Sprintf("%dx%dx%d/ta=%v/tb=%v/%s", m, k, n, tr[0], tr[1], f.name)
		a, b := f.gen(3*m*k, 8), f.gen(k*n, 9)
		checkAgainstReference(t, nb, "BatchMatMul/"+label, "BatchMatMul", kernels.Attrs{"transposeA": tr[0], "transposeB": tr[1]},
			operand{a, append([]int{3}, aShape...)}, operand{b, append([]int{1}, bShape...)})
		attrs := kernels.Attrs{"transposeA": tr[0], "transposeB": tr[1], "activation": []string{"relu6", "elu", "", "relu"}[i]}
		checkAgainstReference(t, nb, "_FusedMatMul/"+label, "_FusedMatMul", attrs,
			operand{a[:m*k], aShape}, operand{b, bShape}, operand{f.gen(n, 10), []int{n}})
	}
}

// checkShapeKernels runs the data-movement kernels on an input of shape: a
// slice, a tile, a pad, concatenations with itself, a gather along the
// first axis (and one with an index out of range, which node declines for
// the reference kernel to reject), a one-hot of indices of that shape
// (-1 and depth among them) and a fill of it.
func checkShapeKernels(t testing.TB, nb *Backend, shape []int, f fill) {
	t.Helper()
	rank := len(shape)
	x := operand{f.gen(tensor.ShapeSize(shape), 11), shape}
	begin, size, reps, pads := make([]int, rank), make([]int, rank), make([]int, rank), make([]int, 2*rank)
	for d, n := range shape {
		begin[d], size[d] = min(d%2, n), -1
		if d%3 == 2 {
			size[d] = n - begin[d] - min(1, n-begin[d])
		}
		reps[d], pads[2*d], pads[2*d+1] = 1+d%3, d%2, (d+1)%3
	}
	idx := make([]float32, len(x.vals))
	for i := range idx {
		idx[i] = float32(i%5 - 1)
	}
	check := func(name string, attrs kernels.Attrs, ops ...operand) {
		checkAgainstReference(t, nb, fmt.Sprintf("%s/%v/%s", name, shape, f.name), name, attrs, ops...)
	}
	check("Slice", kernels.Attrs{"begin": begin, "size": size}, x)
	check("Tile", kernels.Attrs{"reps": reps}, x)
	check("PadV2", kernels.Attrs{"paddings": pads, "constantValue": 0.5}, x)
	check("Concat", kernels.Attrs{"axis": -1}, x, x)
	check("Concat", kernels.Attrs{"axis": 0}, x, x, x)
	check("OneHot", kernels.Attrs{"depth": 3, "onValue": 2.0}, operand{idx, shape})
	check("Fill", kernels.Attrs{"shape": shape, "value": -1.5, "dtype": "int32"})
	if rank > 0 {
		check("GatherV2", kernels.Attrs{"axis": 0}, x, operand{[]float32{float32(shape[0] - 1), 0, float32(shape[0] / 2)}, []int{3}})
		check("GatherV2", kernels.Attrs{"axis": -1}, x, operand{[]float32{0, float32(shape[rank-1])}, []int{2, 1}})
	}
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
			checkShapeKernels(t, nb, shape, f)
		}
		// Sized to split across chunks.
		checkShapeKernels(t, nb, []int{8, 16, 16, 8}, f)
		// Products: empty on each side, a GEMV, rows either side of a vector
		// step and of an NZList, and one that splits across chunks.
		for _, mkn := range [][3]int{{1, 1, 1}, {0, 4, 2}, {2, 0, 3}, {3, 5, 0}, {1, 70, 9}, {4, 9, 8}, {17, 33, 16}, {64, 40, 300}} {
			checkMatMuls(t, nb, mkn[0], mkn[1], mkn[2], f)
		}
		// The bias gradient's transpose and a global pool's, sized to
		// split across chunks and to leave ragged tile edges.
		checkTranspose(t, nb, []int{8, 16, 16, 8}, []int{3, 0, 1, 2}, f)
		checkTranspose(t, nb, []int{3, 7, 7, 65}, []int{0, 3, 1, 2}, f)
		checkTranspose(t, nb, []int{2, 3, 37, 41, 2}, []int{0, 1, 3, 4, 2}, f)
	}
}

// TestForwardKernelsBitIdenticalToReference: Conv2D, MaxPool, AvgPool,
// the seven reductions, BiasAddGrad, BatchMatMul, _FusedMatMul and the
// shape kernels (Transpose, Slice, Tile, PadV2, Concat, GatherV2, OneHot,
// Fill) on node agree with the reference kernels to the bit, at every
// worker count and with the AVX2 cores on or off.
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
		{"argmax/empty row", "ArgMax", nil, []operand{{nil, []int{3, 0}}}},
		{"matmul/inner dims", "BatchMatMul", nil, []operand{{make([]float32, 6), []int{1, 2, 3}}, {make([]float32, 6), []int{1, 2, 3}}}},
		{"matmul/batch dims", "BatchMatMul", nil, []operand{{make([]float32, 12), []int{2, 2, 3}}, {make([]float32, 27), []int{3, 3, 3}}}},
		{"fused matmul/bias", "_FusedMatMul", nil, []operand{flat, {make([]float32, 6), []int{3, 2}}, {make([]float32, 3), []int{3}}}},
		{"pad/negative", "PadV2", kernels.Attrs{"paddings": []int{0, 1, -1, 2}}, []operand{flat}},
		{"slice/out of bounds", "Slice", kernels.Attrs{"begin": []int{1, 0}, "size": []int{2, 3}}, []operand{flat}},
		{"tile/zero reps", "Tile", kernels.Attrs{"reps": []int{1, 0}}, []operand{flat}},
		{"concat/mismatch", "Concat", kernels.Attrs{"axis": 1}, []operand{flat, {make([]float32, 9), []int{3, 3}}}},
		{"gather/axis", "GatherV2", kernels.Attrs{"axis": 2}, []operand{flat, {[]float32{0}, []int{1}}}},
		{"one-hot/depth", "OneHot", kernels.Attrs{"depth": 0}, []operand{flat}},
		{"fill/dtype", "Fill", kernels.Attrs{"shape": []int{2}, "dtype": "complex64"}, nil},
	} {
		checkAgainstReference(t, nb, c.label, c.kernel, c.attrs, c.ops...)
	}
}

// TestTransposeRunsEveryPermutationNatively: every permutation of a rank-4
// tensor runs on node's kernel — the rotations ops.reduce emits and every
// other one — and a malformed perm is refused with the reference kernel's
// own error. (Until node ran the shared view body, only the rotations were
// its own, every other permutation and every malformed one declined for
// the reference kernel.)
func TestTransposeRunsEveryPermutationNatively(t *testing.T) {
	nb := benchBackend()
	in := benchInput(nb, make([]float32, 2*3*4*5), 2, 3, 4, 5)
	ref, _ := kernels.LookupRef("Transpose")
	for _, perm := range append(permutations(4), []int{1, 0}, []int{0, 1, 1, 3}, []int{0, 1, 2, 4}, []int{-1, 0, 1, 2}) {
		var out kernels.TensorInfo
		err := nb.table["Transpose"]([]kernels.Input{in}, kernels.Attrs{"perm": perm}, &out)
		_, want := ref([]kernels.Buffer{{Data: make([]float32, 2*3*4*5), Shape: in.Shape}}, kernels.Attrs{"perm": perm})
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Errorf("perm %v: err = %v, want %v", perm, err, want)
		}
		if err == nil {
			nb.DisposeData(out.DataID)
		}
	}
}

// FuzzForwardKernels is FuzzGradKernels' sibling for the forward suite:
// the selector bytes pick a pooling geometry, a reduction shape (the seven
// reductions and BiasAddGrad) with a matmul of its sizes, a transpose shape
// and permutation with the other shape kernels on that shape, or a forward
// convolution, and the operand cycles through data read as float32 bit
// patterns.
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
	f.Add(uint8(0x12), uint8(0x0a), uint8(0x08), uint8(0x01), specials)  // reductions 10×162, matmul 3×7×9
	f.Add(uint8(0x43), uint8(0x02), uint8(0x07), uint8(0x32), specials)  // shape kernels on [3 4 2]
	f.Add(uint8(0x21), uint8(0x30), uint8(0x0b), uint8(0x42), specials)  // shape kernels on [1 2 0 3]
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
			checkMatMuls(t, nb, int(chans)%7, int(size)%11, 1+int(filt)%13, cycle)
		default:
			// Rank 0–4 from the mode, dims 0–4 from size and chans, and the
			// filt-th permutation of that rank.
			dims := []int{int(size&0xf) % 5, int(size>>4) % 5, int(chans&0xf) % 5, int(chans>>4) % 5}
			shape := dims[:int(mode>>4)%5]
			perms := permutations(len(shape))
			checkTranspose(t, nb, shape, perms[int(filt)%len(perms)], cycle)
			checkShapeKernels(t, nb, shape, cycle)
		}
	})
}
