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
	return kernels.Attrs{FilterSize: []int{g.fh, g.fw}, Strides: []int{g.stride, g.stride}, Pad: g.pad}
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
	attrs := g.convAttrs()
	attrs.Activation = "relu6"
	bias := operand{f.gen(g.outC, 3), []int{g.outC}}
	checkAgainstReference(t, nb, "FusedConv2D/"+g.String()+"/"+f.name, "FusedConv2D", attrs, x, w, bias)
	// The depthwise pair on the same window, a channel multiplier of 1 or 2.
	wShape = []int{g.fh, g.fw, g.inC, 1 + g.outC%2}
	w = operand{f.gen(tensor.ShapeSize(wShape), 6), wShape}
	checkAgainstReference(t, nb, "DepthwiseConv2dNative/"+g.String()+"/"+f.name, "DepthwiseConv2dNative", g.convAttrs(), x, w)
	bias = operand{f.gen(g.inC*wShape[3], 7), []int{g.inC * wShape[3]}}
	checkAgainstReference(t, nb, "FusedDepthwiseConv2dNative/"+g.String()+"/"+f.name, "FusedDepthwiseConv2dNative", attrs, x, w, bias)
}

// checkReductions runs the seven reductions and Softmax over the inner
// dimension of [outer, inner], and Sum over the outer one (a bias
// gradient's columns).
func checkReductions(t testing.TB, nb *Backend, outer, inner int, f fill) {
	t.Helper()
	x := operand{f.gen(outer*inner, 6), []int{outer, inner}}
	for _, name := range []string{"Sum", "Mean", "Max", "Min", "Prod", "ArgMax", "ArgMin", "Any", "All"} {
		checkAgainstReference(t, nb, fmt.Sprintf("%s/%dx%d/%s", name, outer, inner, f.name), name, kernels.Attrs{Axes: []int{-1}}, x)
	}
	checkAgainstReference(t, nb, fmt.Sprintf("Softmax/%dx%d/%s", outer, inner, f.name), "Softmax", kernels.Attrs{}, x)
	checkAgainstReference(t, nb, fmt.Sprintf("Sum/leading/%dx%d/%s", outer, inner, f.name), "Sum", kernels.Attrs{Axes: []int{0}}, x)
}

func checkTranspose(t testing.TB, nb *Backend, shape, perm []int, f fill) {
	t.Helper()
	x := operand{f.gen(tensor.ShapeSize(shape), 7), shape}
	checkAgainstReference(t, nb, fmt.Sprintf("Transpose/%v/%v/%s", shape, perm, f.name), "Transpose", kernels.Attrs{Perm: perm}, x)
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
		checkAgainstReference(t, nb, "BatchMatMul/"+label, "BatchMatMul", kernels.Attrs{TransposeA: tr[0], TransposeB: tr[1]},
			operand{a, append([]int{3}, aShape...)}, operand{b, append([]int{1}, bShape...)})
		attrs := kernels.Attrs{TransposeA: tr[0], TransposeB: tr[1], Activation: []string{"relu6", "elu", "", "relu"}[i]}
		checkAgainstReference(t, nb, "_FusedMatMul/"+label, "_FusedMatMul", attrs,
			operand{a[:m*k], aShape}, operand{b, bShape}, operand{f.gen(n, 10), []int{n}})
	}
}

// checkShapeKernels runs the data-movement kernels on an input of shape: a
// slice, a tile, a pad, reverses of every axis and of the odd ones,
// concatenations with itself, casts to int32 and bool, scans along the
// first and the last axis, a gather along the first axis (and one with an
// index out of range, which node rejects as the reference kernel does), a
// one-hot of indices of that shape (-1 and depth among them) and a fill of
// it.
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
	check("Slice", kernels.Attrs{Begin: begin, Shape: size}, x)
	check("Tile", kernels.Attrs{Reps: reps}, x)
	check("PadV2", kernels.Attrs{Paddings: pads, Value: 0.5}, x)
	check("Concat", kernels.Attrs{Axis: -1}, x, x)
	check("Concat", kernels.Attrs{Axis: 0}, x, x, x)
	check("OneHot", kernels.Attrs{Depth: 3, OnValue: 2.0}, operand{idx, shape})
	check("Fill", kernels.Attrs{Shape: shape, Value: -1.5, DType: tensor.Int32})
	var odd []int
	for d := 1; d < rank; d += 2 {
		odd = append(odd, d)
	}
	check("Reverse", kernels.Attrs{}, x)
	check("Reverse", kernels.Attrs{Axes: odd}, x)
	check("Cast", kernels.Attrs{DType: tensor.Int32}, x)
	check("Cast", kernels.Attrs{DType: tensor.Bool}, x)
	if rank > 0 {
		check("CumSum", kernels.Attrs{Axis: 0, Reverse: true}, x)
		check("CumSum", kernels.Attrs{Axis: -1, Exclusive: true}, x)
		check("GatherV2", kernels.Attrs{Axis: 0}, x, operand{[]float32{float32(shape[0] - 1), 0, float32(shape[0] / 2)}, []int{3}})
		check("GatherV2", kernels.Attrs{Axis: -1}, x, operand{[]float32{0, float32(shape[rank-1])}, []int{2, 1}})
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

// elementwiseAttrs are the attributes the attribute-taking ops of the
// element-wise table run with in the matrix.
var elementwiseAttrs = map[string]kernels.Attrs{
	"ClipByValue": {ClipMin: -0.5, ClipMax: 0.25},
	"LeakyRelu":   {Alpha: 0.1},
	"Step":        {Alpha: 0.5},
}

// checkForwardMatrix runs the matrix on nb. It fails on a kernel of the
// range table it has no case for, so that a new kernel cannot skip it.
func checkForwardMatrix(t *testing.T, nb *Backend) {
	t.Helper()
	checked = map[string]bool{}
	defer func() { checked = nil }()
	convs, pools := gradMatrix()
	for _, f := range forwardFills {
		// Every other kernel of the table: a gradient of each window, Adam's
		// two, Select under a broadcast, batch norm on channel vectors.
		checkConvGrads(t, nb, convs[4], f)
		checkPoolGrads(t, nb, pools[0], f)
		checkAdam(t, nb, []int{3, 17}, f)
		checkAgainstReference(t, nb, "Select/"+f.name, "Select", kernels.Attrs{},
			operand{f.gen(5, 12), []int{5, 1}}, operand{f.gen(30, 13), []int{2, 5, 3}}, operand{f.gen(3, 14), []int{3}})
		p := operand{f.gen(9, 15), []int{9}}
		checkAgainstReference(t, nb, "FusedBatchNorm/"+f.name, "FusedBatchNorm", kernels.Attrs{Epsilon: 1e-3},
			operand{f.gen(2*3*9, 16), []int{2, 3, 9}}, p, operand{f.gen(9, 17), []int{9}}, p, p)
		// Every op of the element-wise table: a two-operand op on equal
		// shapes, a suffix row on either side — one large enough that
		// parallelFor cuts it into rows — and a non-suffix broadcast, a
		// one-operand op on a vector with a tail.
		for _, op := range kernels.ElementwiseOps() {
			label := op.Name + "/" + f.name
			if op.Binary == nil {
				checkAgainstReference(t, nb, label, op.Name, elementwiseAttrs[op.Name], operand{f.gen(3*7, 18), []int{3, 7}})
				continue
			}
			checkAgainstReference(t, nb, label+"/equal", op.Name, kernels.Attrs{}, operand{f.gen(3*7, 19), []int{3, 7}}, operand{f.gen(3*7, 20), []int{3, 7}})
			checkAgainstReference(t, nb, label+"/suffix", op.Name, kernels.Attrs{}, operand{f.gen(64*512, 21), []int{64, 512}}, operand{f.gen(512, 22), []int{512}})
			checkAgainstReference(t, nb, label+"/suffixFirst", op.Name, kernels.Attrs{}, operand{f.gen(7, 23), []int{7}}, operand{f.gen(3*7, 24), []int{3, 7}})
			checkAgainstReference(t, nb, label+"/nonSuffix", op.Name, kernels.Attrs{}, operand{f.gen(3, 25), []int{3, 1}}, operand{f.gen(7, 26), []int{1, 7}})
		}
		for _, g := range forwardPools() {
			checkPools(t, nb, g, f)
		}
		// The gradient suite's geometries, forward: output rows of 8 and 16
		// floats and of every other width.
		for _, g := range convs {
			checkConvForward(t, nb, g, f)
		}
		// Empty on either side, one element, short and long rows, and
		// 64×2048: eight chunks. A leading Sum's columns: a vector step and
		// either side of one, four steps and either side of them.
		for _, outer := range []int{0, 1, 3, 17} {
			for _, inner := range []int{0, 1, 7, 8, 9, 31, 32, 33, 64, 1000} {
				checkReductions(t, nb, outer, inner, f)
			}
		}
		checkReductions(t, nb, 64, 2048, f)
		// Sequences up and down, empty and split across chunks.
		for _, r := range [][3]float64{{0, 10, 1}, {3.5, -2, -0.25}, {1, 1, 1}, {-4096, 4096, 0.125}} {
			checkAgainstReference(t, nb, fmt.Sprintf("Range/%v", r), "Range", kernels.Attrs{Start: r[0], Stop: r[1], Step: r[2]})
		}
		// Softmax's rows of ±1000: an exp that overflows without the max.
		checkAgainstReference(t, nb, "Softmax/thousands/"+f.name, "Softmax", kernels.Attrs{},
			operand{[]float32{1000, -1000, 0, 1, -1, 1000, 1000, 999, -1e-39, 1e-45}, []int{2, 5}})
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
	for _, k := range kernels.RangeKernels() {
		if !checked[k.Name] {
			t.Errorf("%s: a range kernel with no case in the matrix", k.Name)
		}
	}
}

// TestForwardKernelsBitIdenticalToReference: every kernel of the range
// table on node — the convolutions, pools and matmuls over the matrix's
// geometries, the seven reductions (Sum over leading axes too) and
// Softmax over the same rows (one value, none, ±1000, the fills'
// specials), the shape kernels over its shapes, every element-wise op
// under each broadcast form, the rest on a case each
// (TestGradKernelsBitIdenticalToReference holds the gradients to their own
// matrix) — and GatherV2 agree with the reference kernels to the bit, at
// every worker count and with the AVX2 cores on or off.
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
	perm := func(p ...int) kernels.Attrs { return kernels.Attrs{Perm: p} }
	pool2 := kernels.Attrs{FilterSize: []int{2, 2}, Strides: []int{2, 2}}
	for _, c := range []struct {
		label, kernel string
		attrs         kernels.Attrs
		ops           []operand
	}{
		{"pool/ok", "MaxPool", pool2, []operand{x}},
		{"pool/rank", "MaxPool", pool2, []operand{flat}},
		{"pool/two inputs", "AvgPool", pool2, []operand{x, x}},
		{"pool/bad pad", "AvgPool", kernels.Attrs{FilterSize: []int{2, 2}, Strides: []int{2, 2}, Pad: "full"}, []operand{x}},
		{"pool/window larger than input", "MaxPool", kernels.Attrs{FilterSize: []int{6, 6}, Strides: []int{6, 6}}, []operand{x}},
		{"reduce/rank", "Sum", kernels.Attrs{Axes: []int{-1}}, []operand{x}},
		{"reduce/no input", "Max", kernels.Attrs{Axes: []int{-1}}, nil},
		{"leading sum/rank", "Sum", kernels.Attrs{Axes: []int{0}}, []operand{x}},
		{"leading sum/two inputs", "Sum", kernels.Attrs{Axes: []int{0}}, []operand{flat, flat}},
		{"transpose/ok", "Transpose", perm(1, 0), []operand{flat}},
		{"transpose/short perm", "Transpose", perm(0), []operand{flat}},
		{"transpose/no perm", "Transpose", kernels.Attrs{}, []operand{flat}},
		{"transpose/repeated axis", "Transpose", perm(1, 1), []operand{flat}},
		{"transpose/axis out of range", "Transpose", perm(2, 0), []operand{flat}},
		{"transpose/negative axis", "Transpose", perm(-1, 0), []operand{flat}},
		{"transpose/two inputs", "Transpose", perm(1, 0), []operand{flat, flat}},
		{"argmax/empty row", "ArgMax", kernels.Attrs{}, []operand{{nil, []int{3, 0}}}},
		{"matmul/inner dims", "BatchMatMul", kernels.Attrs{}, []operand{{make([]float32, 6), []int{1, 2, 3}}, {make([]float32, 6), []int{1, 2, 3}}}},
		{"matmul/batch dims", "BatchMatMul", kernels.Attrs{}, []operand{{make([]float32, 12), []int{2, 2, 3}}, {make([]float32, 27), []int{3, 3, 3}}}},
		{"fused matmul/bias", "_FusedMatMul", kernels.Attrs{}, []operand{flat, {make([]float32, 6), []int{3, 2}}, {make([]float32, 3), []int{3}}}},
		{"pad/negative", "PadV2", kernels.Attrs{Paddings: []int{0, 1, -1, 2}}, []operand{flat}},
		{"slice/out of bounds", "Slice", kernels.Attrs{Begin: []int{1, 0}, Shape: []int{2, 3}}, []operand{flat}},
		{"tile/zero reps", "Tile", kernels.Attrs{Reps: []int{1, 0}}, []operand{flat}},
		{"concat/mismatch", "Concat", kernels.Attrs{Axis: 1}, []operand{flat, {make([]float32, 9), []int{3, 3}}}},
		{"gather/axis", "GatherV2", kernels.Attrs{Axis: 2}, []operand{flat, {[]float32{0}, []int{1}}}},
		{"one-hot/depth", "OneHot", kernels.Attrs{Depth: 0}, []operand{flat}},
		{"fill/dtype", "Fill", kernels.Attrs{Shape: []int{2}, DType: tensor.DataType(99)}, nil},
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
		err := nb.table["Transpose"]([]kernels.Input{in}, kernels.Attrs{Perm: perm}, &out)
		_, want := ref([]kernels.Buffer{{Data: make([]float32, 2*3*4*5), Shape: in.Shape}}, kernels.Attrs{Perm: perm})
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Errorf("perm %v: err = %v, want %v", perm, err, want)
		}
		if err == nil {
			nb.DisposeData(out.DataID)
		}
	}
}

// FuzzForwardKernels is FuzzGradKernels' sibling for the forward suite: the
// selector bytes pick a pooling geometry, a reduction shape (the seven
// reductions and Sum over leading axes) with a matmul of its sizes, a
// transpose shape and permutation with the other shape kernels on that
// shape, or a forward convolution, and the operand cycles through data read
// as float32 bit patterns.
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
