package native

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// TestBinaryBroadcastBitIdenticalToReference: Add/Sub/Mul/RealDiv agree
// with the reference kernel to the bit on equal shapes, on the suffix
// broadcast the native row loop takes (either operand the row, so operand
// order is seen to be preserved: Sub and RealDiv do not commute) and on
// the general broadcast.
func TestBinaryBroadcastBitIdenticalToReference(t *testing.T) {
	backends := []*Backend{New(), New()}
	backends[0].SetWorkers(1)
	backends[1].SetWorkers(4)
	for _, c := range []struct {
		a, x   []int
		suffix bool // the native row loop runs it
	}{
		{[]int{2, 3, 5}, []int{2, 3, 5}, true},
		{[]int{2, 3, 5}, []int{5}, true},
		{[]int{2, 3, 5}, []int{1, 5}, true},
		{[]int{2, 3, 5}, []int{3, 5}, true},
		{[]int{2, 3, 5}, []int{}, true},
		{[]int{2, 3, 5}, []int{1}, true},
		{[]int{4, 5}, []int{1, 1, 5}, true}, // output gains the row's rank
		{[]int{5}, []int{1, 5}, true},
		{[]int{1}, []int{}, true},
		{[]int{4, 1}, []int{1}, true},
		{[]int{0, 5}, []int{5}, true},
		{[]int{3, 0}, []int{0}, false}, // a zero-size row: the general broadcast, over no values
		{[]int{0}, []int{}, true},
		{[]int{4, 5}, []int{4, 1}, false},
		{[]int{2, 3, 5}, []int{3, 1}, false},
		{[]int{4, 1}, []int{5}, false},
		{[]int{2, 1, 5}, []int{3, 5}, false},
		{[]int{4, 5}, []int{4}, false}, // not broadcastable: both reject
	} {
		if got := tensor.ShapesEqual(c.a, c.x) || kernels.SuffixPeriod(c.x, c.a) > 0 || kernels.SuffixPeriod(c.a, c.x) > 0; got != c.suffix {
			t.Errorf("%v with %v: native path = %v, want %v", c.a, c.x, got, c.suffix)
		}
		for _, name := range []string{"Add", "Sub", "Mul", "RealDiv"} {
			for _, nb := range backends {
				for _, f := range gradFills {
					a := operand{f.gen(tensor.ShapeSize(c.a), 6), c.a}
					x := operand{f.gen(tensor.ShapeSize(c.x), 7), c.x}
					checkAgainstReference(t, nb, fmt.Sprintf("%s/%v,%v/%s", name, c.a, c.x, f.name), name, kernels.Attrs{}, a, x)
					checkAgainstReference(t, nb, fmt.Sprintf("%s/%v,%v/%s", name, c.x, c.a, f.name), name, kernels.Attrs{}, x, a)
				}
			}
		}
	}
	// Large enough that parallelFor splits both the flat and the row form.
	nb := backends[1]
	big := operand{vecOperand(64*1024*3, 8), []int{64, 1024, 3}}
	for _, row := range []operand{{vecOperand(3, 9), []int{3}}, {[]float32{-0.5}, nil}, {vecOperand(1024*3, 10), []int{1024, 3}}} {
		checkAgainstReference(t, nb, "Sub/big,row", "Sub", kernels.Attrs{}, big, row)
		checkAgainstReference(t, nb, "RealDiv/row,big", "RealDiv", kernels.Attrs{}, row, big)
	}
}

// TestActivationLoopsBitIdenticalToReference: the slice-loop Relu, Relu6
// and Step keep the reference's edge semantics — Relu sends NaN and -0 to
// +0, Relu6 passes both through, Step passes NaN through and gives alpha
// to everything not above zero.
func TestActivationLoopsBitIdenticalToReference(t *testing.T) {
	nb := New()
	nb.SetWorkers(4)
	x := operand{append(vecOperand(50_000, 11), vecSpecials...), nil}
	x.shape = []int{len(x.vals)}
	checkAgainstReference(t, nb, "Relu", "Relu", kernels.Attrs{}, x)
	checkAgainstReference(t, nb, "Relu6", "Relu6", kernels.Attrs{}, x)
	checkAgainstReference(t, nb, "Step", "Step", kernels.Attrs{}, x)
	checkAgainstReference(t, nb, "Step/alpha", "Step", kernels.Attrs{Alpha: 0.2}, x)
	checkAgainstReference(t, nb, "Step/empty", "Step", kernels.Attrs{}, operand{nil, []int{0, 3}})
	checkAgainstReference(t, nb, "Step/no input", "Step", kernels.Attrs{})

	// requireSameFloats lets any NaN match any NaN; Step's contract is
	// that the very same NaN comes out.
	nan := math.Float32frombits(0x7fc12345)
	in := benchInput(nb, []float32{nan, -1, 2}, 3)
	var out kernels.TensorInfo
	if err := nb.table["Step"]([]kernels.Input{in}, kernels.Attrs{Alpha: -3.0}, &out); err != nil {
		t.Fatal(err)
	}
	got := nb.Raw(out.DataID)
	if math.Float32bits(got[0]) != 0x7fc12345 || got[1] != -3 || got[2] != 1 {
		t.Fatalf("Step([NaN(0x7fc12345), -1, 2], alpha=-3) = %v (NaN bits %#x)", got, math.Float32bits(got[0]))
	}
}

// poisonNext parks a NaN-poisoned buffer of n floats on nb's free list, so
// that the next output of n floats is drawn from it.
func poisonNext(nb *Backend, n int) {
	id := tensor.NewDataID()
	nb.WriteOwned(id, nb.AllocOver(n))
	nb.DisposeData(id)
}

// TestOverwritingKernelsUnderPoolPoison: the kernels whose output buffer is
// not zeroed (outOver) — the binaries (a general broadcast too), the unary
// rows, batch norm (a general broadcast too), Select, the reductions,
// softmax, the matmuls, the shape kernels, every backward
// window kernel and Adam's two — write every
// value of it. Each runs on a recycled buffer the pool has scribbled with
// NaN, on operands whose results hold no NaN, and agrees with the
// reference kernel to the bit: a value left unwritten reads NaN.
func TestOverwritingKernelsUnderPoolPoison(t *testing.T) {
	nb := New()
	nb.SetWorkers(3)
	nb.SetPoolPoison(true)
	dense := gradFills[0].gen
	positive := func(n int, seed uint32) []float32 {
		vals := dense(n, seed)
		for i, v := range vals {
			vals[i] = 0.5 + float32(math.Abs(float64(v)))
		}
		return vals
	}
	x := operand{dense(4*5*8, 1), []int{4, 5, 8}}
	y := operand{dense(4*5*8, 2), []int{4, 5, 8}}
	p := operand{positive(4*5*8, 3), []int{4, 5, 8}}
	row := operand{dense(8, 4), []int{8}}
	posRow := operand{positive(8, 5), []int{8}}
	flat := operand{dense(20*8, 6), []int{20, 8}}
	g := operand{dense(3*8, 7), []int{3, 8}}
	slot := operand{append(dense(3*8, 8), positive(3*8, 9)...), []int{2, 3, 8}}
	for _, c := range []struct {
		name  string
		attrs kernels.Attrs
		ops   []operand
	}{
		{"Add", kernels.Attrs{}, []operand{x, y}},
		{"Sub", kernels.Attrs{}, []operand{x, row}},
		{"Mul", kernels.Attrs{}, []operand{row, x}},
		{"RealDiv", kernels.Attrs{}, []operand{x, p}},
		{"Relu", kernels.Attrs{}, []operand{x}},
		{"Relu6", kernels.Attrs{}, []operand{x}},
		{"Step", kernels.Attrs{}, []operand{x}},
		{"Sigmoid", kernels.Attrs{}, []operand{x}},
		{"Tanh", kernels.Attrs{}, []operand{x}},
		{"Exp", kernels.Attrs{}, []operand{x}},
		{"Neg", kernels.Attrs{}, []operand{x}},
		{"Sqrt", kernels.Attrs{}, []operand{p}},
		{"Square", kernels.Attrs{}, []operand{x}},
		{"FusedBatchNorm", kernels.Attrs{Epsilon: 1e-3}, []operand{x, row, posRow, row, posRow}},
		{"Sum", kernels.Attrs{Axes: []int{-1}}, []operand{flat}},
		{"Mean", kernels.Attrs{Axes: []int{-1}}, []operand{flat}},
		{"Max", kernels.Attrs{Axes: []int{-1}}, []operand{flat}},
		{"Min", kernels.Attrs{Axes: []int{-1}}, []operand{flat}},
		{"Softmax", kernels.Attrs{}, []operand{flat}},
		{"Transpose", kernels.Attrs{Perm: []int{2, 0, 1}}, []operand{x}},
		{"Sub", kernels.Attrs{}, []operand{x, {dense(5, 10), []int{5, 1}}}},
		{"Prod", kernels.Attrs{Axes: []int{-1}}, []operand{flat}},
		{"ArgMax", kernels.Attrs{Axes: []int{-1}}, []operand{flat}},
		{"ArgMin", kernels.Attrs{Axes: []int{-1}}, []operand{flat}},
		{"BatchMatMul", kernels.Attrs{TransposeB: true}, []operand{{dense(2*5*8, 11), []int{2, 5, 8}}, {dense(3*8, 12), []int{1, 3, 8}}}},
		{"_FusedMatMul", kernels.Attrs{Activation: "relu"}, []operand{flat, {dense(8*6, 13), []int{8, 6}}, {dense(6, 14), []int{6}}}},
		{"Slice", kernels.Attrs{Begin: []int{1, 0, 2}, Shape: []int{2, -1, 4}}, []operand{x}},
		{"Tile", kernels.Attrs{Reps: []int{1, 2, 3}}, []operand{x}},
		{"PadV2", kernels.Attrs{Paddings: []int{1, 0, 0, 2, 1, 1}, Value: 0.5}, []operand{x}},
		{"Concat", kernels.Attrs{Axis: 1}, []operand{x, y}},
		{"GatherV2", kernels.Attrs{Axis: 0}, []operand{flat, {[]float32{3, 0, 19, 7}, []int{4}}}},
		{"OneHot", kernels.Attrs{Depth: 6, OnValue: 1}, []operand{{[]float32{0, 5, 2, 9, 1}, []int{5}}}},
		{"Fill", kernels.Attrs{Shape: []int{4, 5, 8}, Value: 1.5}, nil},
		{"Conv2DBackpropFilter", kernels.Attrs{Shape: []int{3, 3, 2, 8}, Pad: "same"},
			[]operand{{dense(2*4*4*2, 15), []int{2, 4, 4, 2}}, {dense(2*4*4*8, 16), []int{2, 4, 4, 8}}}},
		{"Sum", kernels.Attrs{Axes: []int{0}}, []operand{flat}},
		{"Conv2DBackpropInput", kernels.Attrs{Shape: []int{2, 4, 4, 2}, Pad: "same"},
			[]operand{{dense(2*4*4*8, 17), []int{2, 4, 4, 8}}, {dense(3*3*2*8, 18), []int{3, 3, 2, 8}}}},
		{"DepthwiseConv2dNativeBackpropInput", kernels.Attrs{Shape: []int{2, 4, 4, 2}, Pad: "same"},
			[]operand{{dense(2*4*4*4, 19), []int{2, 4, 4, 4}}, {dense(3*3*2*2, 20), []int{3, 3, 2, 2}}}},
		{"DepthwiseConv2dNativeBackpropFilter", kernels.Attrs{Shape: []int{3, 3, 2, 2}, Pad: "same"},
			[]operand{{dense(2*4*4*2, 21), []int{2, 4, 4, 2}}, {dense(2*4*4*4, 22), []int{2, 4, 4, 4}}}},
		{"MaxPoolGrad", kernels.Attrs{FilterSize: []int{2, 2}, Strides: []int{2, 2}}, []operand{{dense(2*2*2*2, 23), []int{2, 2, 2, 2}}, {dense(2*4*4*2, 24), []int{2, 4, 4, 2}}}},
		{"AvgPoolGrad", kernels.Attrs{FilterSize: []int{2, 2}, Strides: []int{2, 2}, Shape: []int{2, 4, 4, 2}}, []operand{{dense(2*2*2*2, 25), []int{2, 2, 2, 2}}}},
		{"Select", kernels.Attrs{}, []operand{{dense(5, 26), []int{5, 1}}, x, row}},
		{"FusedBatchNorm", kernels.Attrs{Epsilon: 1e-3}, []operand{x, {dense(5, 27), []int{5, 1}}, {positive(5, 28), []int{5, 1}}, row, posRow}},
		{"AdamMoments", adamAttrs[0], []operand{slot, g}},
		{"ApplyAdam", adamAttrs[1], []operand{g, slot, adamCorr}},
	} {
		bufs := make([]kernels.Buffer, len(c.ops))
		for i, o := range c.ops {
			bufs[i] = kernels.Buffer{Data: o.vals, Shape: o.shape, DType: tensor.Float32}
		}
		ref, _ := kernels.LookupRef(c.name)
		want, err := ref(bufs, c.attrs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		poisonNext(nb, len(want.Data))
		hits := nb.Memory().PoolHits
		checkAgainstReference(t, nb, c.name+"/poisoned", c.name, c.attrs, c.ops...)
		if nb.Memory().PoolHits == hits {
			t.Errorf("%s: the output was not drawn from the poisoned free list", c.name)
		}
	}
}

// TestBatchNormBitIdenticalToReference: FusedBatchNorm with [C] statistics
// runs vec's normalise row and agrees with the reference kernel to the bit
// — the same subtract, divide, multiply and add per value, where the
// kernel it replaced folded them into x·(scale/sd) + (offset − mean·scale/sd)
// — for channel counts under, at and over a vector step and wider than
// the row's √(variance+ε) tile, on every forward-kernel fill (NaN, ±Inf, ±0
// and denormals among them) with the variances as filled (negative ones
// normalise to NaN) and made non-negative, at every worker count and with
// the AVX2 cores on or off, and on an empty channel axis.
func TestBatchNormBitIdenticalToReference(t *testing.T) {
	check := func(t *testing.T, nb *Backend) {
		attrs := kernels.Attrs{Epsilon: 1e-3}
		for _, f := range forwardFills {
			for _, c := range []int{1, 7, 8, 9, 32, 300} {
				for _, shape := range [][]int{{2, 3, 5, c}, {c}} {
					for _, nonNegative := range []bool{false, true} {
						x := operand{f.gen(tensor.ShapeSize(shape), 1), shape}
						p := make([]operand, 4) // mean, variance, offset, scale
						for i := range p {
							p[i] = operand{f.gen(c, uint32(i)+2), []int{c}}
						}
						if nonNegative {
							for i, v := range p[1].vals {
								p[1].vals[i] = float32(math.Abs(float64(v)))
							}
						}
						label := fmt.Sprintf("FusedBatchNorm/%v/%s/nonNegative=%v", shape, f.name, nonNegative)
						checkAgainstReference(t, nb, label, "FusedBatchNorm", attrs, x, p[0], p[1], p[2], p[3])
					}
				}
			}
		}
		// Large enough that parallelFor splits it.
		x := operand{vecOperand(4*24*24*32, 3), []int{4, 24, 24, 32}}
		p := operand{vecOperand(32, 4), []int{32}}
		checkAgainstReference(t, nb, "FusedBatchNorm/4x24x24x32", "FusedBatchNorm", attrs, x, p, p, p, p)
		empty := operand{nil, []int{0}}
		checkAgainstReference(t, nb, "FusedBatchNorm/empty channels", "FusedBatchNorm", attrs, operand{nil, []int{2, 0}}, empty, empty, empty, empty)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			nb := New()
			nb.SetWorkers(workers)
			check(t, nb)
		})
	}
	t.Run("scalar", func(t *testing.T) {
		restore, _ := vec.ForceScalar()
		defer restore()
		nb := New()
		nb.SetWorkers(4)
		check(t, nb)
	})
}
