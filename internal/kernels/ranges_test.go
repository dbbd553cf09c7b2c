package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
	"repro/internal/vec"
)

// rangeBody resolves one call of kernel through the table as the tiers
// do, its staged buffer computed once, and returns its range body over
// the call's operands: what native hands its output chunks and webgl its
// texel ranges.
func rangeBody(t *testing.T, kernel string, ins []Buffer, attrs Attrs) func(lo int, dst []float32) {
	t.Helper()
	in := make([][]float32, len(ins))
	for i := range ins {
		in[i] = ins[i].Data
	}
	k, ok := LookupKernel(kernel)
	if !ok {
		t.Fatalf("%s: no range body", kernel)
	}
	r, err := k.Resolve(kernel, inputsOf(ins), attrs, &TensorInfo{})
	if err != nil {
		t.Fatalf("%s: %v", kernel, err)
	}
	if n := r.Stage.Len(); n > 0 {
		staged := make([]float32, n)
		r.Stage.Run(in, staged)
		in = append(in, staged)
	}
	return func(lo int, dst []float32) { r.Fill(in, lo, dst) }
}

// TestRangeBodiesMatchReference: the body of every kernel of the range
// table — each fails the test without a case here — resolved as the tiers
// resolve them, at strides,
// dilations, same and valid padding, overlapping windows, a channel
// multiplier of 2 and batch 0, Softmax's rows of specials cut mid-row,
// and every element-wise op on every shape
// case of the element-wise tier test (equal shapes, a suffix row on either
// side, a scalar, a non-suffix broadcast, a column), cut in two at every
// split point of small shapes — a cut inside a repeated row is the range
// webgl's device hands out mid-row — on both bodies of the vector cores,
// write every value (none read first) Float32bits-equal to one uncut call,
// which is the reference kernel's function to the bit — two NaNs equal
// whatever their payloads, as in the walk's test: a narrow filter row cut
// mid-row is a GemmRow instead of an AxpyRows, which meet two NaNs in the
// other operand order.
func TestRangeBodiesMatchReference(t *testing.T) {
	type rangeCase struct {
		label, kernel string
		ins           []Buffer
		attrs         Attrs
	}
	rng := rand.New(rand.NewSource(31))
	op := func(shape ...int) Buffer { return buf(walkOperand(rng, tensor.ShapeSize(shape)), shape...) }
	ints := func(vals ...float32) Buffer { return Buffer{Data: vals, Shape: []int{len(vals)}, DType: tensor.Int32} }
	mm := func(ta, tb bool, act string) Attrs {
		return Attrs{TransposeA: ta, TransposeB: tb, Activation: act}
	}
	// Ties and a NaN in each row, for the comparisons.
	rows := buf([]float32{2, 2, -1, 5, 5, 0, float32(math.Copysign(0, -1)), 0, -3, 1, float32(math.NaN()), 4, 4, -2, 1}, 3, 5)
	slot := op(2, 3, 4)
	for i := 12; i < 24; i++ {
		slot.Data[i] = float32(math.Abs(float64(slot.Data[i]))) // a second moment
	}
	// grad is a gradient of a convolution of x [n, h, w, c] by filter f; its
	// inputs are (x, dy) for a filter gradient, (dy, f) for an input one.
	grad := func(kernel string, x, f, strides, dilations []int, pad string) rangeCase {
		info, err := ComputeConv2DInfo(x, f, strides, dilations, pad, strings.HasPrefix(kernel, "Depthwise"))
		if err != nil {
			t.Fatal(err)
		}
		attrs := Attrs{Shape: f, Strides: strides, Dilations: dilations, Pad: pad}
		ins := []Buffer{op(x...), op(info.OutShape()...)}
		if strings.HasSuffix(kernel, "BackpropInput") {
			attrs.Shape, ins = x, []Buffer{op(info.OutShape()...), op(f...)}
		}
		return rangeCase{fmt.Sprintf("%v%v%v%v", x, f, strides, dilations), kernel, ins, attrs}
	}
	filter := func(x, f, strides, dilations []int, pad string) rangeCase {
		return grad("Conv2DBackpropFilter", x, f, strides, dilations, pad)
	}
	// poolGrad is a pool gradient of x by a size window; MaxPoolGrad's x is
	// rounded to whole numbers, so that windows tie.
	poolGrad := func(kernel string, x, size, strides []int, pad string) rangeCase {
		info, err := ComputePool2DInfo(x, size, strides, pad)
		if err != nil {
			t.Fatal(err)
		}
		ins := []Buffer{op(info.OutShape()...)}
		if kernel == "MaxPoolGrad" {
			xs := op(x...)
			for i, v := range xs.Data {
				xs.Data[i] = float32(math.Round(float64(v)))
			}
			ins = append(ins, xs)
		}
		return rangeCase{fmt.Sprintf("%v%v%v%s", x, size, strides, pad), kernel, ins,
			Attrs{Shape: x, FilterSize: size, Strides: strides, Pad: pad}}
	}
	s1, s2 := []int{1, 1}, []int{2, 2}
	cases := []rangeCase{
		{"plain", "BatchMatMul", []Buffer{op(2, 3, 4), op(2, 4, 5)}, mm(false, false, "")},
		{"ta", "BatchMatMul", []Buffer{op(2, 4, 3), op(2, 4, 5)}, mm(true, false, "")},
		{"tb", "BatchMatMul", []Buffer{op(2, 3, 4), op(2, 5, 4)}, mm(false, true, "")},
		{"tatb", "BatchMatMul", []Buffer{op(1, 4, 3), op(2, 5, 4)}, mm(true, true, "")},
		{"bcastB", "BatchMatMul", []Buffer{op(3, 2, 70), op(1, 70, 3)}, mm(false, false, "")},
		{"k0", "BatchMatMul", []Buffer{op(1, 0, 2), op(1, 0, 3)}, mm(true, false, "")},
		{"rank2", "BatchMatMul", []Buffer{op(3, 4), op(4, 5)}, mm(false, false, "")},
		{"rank2ta", "BatchMatMul", []Buffer{op(4, 3), op(4, 5)}, mm(true, false, "")},
		{"rank2tb", "BatchMatMul", []Buffer{op(3, 4), op(5, 4)}, mm(false, true, "")},
		{"rank2tatb", "BatchMatMul", []Buffer{op(4, 3), op(5, 4)}, mm(true, true, "")},
		{"bias", "_FusedMatMul", []Buffer{op(3, 4), op(4, 5), op(5)}, mm(false, false, "relu6")},
		{"tatbElu", "_FusedMatMul", []Buffer{op(4, 3), op(5, 4), op(5)}, mm(true, true, "elu")},
		{"noBias", "_FusedMatMul", []Buffer{op(3, 4), op(4, 5)}, mm(false, false, "relu")},
		{"rows", "Sum", []Buffer{op(9, 11)}, Attrs{Axes: []int{0}}},
		{"zeroRows", "Sum", []Buffer{op(0, 5)}, Attrs{Axes: []int{0}}},
		{"moments", "AdamMoments", []Buffer{slot, op(3, 4)}, Attrs{Beta1: 0.9, Beta2: 0.999}},
		{"step", "ApplyAdam", []Buffer{op(3, 4), slot, {Data: AdamCorrections(0.9, 0.999, 3), Shape: []int{2}}}, Attrs{LearningRate: 0.01, Epsilon: 1e-8}},
		{"rotate", "Transpose", []Buffer{op(2, 3, 4)}, Attrs{Perm: []int{2, 0, 1}}},
		{"blocks", "Transpose", []Buffer{op(2, 3, 4, 5)}, Attrs{Perm: []int{0, 3, 1, 2}}},
		{"squeezy", "Transpose", []Buffer{op(1, 5, 1, 3)}, Attrs{Perm: []int{3, 1, 2, 0}}},
		{"reverse", "Transpose", []Buffer{op(2, 3, 2, 3)}, Attrs{Perm: []int{3, 2, 1, 0}}},
		{"scalar", "Transpose", []Buffer{op()}, Attrs{Perm: []int{}}},
		{"rows", "Slice", []Buffer{op(3, 4, 5)}, Attrs{Begin: []int{1, 0, 2}, Shape: []int{2, -1, 2}}},
		{"wholeRows", "Slice", []Buffer{op(4, 3, 5)}, Attrs{Begin: []int{1, 0, 0}, Shape: []int{2, 3, 5}}},
		{"rep", "Tile", []Buffer{op(2, 3)}, Attrs{Reps: []int{2, 3}}},
		{"unit", "Tile", []Buffer{op(1, 3, 1)}, Attrs{Reps: []int{3, 1, 2}}},
		{"rep", "PadV2", []Buffer{op(3, 4)}, Attrs{Paddings: []int{1, 2, 0, 3}, Value: 0.5}},
		{"rank3", "PadV2", []Buffer{op(2, 1, 3)}, Attrs{Paddings: []int{0, 1, 2, 0, 1, 1}}},
		{"emptyInput", "PadV2", []Buffer{op(2, 0, 3)}, Attrs{Paddings: []int{0, 0, 1, 1, 0, 0}, Value: -1.0}},
		{"scalar", "PadV2", []Buffer{op()}, Attrs{Paddings: []int{}}},
		{"axis1", "Concat", []Buffer{op(2, 3), op(2, 0), op(2, 2)}, Attrs{Axis: 1}},
		{"axis0", "Concat", []Buffer{op(2, 3, 2), op(1, 3, 2), op(3, 3, 2)}, Attrs{Axis: 0}},
		{"negAxis", "Concat", []Buffer{op(2, 3, 1), op(2, 3, 4)}, Attrs{Axis: -1}},
		{"axis0", "GatherV2", []Buffer{op(5, 3), ints(4, 0, 0, 2)}, Attrs{Axis: 0}},
		{"axis1", "GatherV2", []Buffer{op(3, 4, 2), ints(3, 1, 1, 0)}, Attrs{Axis: 1}},
		{"labels", "OneHot", []Buffer{ints(1, 4, -1, 0, 7, 2)}, Attrs{Depth: 5, OnValue: 2.0, OffValue: -1.0}},
		{"nonSuffix", "Sub", []Buffer{op(2, 5, 3), op(5, 1)}, Attrs{}},
		{"bothBroadcast", "Sub", []Buffer{op(5, 1), op(1, 7)}, Attrs{}},
		{"units", "Sub", []Buffer{op(1, 1), op(1)}, Attrs{}},
		{"int32", "Fill", nil, Attrs{Shape: []int{3, 4}, Value: 2.5, DType: tensor.Int32}},
		filter([]int{2, 5, 6, 3}, []int{3, 3, 3, 8}, []int{1, 1}, []int{1, 1}, "same"),
		filter([]int{1, 7, 6, 4}, []int{2, 3, 4, 16}, []int{2, 1}, []int{1, 2}, "same"),
		filter([]int{2, 6, 5, 2}, []int{3, 2, 2, 9}, []int{2, 2}, []int{2, 1}, "valid"),
		grad("Conv2DBackpropInput", []int{2, 5, 6, 3}, []int{3, 3, 3, 8}, s1, s1, "same"),
		grad("Conv2DBackpropInput", []int{1, 7, 6, 4}, []int{2, 3, 4, 16}, []int{2, 1}, []int{1, 2}, "same"),
		grad("Conv2DBackpropInput", []int{2, 6, 5, 2}, []int{3, 2, 2, 9}, s2, []int{2, 1}, "valid"),
		grad("Conv2DBackpropInput", []int{1, 7, 6, 5}, []int{3, 3, 5, 12}, s1, s2, "same"),
		grad("Conv2DBackpropInput", []int{1, 3, 3, 2}, []int{2, 2, 2, 70}, s2, s1, "same"),
		grad("Conv2DBackpropInput", []int{0, 4, 4, 3}, []int{3, 3, 3, 2}, s1, s1, "same"),
		grad("DepthwiseConv2dNativeBackpropInput", []int{1, 6, 5, 3}, []int{3, 3, 3, 2}, s2, s1, "same"),
		grad("DepthwiseConv2dNativeBackpropInput", []int{2, 5, 6, 4}, []int{3, 3, 4, 1}, s1, s2, "same"),
		grad("DepthwiseConv2dNativeBackpropInput", []int{1, 7, 6, 2}, []int{2, 3, 2, 2}, []int{2, 1}, s1, "valid"),
		grad("DepthwiseConv2dNativeBackpropInput", []int{0, 4, 4, 3}, []int{3, 3, 3, 1}, s1, s1, "same"),
		grad("DepthwiseConv2dNativeBackpropFilter", []int{1, 6, 5, 3}, []int{3, 3, 3, 2}, s2, s1, "same"),
		grad("DepthwiseConv2dNativeBackpropFilter", []int{2, 5, 6, 4}, []int{3, 3, 4, 1}, s1, s2, "same"),
		grad("DepthwiseConv2dNativeBackpropFilter", []int{1, 7, 6, 2}, []int{2, 3, 2, 2}, []int{2, 1}, s1, "valid"),
		grad("DepthwiseConv2dNativeBackpropFilter", []int{0, 4, 4, 3}, []int{3, 3, 3, 1}, s1, s1, "same"),
		{"nonSuffix", "Select", []Buffer{op(5, 1), op(2, 5, 3), op(3)}, Attrs{}},
		{"scalarCond", "Select", []Buffer{op(), op(4, 3), op(4, 1)}, Attrs{}},
		{"same", "Select", []Buffer{op(2, 3), op(2, 3), op(2, 3)}, Attrs{}},
		{"nonSuffix", "FusedBatchNorm", []Buffer{op(2, 3, 5, 3), op(5, 1), op(5, 1), op(1, 3), op()}, Attrs{Epsilon: 1e-3}},
		{"suffix", "FusedBatchNorm", []Buffer{op(2, 3, 5), op(5), op(5), op(1, 5), op(5)}, Attrs{Epsilon: 1e-3}},
	}
	for _, kernel := range []string{"MaxPoolGrad", "AvgPoolGrad"} {
		cases = append(cases,
			poolGrad(kernel, []int{2, 5, 7, 3}, []int{2, 2}, s2, "same"),
			poolGrad(kernel, []int{1, 7, 5, 4}, []int{3, 3}, s2, "same"),
			poolGrad(kernel, []int{1, 4, 6, 3}, []int{3, 2}, s1, "valid"),
			poolGrad(kernel, []int{0, 4, 4, 2}, []int{2, 2}, s2, "valid"))
	}
	// The kernels that ran on the reference kernel through host memory
	// until they joined the table: two reductions, a view, two closed forms
	// and a scan.
	neg := float32(math.Copysign(0, -1))
	specials := buf([]float32{1.5, -2.7, 0, neg, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e-40, 2.5e9, -0.5, 7, 1}, 3, 4)
	cases = append(cases,
		rangeCase{"zeros", "Any", []Buffer{buf([]float32{0, 0, 0, 1, 0, 0, neg, 0, float32(math.NaN())}, 3, 3)}, Attrs{Axes: []int{1}}},
		rangeCase{"zeros", "All", []Buffer{buf([]float32{1, 2, 3, 1, 0, 5, neg, 4, float32(math.NaN())}, 3, 3)}, Attrs{Axes: []int{1}}},
		rangeCase{"middle", "Reverse", []Buffer{op(3, 4, 5)}, Attrs{Axes: []int{1}}},
		rangeCase{"every", "Reverse", []Buffer{op(2, 3, 4)}, Attrs{}},
		rangeCase{"outerAndLast", "Reverse", []Buffer{op(2, 3, 4)}, Attrs{Axes: []int{-1, 0}}},
		rangeCase{"adjacent", "Reverse", []Buffer{op(2, 3, 4, 2)}, Attrs{Axes: []int{1, 2}}},
		rangeCase{"scalar", "Reverse", []Buffer{op()}, Attrs{}},
		rangeCase{"zero", "Reverse", []Buffer{op(0, 3)}, Attrs{Axes: []int{1}}},
		rangeCase{"int32", "Cast", []Buffer{specials}, Attrs{DType: tensor.Int32}},
		rangeCase{"bool", "Cast", []Buffer{specials}, Attrs{DType: tensor.Bool}},
		rangeCase{"float32", "Cast", []Buffer{specials}, Attrs{DType: tensor.Float32}},
		rangeCase{"up", "Range", nil, Attrs{Start: 2, Stop: 11, Step: 1.5, DType: tensor.Float32}},
		rangeCase{"down", "Range", nil, Attrs{Start: 5, Stop: -3, Step: -0.7, DType: tensor.Int32}},
		rangeCase{"empty", "Range", nil, Attrs{Start: 1, Stop: 1, Step: 1}},
		rangeCase{"vector", "CumSum", []Buffer{op(9)}, Attrs{}},
		rangeCase{"specials", "CumSum", []Buffer{specials}, Attrs{Axis: -1, Exclusive: true}},
		rangeCase{"zero", "CumSum", []Buffer{op(2, 0, 3)}, Attrs{Axis: 2}})
	for axis := -1; axis < 3; axis++ {
		for _, flags := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			cases = append(cases, rangeCase{fmt.Sprintf("axis%d/exclusive=%v/reverse=%v", axis, flags[0], flags[1]), "CumSum",
				[]Buffer{op(3, 4, 5)}, Attrs{Axis: axis, Exclusive: flags[0], Reverse: flags[1]}})
		}
	}
	// Rank 7 and rank 8 views, broadcasts and reductions, none of whose
	// dims merge (checked below): a body takes any number of dims.
	dims := func(rank, n int) []int {
		shape := make([]int, rank)
		for d := range shape {
			shape[d] = n
		}
		return shape
	}
	two := func(rank int) []int { return dims(rank, 2) }
	alternate := func(rank, first int) []int {
		shape := two(rank)
		for d := first; d < rank; d += 2 {
			shape[d] = 1
		}
		return shape
	}
	every := func(rank, first int) []int {
		var axes []int
		for d := first; d < rank; d += 2 {
			axes = append(axes, d)
		}
		return axes
	}
	ranked := []rangeCase{
		{"rank7", "Transpose", []Buffer{op(2, 3, 2, 3, 2, 3, 2)}, Attrs{Perm: []int{6, 5, 4, 3, 2, 1, 0}}},
		{"rank8", "Transpose", []Buffer{op(two(8)...)}, Attrs{Perm: []int{7, 6, 5, 4, 3, 2, 1, 0}}},
		{"rank7", "Slice", []Buffer{op(dims(7, 3)...)}, Attrs{Begin: dims(7, 1), Shape: two(7)}},
		{"rank8", "Slice", []Buffer{op(dims(8, 3)...)}, Attrs{Begin: dims(8, 1), Shape: two(8)}},
		{"rank7", "Tile", []Buffer{op(two(4)...)}, Attrs{Reps: []int{1, 2, 2, 2}}},
		{"rank8", "Tile", []Buffer{op(two(4)...)}, Attrs{Reps: []int{2, 2, 2, 2}}},
		{"rank7", "Add", []Buffer{op(alternate(7, 1)...), op(alternate(7, 0)...)}, Attrs{}},
		{"rank8", "Add", []Buffer{op(alternate(8, 1)...), op(alternate(8, 0)...)}, Attrs{}},
		{"rank7", "Sum", []Buffer{op(two(7)...)}, Attrs{Axes: every(7, 1)}},
		{"rank8", "Sum", []Buffer{op(two(8)...)}, Attrs{Axes: every(8, 0)}},
		{"rank7", "Reverse", []Buffer{op(two(7)...)}, Attrs{Axes: every(7, 0)}},
		{"rank8", "Reverse", []Buffer{op(two(8)...)}, Attrs{Axes: every(8, 1)}},
	}
	for _, c := range ranked {
		if got := mergedDims(t, c.kernel, c.ins, c.attrs); got < 7 {
			t.Errorf("%s/%s: %d merged dims, want 7 or more", c.kernel, c.label, got)
		}
	}
	cases = append(cases, ranked...)
	reductions := []string{"Sum", "Mean", "Max", "Min", "Prod", "ArgMax", "ArgMin", "Any", "All"}
	for _, name := range reductions {
		cases = append(cases, rangeCase{"ties", name, []Buffer{rows}, Attrs{Axes: []int{-1}}}, rangeCase{"specials", name, []Buffer{op(4, 9)}, Attrs{Axes: []int{-1}}},
			rangeCase{"repeatedAxes", name, []Buffer{op(2, 3, 4, 5)}, Attrs{Axes: []int{2, 0, -2}}},
			rangeCase{"allAxes", name, []Buffer{op(3, 1, 4)}, Attrs{Axes: []int{}, KeepDims: true}},
			rangeCase{"threeReducedRuns", name, []Buffer{op(2, 3, 2, 3, 2)}, Attrs{Axes: []int{0, 2, 4}}},
			rangeCase{"threeKeptRuns", name, []Buffer{op(2, 3, 2, 3, 2)}, Attrs{Axes: []int{1, 3}, KeepDims: true}})
	}
	// Softmax: rows of one value, an inner of 7 and of 5 — a range cut
	// mid-row, as a packed texel straddling two rows is — and rows of
	// ±Inf, NaN, ±1000 and denormals, and an empty last axis.
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	specialRows := buf([]float32{
		1000, -1000, 0, 1, -1,
		inf, 1, 2, 3, 4,
		-inf, 1, -inf, 2, 0,
		nan, 1, 2, 3, 4,
		1e-45, -1e-45, 1e-39, -1e-39, 0,
		-inf, -inf, -inf, -inf, -inf,
		1000, 1000, 999, -1e-39, 1e-45,
	}, 7, 5)
	cases = append(cases,
		rangeCase{"one", "Softmax", []Buffer{op(4, 1)}, Attrs{}},
		rangeCase{"odd", "Softmax", []Buffer{op(3, 7)}, Attrs{}},
		rangeCase{"rank3", "Softmax", []Buffer{op(2, 3, 5)}, Attrs{}},
		rangeCase{"specials", "Softmax", []Buffer{specialRows}, Attrs{}},
		rangeCase{"empty", "Softmax", []Buffer{op(3, 0)}, Attrs{}})
	// Every non-empty axis subset of a rank-4 input, the odd axes counted
	// from the end, kept as 1s or dropped; the second input has a zero-size
	// dim, so a fold is empty or there is no output at all (an index
	// reduction rejects an empty fold).
	for _, shape := range [][]int{{2, 3, 4, 5}, {3, 0, 2, 4}} {
		for set := 1; set < 16; set++ {
			var axes []int
			inner := 1
			for a := 0; a < 4; a++ {
				if set>>a&1 != 0 {
					axes, inner = append(axes, a-4*(a%2)), inner*shape[a]
				}
			}
			for _, keep := range []bool{false, true} {
				for _, name := range reductions {
					if inner > 0 || !strings.HasPrefix(name, "Arg") {
						cases = append(cases, rangeCase{fmt.Sprintf("%v%v keep=%v", shape, axes, keep), name,
							[]Buffer{op(shape...)}, Attrs{Axes: axes, KeepDims: keep}})
					}
				}
			}
		}
	}
	// The forward window kernels, fused with a bias and an activation or
	// not, at a stride, a dilation and both paddings.
	conv := func(kernel string, x, f, strides, dilations []int, pad, act string) rangeCase {
		info, err := ComputeConv2DInfo(x, f, strides, dilations, pad, strings.Contains(kernel, "Depthwise"))
		if err != nil {
			t.Fatal(err)
		}
		ins := []Buffer{op(x...), op(f...)}
		if strings.HasPrefix(kernel, "Fused") {
			ins = append(ins, op(info.OutChannels))
		}
		return rangeCase{fmt.Sprintf("%v%v%v%v%s%s", x, f, strides, dilations, pad, act), kernel, ins,
			Attrs{Strides: strides, Dilations: dilations, Pad: pad, Activation: act}}
	}
	for _, kernel := range []string{"Conv2D", "FusedConv2D"} {
		act := map[string]string{"FusedConv2D": "relu6"}[kernel]
		cases = append(cases,
			conv(kernel, []int{2, 5, 6, 3}, []int{3, 3, 3, 8}, s1, s1, "same", act),
			conv(kernel, []int{1, 7, 6, 4}, []int{2, 3, 4, 5}, []int{2, 1}, []int{1, 2}, "valid", act))
	}
	for _, kernel := range []string{"DepthwiseConv2dNative", "FusedDepthwiseConv2dNative"} {
		act := map[string]string{"FusedDepthwiseConv2dNative": "elu"}[kernel]
		cases = append(cases,
			conv(kernel, []int{2, 5, 6, 3}, []int{3, 3, 3, 2}, s2, s1, "same", act),
			conv(kernel, []int{1, 6, 7, 4}, []int{2, 3, 4, 1}, s1, s2, "valid", act))
	}
	for _, kernel := range []string{"MaxPool", "AvgPool"} {
		cases = append(cases,
			rangeCase{"2x2same", kernel, []Buffer{op(2, 5, 7, 3)}, Attrs{FilterSize: []int{2, 2}, Strides: s2, Pad: "same"}},
			rangeCase{"3x2valid", kernel, []Buffer{op(1, 4, 6, 3)}, Attrs{FilterSize: []int{3, 2}, Strides: s1, Pad: "valid"}})
	}
	// Every op of the element-wise table: a two-operand op on the shapes of
	// the element-wise tier test, a one-operand op on a vector with a
	// tail, under the attributes that tier test gives it.
	n := 5
	rowsOf := op(n, n)
	for i := range rowsOf.Data {
		rowsOf.Data[i] = rowsOf.Data[i-i%n]
	}
	paramAttrs := map[string]Attrs{
		"ClipByValue": {ClipMin: -0.5, ClipMax: 0.25},
		"LeakyRelu":   {Alpha: 0.1},
		"Step":        {Alpha: 0.5},
	}
	for _, e := range ElementwiseOps() {
		if e.Binary == nil {
			cases = append(cases, rangeCase{"values", e.Name, []Buffer{op(3, 7)}, paramAttrs[e.Name]})
			continue
		}
		cases = append(cases,
			rangeCase{"pairs", e.Name, []Buffer{rowsOf, op(n, n)}, Attrs{}},
			rangeCase{"suffix", e.Name, []Buffer{rowsOf, op(n)}, Attrs{}},
			rangeCase{"suffixFirst", e.Name, []Buffer{op(n), rowsOf}, Attrs{}},
			rangeCase{"scalar", e.Name, []Buffer{op(n, n), op()}, Attrs{}},
			rangeCase{"nonSuffix", e.Name, []Buffer{op(n, 1), op(1, n)}, Attrs{}},
			rangeCase{"column", e.Name, []Buffer{rowsOf, op(n, 1)}, Attrs{}})
	}
	// Every kernel of the table has cases.
	byKernel := map[string][]rangeCase{}
	for _, c := range cases {
		byKernel[c.kernel] = append(byKernel[c.kernel], c)
	}
	var kernelNames []string
	for _, k := range RangeKernels() {
		kernelNames = append(kernelNames, k.Name)
	}
	for _, cores := range []string{"default", "scalar"} {
		if cores == "scalar" {
			restore, forced := vec.ForceScalar()
			if !forced {
				continue
			}
			defer restore()
		}
		for _, kernel := range kernelNames {
			if len(byKernel[kernel]) == 0 {
				t.Errorf("%s: no case", kernel)
			}
			for _, c := range byKernel[kernel] {
				checkRangeCase(t, c.kernel+"/"+c.label+"/"+cores, c.kernel, c.ins, c.attrs)
			}
		}
	}
}

// mergedDims is the number of dims a call's body walks once its dims are
// merged: a view's, a broadcast's or a reduction's runs.
func mergedDims(t *testing.T, kernel string, ins []Buffer, attrs Attrs) int {
	t.Helper()
	var (
		v   View
		err error
		out TensorInfo
	)
	switch kernel {
	case "Transpose":
		v, err = ResolveTranspose(inputsOf(ins), attrs, &out)
	case "Slice":
		v, err = ResolveSlice(inputsOf(ins), attrs, &out)
	case "Tile":
		v, err = ResolveTile(inputsOf(ins), attrs, &out)
	case "Reverse":
		v, err = ResolveReverse(inputsOf(ins), attrs, &out)
	case "Sum":
		g, err := ResolveReduce(kernel, inputsOf(ins), attrs, &out)
		if err != nil {
			t.Fatal(err)
		}
		return len(g.kept) + len(g.red)
	default:
		shape, err := tensor.BroadcastShapes(ins[0].Shape, ins[1].Shape)
		if err != nil {
			t.Fatal(err)
		}
		return len(NewBroadcast(ins[0].Shape, ins[1].Shape, shape).shape)
	}
	if err != nil {
		t.Fatal(err)
	}
	return len(v.shape)
}

// checkRangeCase holds one call's range body, uncut and cut in two at
// every split point, to the reference kernel.
func checkRangeCase(t *testing.T, label, kernel string, ins []Buffer, attrs Attrs) {
	t.Helper()
	want, body := runRef(t, kernel, ins, attrs), rangeBody(t, kernel, ins, attrs)
	uncut := unwritten(len(want.Data))
	body(0, uncut)
	sameBits(t, label, uncut, want.Data)
	for split := 0; split <= len(uncut); split++ {
		got := unwritten(len(uncut))
		body(0, got[:split])
		body(split, got[split:])
		sameBits(t, fmt.Sprintf("%s cut at %d", label, split), got, uncut)
	}
}

// TestSuffixPeriods is the decision table of an element-wise op's row body
// (suffixRow): its operands take it when each one's shape, leading 1s
// dropped, is the output's trailing dimensions, and repeat along the
// output every row values, the shortest one's period; everything else —
// the squeeze ablation's [1,64,1,2048]×[1,64,1,1] included — takes the
// general broadcast (Broadcast).
func TestSuffixPeriods(t *testing.T) {
	for _, c := range []struct {
		name string
		out  []int
		ins  [][]int
		row  int // 0: the general broadcast
	}{
		{"[C]", []int{2, 3, 3, 9}, [][]int{{9}}, 9},
		{"[1,C]", []int{4, 3}, [][]int{{1, 3}}, 3},
		{"[1,1,1,C]", []int{2, 2, 3, 5}, [][]int{{1, 1, 1, 5}}, 5},
		{"scalar []", []int{3, 7}, [][]int{{}}, 1},
		{"scalar [1]", []int{3, 7}, [][]int{{1}}, 1},
		{"[W,C]", []int{2, 3, 5}, [][]int{{3, 5}}, 15},
		{"the output's own shape", []int{2, 3, 5}, [][]int{{2, 3, 5}}, 30},
		{"primary and [C], either order", []int{3, 5, 17}, [][]int{{17}, {3, 5, 17}}, 17},
		{"batch norm", []int{1, 48, 48, 8}, [][]int{{8}, {8}, {8}, {8}}, 8},
		{"mixed periods", []int{5, 3}, [][]int{{3}, {}, {1, 3}, {1}}, 1},
		{"non-suffix [N,1]", []int{2, 5, 3}, [][]int{{5, 1}}, 0},
		{"one non-suffix operand spoils the program", []int{2, 5, 3}, [][]int{{3}, {5, 1}}, 0},
		{"squeeze ablation", []int{1, 64, 1, 2048}, [][]int{{1, 64, 1, 2048}, {1, 64, 1, 1}}, 0},
		{"[C] against the wrong C", []int{2, 4}, [][]int{{2}}, 0},
		{"longer than the output", []int{3}, [][]int{{2, 3}}, 0},
		{"zero-size output", []int{0, 4}, [][]int{{4}}, 0},
	} {
		if got := suffixRow(c.out, c.ins...); got != c.row {
			t.Errorf("%s: suffixRow(%v, %v) = %d; want %d", c.name, c.out, c.ins, got, c.row)
		}
	}
}
