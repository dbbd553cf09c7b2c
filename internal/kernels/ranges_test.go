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

// rangeBody resolves one call of kernel as the backends do and returns its
// range body over the call's operands: what native hands its output
// chunks and webgl its texel ranges.
func rangeBody(t *testing.T, kernel string, ins []Buffer, attrs Attrs) func(lo int, dst []float32) {
	t.Helper()
	inputs, x := inputsOf(ins), func(i int) []float32 { return ins[i].Data }
	var out TensorInfo
	var body func(lo int, dst []float32)
	var err error
	mover := func(m interface {
		Fill(x []float32, lo int, dst []float32)
	}, e error) {
		var xs []float32
		if len(ins) > 0 {
			xs = x(0)
		}
		body, err = func(lo int, dst []float32) { m.Fill(xs, lo, dst) }, e
	}
	switch kernel {
	case "BatchMatMul", "_FusedMatMul":
		var g MatMul
		if g, err = ResolveMatMul(kernel, inputs, attrs, &out); err == nil {
			var ep Epilogue
			ep, err = FusedTail(kernel, inputs, attrs, g.N(), func(Input) []float32 { return x(2) })
			body = func(lo int, dst []float32) { g.Fill(x(0), x(1), ep, lo, dst) }
		}
	case "Transpose":
		mover(ResolveTranspose(inputs, attrs, &out))
	case "Slice":
		mover(ResolveSlice(inputs, attrs, &out))
	case "Tile":
		mover(ResolveTile(inputs, attrs, &out))
	case "PadV2":
		mover(ResolvePad(inputs, attrs, &out))
	case "OneHot":
		mover(ResolveOneHot(inputs, attrs, &out))
	case "Fill":
		mover(ResolveFill(inputs, attrs, &out))
	case "Concat":
		var c Concat
		c, err = ResolveConcat(inputs, attrs, &out)
		xs := make([][]float32, len(ins))
		for i := range ins {
			xs[i] = x(i)
		}
		body = func(lo int, dst []float32) { c.Fill(xs, lo, dst) }
	case "GatherV2":
		var g Gather
		g, err = ResolveGather(inputs, attrs, &out)
		body = func(lo int, dst []float32) { g.Fill(x(0), x(1), lo, dst) }
	case "AdamMoments":
		var a AdamMoments
		a, err = ResolveAdamMoments(inputs, attrs, &out)
		body = func(lo int, dst []float32) { a.Fill(x(0), x(1), lo, dst) }
	case "ApplyAdam":
		var a ApplyAdam
		a, err = ResolveApplyAdam(inputs, attrs, &out)
		body = func(lo int, dst []float32) { a.Fill(x(0), x(1), lo, dst) }
	case "BiasAddGrad":
		outer, inner, e := Rows(kernel, inputs)
		body, err = func(lo int, dst []float32) { ColumnSums(x(0), outer, inner, lo, dst) }, e
	case "Conv2DBackpropFilter":
		info, e := ResolveConvBackprop(kernel, inputs, attrs, &out)
		body, err = func(lo int, dst []float32) { NewWalk(info).FilterGrad(x(0), x(1), info.BatchSize, lo, dst) }, e
	case "Conv2DBackpropInput":
		info, e := ResolveConvBackprop(kernel, inputs, attrs, &out)
		wT := make([]float32, len(x(1)))
		if e == nil {
			NewWalk(info).TransposeFilter(x(1), wT)
		}
		body, err = func(lo int, dst []float32) { NewWalk(info).InputGrad(x(0), wT, lo, dst) }, e
	case "DepthwiseConv2dNativeBackpropInput":
		info, e := ResolveConvBackprop(kernel, inputs, attrs, &out)
		body, err = func(lo int, dst []float32) { NewWalk(info).DepthwiseInputGrad(x(0), x(1), lo, dst) }, e
	case "DepthwiseConv2dNativeBackpropFilter":
		info, e := ResolveConvBackprop(kernel, inputs, attrs, &out)
		body, err = func(lo int, dst []float32) { NewWalk(info).DepthwiseFilterGrad(x(0), x(1), info.BatchSize, lo, dst) }, e
	case "MaxPoolGrad":
		info, e := ResolvePoolGrad(kernel, inputs, attrs, &out)
		body, err = func(lo int, dst []float32) { NewWalk(info).MaxPoolGrad(x(1), x(0), lo, dst) }, e
	case "AvgPoolGrad":
		info, e := ResolvePoolGrad(kernel, inputs, attrs, &out)
		body, err = func(lo int, dst []float32) { NewWalk(info).AvgPoolGrad(x(0), lo, dst) }, e
	case "Select":
		o, e := ResolveSelect(inputs, &out)
		body, err = func(lo int, dst []float32) { o.Select(x(0), x(1), x(2), lo, dst) }, e
	case "FusedBatchNorm":
		n, e := ResolveBatchNorm(inputs, attrs, &out)
		body, err = func(lo int, dst []float32) { n.Fill(x(0), x(1), x(2), x(3), x(4), lo, dst) }, e
	case "Sub":
		shape, e := tensor.BroadcastShapes(ins[0].Shape, ins[1].Shape)
		g, _ := NewBroadcast(ins[0].Shape, ins[1].Shape, shape)
		body, err = func(lo int, dst []float32) { g.Fill(byName["Sub"].Binary, x(0), x(1), lo, dst) }, e
	default:
		if r, ok := Reductions()[kernel]; ok {
			_, inner, e := ResolveReduce(kernel, inputs, &out)
			body, err = func(lo int, dst []float32) { r.Fill(x(0), inner, lo, dst) }, e
		}
	}
	if body == nil || err != nil {
		t.Fatalf("%s: no range body (%v)", kernel, err)
	}
	return body
}

// TestRangeBodiesMatchReference: every range body both host backends run
// — matmul, the reductions, BiasAddGrad's column sums, Adam's two, the
// views (transpose, slice, tile), pad, concat, gather, one-hot, fill, a
// binary op's general broadcast, Select's and batch norm's, the filter
// gradients and the input gradients of the convolutions and the pools (at
// strides, dilations, same and valid padding, overlapping windows, a
// channel multiplier of 2 and batch 0) — cut in two at every split point of small shapes,
// on both bodies of the vector cores, writes every value (none read first)
// Float32bits-equal to one uncut call, which is the reference kernel's
// function to the bit — two NaNs equal whatever their payloads, as in the
// walk's test: a narrow filter row cut mid-row is a GemmRow instead of an
// AxpyRows, which meet two NaNs in the other operand order.
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
		return Attrs{"transposeA": ta, "transposeB": tb, "activation": act}
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
		attrs := Attrs{"inputShape": x, "filterShape": f, "strides": strides, "dilations": dilations, "pad": pad}
		ins := []Buffer{op(x...), op(info.OutShape()...)}
		if strings.HasSuffix(kernel, "BackpropInput") {
			ins = []Buffer{op(info.OutShape()...), op(f...)}
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
			Attrs{"inputShape": x, "filterSize": size, "strides": strides, "pad": pad}}
	}
	s1, s2 := []int{1, 1}, []int{2, 2}
	cases := []rangeCase{
		{"plain", "BatchMatMul", []Buffer{op(2, 3, 4), op(2, 4, 5)}, mm(false, false, "")},
		{"ta", "BatchMatMul", []Buffer{op(2, 4, 3), op(2, 4, 5)}, mm(true, false, "")},
		{"tb", "BatchMatMul", []Buffer{op(2, 3, 4), op(2, 5, 4)}, mm(false, true, "")},
		{"tatb", "BatchMatMul", []Buffer{op(1, 4, 3), op(2, 5, 4)}, mm(true, true, "")},
		{"bcastB", "BatchMatMul", []Buffer{op(3, 2, 70), op(1, 70, 3)}, mm(false, false, "")},
		{"k0", "BatchMatMul", []Buffer{op(1, 0, 2), op(1, 0, 3)}, mm(true, false, "")},
		{"bias", "_FusedMatMul", []Buffer{op(3, 4), op(4, 5), op(5)}, mm(false, false, "relu6")},
		{"tatbElu", "_FusedMatMul", []Buffer{op(4, 3), op(5, 4), op(5)}, mm(true, true, "elu")},
		{"noBias", "_FusedMatMul", []Buffer{op(3, 4), op(4, 5)}, mm(false, false, "relu")},
		{"rows", "BiasAddGrad", []Buffer{op(9, 11)}, nil},
		{"zeroRows", "BiasAddGrad", []Buffer{op(0, 5)}, nil},
		{"moments", "AdamMoments", []Buffer{slot, op(3, 4)}, Attrs{"beta1": 0.9, "beta2": 0.999}},
		{"step", "ApplyAdam", []Buffer{op(3, 4), slot}, Attrs{"learningRate": 0.01, "beta1Power": 0.729, "beta2Power": 0.997, "epsilon": 1e-8}},
		{"rotate", "Transpose", []Buffer{op(2, 3, 4)}, Attrs{"perm": []int{2, 0, 1}}},
		{"blocks", "Transpose", []Buffer{op(2, 3, 4, 5)}, Attrs{"perm": []int{0, 3, 1, 2}}},
		{"squeezy", "Transpose", []Buffer{op(1, 5, 1, 3)}, Attrs{"perm": []int{3, 1, 2, 0}}},
		{"reverse", "Transpose", []Buffer{op(2, 3, 2, 3)}, Attrs{"perm": []int{3, 2, 1, 0}}},
		{"scalar", "Transpose", []Buffer{op()}, Attrs{"perm": []int{}}},
		{"rows", "Slice", []Buffer{op(3, 4, 5)}, Attrs{"begin": []int{1, 0, 2}, "size": []int{2, -1, 2}}},
		{"wholeRows", "Slice", []Buffer{op(4, 3, 5)}, Attrs{"begin": []int{1, 0, 0}, "size": []int{2, 3, 5}}},
		{"rep", "Tile", []Buffer{op(2, 3)}, Attrs{"reps": []int{2, 3}}},
		{"unit", "Tile", []Buffer{op(1, 3, 1)}, Attrs{"reps": []int{3, 1, 2}}},
		{"rep", "PadV2", []Buffer{op(3, 4)}, Attrs{"paddings": []int{1, 2, 0, 3}, "constantValue": 0.5}},
		{"rank3", "PadV2", []Buffer{op(2, 1, 3)}, Attrs{"paddings": []int{0, 1, 2, 0, 1, 1}}},
		{"emptyInput", "PadV2", []Buffer{op(2, 0, 3)}, Attrs{"paddings": []int{0, 0, 1, 1, 0, 0}, "constantValue": -1.0}},
		{"scalar", "PadV2", []Buffer{op()}, Attrs{"paddings": []int{}}},
		{"axis1", "Concat", []Buffer{op(2, 3), op(2, 0), op(2, 2)}, Attrs{"axis": 1}},
		{"axis0", "Concat", []Buffer{op(2, 3, 2), op(1, 3, 2), op(3, 3, 2)}, Attrs{"axis": 0}},
		{"negAxis", "Concat", []Buffer{op(2, 3, 1), op(2, 3, 4)}, Attrs{"axis": -1}},
		{"axis0", "GatherV2", []Buffer{op(5, 3), ints(4, 0, 0, 2)}, Attrs{"axis": 0}},
		{"axis1", "GatherV2", []Buffer{op(3, 4, 2), ints(3, 1, 1, 0)}, Attrs{"axis": 1}},
		{"labels", "OneHot", []Buffer{ints(1, 4, -1, 0, 7, 2)}, Attrs{"depth": 5, "onValue": 2.0, "offValue": -1.0}},
		{"nonSuffix", "Sub", []Buffer{op(2, 5, 3), op(5, 1)}, nil},
		{"bothBroadcast", "Sub", []Buffer{op(5, 1), op(1, 7)}, nil},
		{"units", "Sub", []Buffer{op(1, 1), op(1)}, nil},
		{"int32", "Fill", nil, Attrs{"shape": []int{3, 4}, "value": 2.5, "dtype": "int32"}},
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
		{"nonSuffix", "Select", []Buffer{op(5, 1), op(2, 5, 3), op(3)}, nil},
		{"scalarCond", "Select", []Buffer{op(), op(4, 3), op(4, 1)}, nil},
		{"same", "Select", []Buffer{op(2, 3), op(2, 3), op(2, 3)}, nil},
		{"nonSuffix", "FusedBatchNorm", []Buffer{op(2, 3, 5, 3), op(5, 1), op(5, 1), op(1, 3), op()}, Attrs{"varianceEpsilon": 1e-3}},
		{"suffix", "FusedBatchNorm", []Buffer{op(2, 3, 5), op(5), op(5), op(1, 5), op(5)}, Attrs{"varianceEpsilon": 1e-3}},
	}
	for _, kernel := range []string{"MaxPoolGrad", "AvgPoolGrad"} {
		cases = append(cases,
			poolGrad(kernel, []int{2, 5, 7, 3}, []int{2, 2}, s2, "same"),
			poolGrad(kernel, []int{1, 7, 5, 4}, []int{3, 3}, s2, "same"),
			poolGrad(kernel, []int{1, 4, 6, 3}, []int{3, 2}, s1, "valid"),
			poolGrad(kernel, []int{0, 4, 4, 2}, []int{2, 2}, s2, "valid"))
	}
	for _, name := range []string{"Sum", "Mean", "Max", "Min", "Prod", "ArgMax", "ArgMin"} {
		cases = append(cases, rangeCase{"ties", name, []Buffer{rows}, nil}, rangeCase{"specials", name, []Buffer{op(4, 9)}, nil})
	}
	for _, cores := range []string{"default", "scalar"} {
		if cores == "scalar" {
			restore, forced := vec.ForceScalar()
			if !forced {
				continue
			}
			defer restore()
		}
		for _, c := range cases {
			label := c.kernel + "/" + c.label + "/" + cores
			want, body := runRef(t, c.kernel, c.ins, c.attrs), rangeBody(t, c.kernel, c.ins, c.attrs)
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
	}
}
