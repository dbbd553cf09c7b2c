package kernels

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func runRef(t *testing.T, name string, inputs []Buffer, attrs Attrs) Buffer {
	t.Helper()
	k, ok := LookupRef(name)
	if !ok {
		t.Fatalf("no reference kernel %q", name)
	}
	out, err := k(inputs, attrs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func buf(vals []float32, shape ...int) Buffer {
	return Buffer{Data: vals, Shape: shape, DType: tensor.Float32}
}

func wantVals(t *testing.T, got Buffer, want []float32, tol float64) {
	t.Helper()
	if len(got.Data) != len(want) {
		t.Fatalf("got %d values, want %d (%v vs %v)", len(got.Data), len(want), got.Data, want)
	}
	for i := range want {
		g, w := float64(got.Data[i]), float64(want[i])
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Abs(g-w) > tol {
			t.Fatalf("element %d: got %g want %g", i, g, w)
		}
	}
}

func TestAddBroadcast(t *testing.T) {
	out := runRef(t, "Add", []Buffer{
		buf([]float32{1, 2, 3, 4, 5, 6}, 2, 3),
		buf([]float32{10, 20, 30}, 3),
	}, Attrs{})
	wantVals(t, out, []float32{11, 22, 33, 14, 25, 36}, 0)
	if !tensor.ShapesEqual(out.Shape, []int{2, 3}) {
		t.Fatalf("shape %v", out.Shape)
	}
}

func TestBroadcastScalarBothWays(t *testing.T) {
	a := buf([]float32{1, 2, 3, 4}, 2, 2)
	s := buf([]float32{10})
	s.Shape = nil // scalar
	out1 := runRef(t, "Add", []Buffer{a, s}, Attrs{})
	out2 := runRef(t, "Add", []Buffer{s, a}, Attrs{})
	wantVals(t, out1, []float32{11, 12, 13, 14}, 0)
	wantVals(t, out2, []float32{11, 12, 13, 14}, 0)
}

func TestComparisonDTypes(t *testing.T) {
	out := runRef(t, "Greater", []Buffer{
		buf([]float32{1, 5}, 2), buf([]float32{3, 3}, 2),
	}, Attrs{})
	if out.DType != tensor.Bool {
		t.Fatalf("Greater dtype = %v", out.DType)
	}
	wantVals(t, out, []float32{0, 1}, 0)
}

func TestBatchMatMulTransposes(t *testing.T) {
	a := buf([]float32{1, 2, 3, 4, 5, 6}, 1, 2, 3)
	b := buf([]float32{7, 8, 9, 10, 11, 12}, 1, 3, 2)
	out := runRef(t, "BatchMatMul", []Buffer{a, b}, Attrs{})
	wantVals(t, out, []float32{58, 64, 139, 154}, 1e-5)

	// (A^T)^T x B == A x B expressed through the transpose flags.
	aT := buf([]float32{1, 4, 2, 5, 3, 6}, 1, 3, 2)
	outT := runRef(t, "BatchMatMul", []Buffer{aT, b}, Attrs{TransposeA: true})
	wantVals(t, outT, []float32{58, 64, 139, 154}, 1e-5)

	bT := buf([]float32{7, 9, 11, 8, 10, 12}, 1, 2, 3)
	outBT := runRef(t, "BatchMatMul", []Buffer{a, bT}, Attrs{TransposeB: true})
	wantVals(t, outBT, []float32{58, 64, 139, 154}, 1e-5)
}

func TestBatchMatMulBatchBroadcast(t *testing.T) {
	a := buf([]float32{1, 0, 0, 1}, 1, 2, 2) // identity, batch 1
	b := buf([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 2, 2, 2)
	out := runRef(t, "BatchMatMul", []Buffer{a, b}, Attrs{})
	wantVals(t, out, []float32{1, 2, 3, 4, 5, 6, 7, 8}, 0)
}

func TestConv2DKnownValues(t *testing.T) {
	// 1x3x3x1 input counting 1..9, 2x2 ones filter, valid.
	x := buf([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3, 1)
	w := buf([]float32{1, 1, 1, 1}, 2, 2, 1, 1)
	out := runRef(t, "Conv2D", []Buffer{x, w}, Attrs{Strides: []int{1, 1}, Pad: "valid"})
	wantVals(t, out, []float32{12, 16, 24, 28}, 0)

	// Same padding preserves spatial dims at stride 1.
	outSame := runRef(t, "Conv2D", []Buffer{x, w}, Attrs{Strides: []int{1, 1}, Pad: "same"})
	if !tensor.ShapesEqual(outSame.Shape, []int{1, 3, 3, 1}) {
		t.Fatalf("same-pad shape %v", outSame.Shape)
	}
}

func TestConv2DDilation(t *testing.T) {
	// Dilation 2 on a 5x5 with a 2x2 filter samples corners of a 3x3 grid.
	vals := make([]float32, 25)
	for i := range vals {
		vals[i] = float32(i)
	}
	x := buf(vals, 1, 5, 5, 1)
	w := buf([]float32{1, 1, 1, 1}, 2, 2, 1, 1)
	out := runRef(t, "Conv2D", []Buffer{x, w}, Attrs{Strides: []int{1, 1}, Dilations: []int{2, 2}, Pad: "valid"})
	if !tensor.ShapesEqual(out.Shape, []int{1, 3, 3, 1}) {
		t.Fatalf("dilated shape %v", out.Shape)
	}
	// out[0,0] = x[0,0]+x[0,2]+x[2,0]+x[2,2] = 0+2+10+12 = 24.
	if out.Data[0] != 24 {
		t.Fatalf("dilated conv[0] = %g, want 24", out.Data[0])
	}
}

// TestConvGradientsNumerically verifies the conv backprop kernels against
// finite differences of the forward kernel.
func TestConvGradientsNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inShape := []int{1, 4, 4, 2}
	wShape := []int{3, 3, 2, 3}
	attrs := Attrs{Strides: []int{1, 1}, Pad: "same"}
	xv := make([]float32, tensor.ShapeSize(inShape))
	wv := make([]float32, tensor.ShapeSize(wShape))
	for i := range xv {
		xv[i] = float32(rng.NormFloat64())
	}
	for i := range wv {
		wv[i] = float32(rng.NormFloat64())
	}

	forward := func(xv, wv []float32) float64 {
		out := runRef(t, "Conv2D", []Buffer{buf(xv, inShape...), buf(wv, wShape...)}, attrs)
		var sum float64
		for _, v := range out.Data {
			sum += float64(v)
		}
		return sum
	}

	// Analytic gradients with dy = ones.
	base := runRef(t, "Conv2D", []Buffer{buf(xv, inShape...), buf(wv, wShape...)}, attrs)
	dy := make([]float32, len(base.Data))
	for i := range dy {
		dy[i] = 1
	}
	dxAttrs := Attrs{Strides: []int{1, 1}, Pad: "same", Shape: inShape}
	dwAttrs := Attrs{Strides: []int{1, 1}, Pad: "same", Shape: wShape}
	dx := runRef(t, "Conv2DBackpropInput", []Buffer{buf(dy, base.Shape...), buf(wv, wShape...)}, dxAttrs)
	dw := runRef(t, "Conv2DBackpropFilter", []Buffer{buf(xv, inShape...), buf(dy, base.Shape...)}, dwAttrs)

	const eps = 1e-2
	for _, check := range []struct {
		name string
		vals []float32
		grad Buffer
	}{{"dx", xv, dx}, {"dw", wv, dw}} {
		for i := 0; i < len(check.vals); i += 7 { // sample every 7th element
			orig := check.vals[i]
			check.vals[i] = orig + eps
			plus := forward(xv, wv)
			check.vals[i] = orig - eps
			minus := forward(xv, wv)
			check.vals[i] = orig
			numeric := (plus - minus) / (2 * eps)
			analytic := float64(check.grad.Data[i])
			if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: numeric %g vs analytic %g", check.name, i, numeric, analytic)
			}
		}
	}
}

func TestDepthwiseGradientsNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inShape := []int{1, 4, 4, 2}
	wShape := []int{3, 3, 2, 2}
	attrs := Attrs{Strides: []int{1, 1}, Pad: "same"}
	xv := make([]float32, tensor.ShapeSize(inShape))
	wv := make([]float32, tensor.ShapeSize(wShape))
	for i := range xv {
		xv[i] = float32(rng.NormFloat64())
	}
	for i := range wv {
		wv[i] = float32(rng.NormFloat64())
	}
	forward := func() float64 {
		out := runRef(t, "DepthwiseConv2dNative", []Buffer{buf(xv, inShape...), buf(wv, wShape...)}, attrs)
		var sum float64
		for _, v := range out.Data {
			sum += float64(v)
		}
		return sum
	}
	base := runRef(t, "DepthwiseConv2dNative", []Buffer{buf(xv, inShape...), buf(wv, wShape...)}, attrs)
	dy := make([]float32, len(base.Data))
	for i := range dy {
		dy[i] = 1
	}
	dx := runRef(t, "DepthwiseConv2dNativeBackpropInput",
		[]Buffer{buf(dy, base.Shape...), buf(wv, wShape...)},
		Attrs{Strides: []int{1, 1}, Pad: "same", Shape: inShape})
	dw := runRef(t, "DepthwiseConv2dNativeBackpropFilter",
		[]Buffer{buf(xv, inShape...), buf(dy, base.Shape...)},
		Attrs{Strides: []int{1, 1}, Pad: "same", Shape: wShape})
	const eps = 1e-2
	for i := 0; i < len(xv); i += 5 {
		orig := xv[i]
		xv[i] = orig + eps
		plus := forward()
		xv[i] = orig - eps
		minus := forward()
		xv[i] = orig
		numeric := (plus - minus) / (2 * eps)
		if math.Abs(numeric-float64(dx.Data[i])) > 1e-2*(1+math.Abs(numeric)) {
			t.Fatalf("dx[%d]: numeric %g vs analytic %g", i, numeric, dx.Data[i])
		}
	}
	for i := 0; i < len(wv); i += 3 {
		orig := wv[i]
		wv[i] = orig + eps
		plus := forward()
		wv[i] = orig - eps
		minus := forward()
		wv[i] = orig
		numeric := (plus - minus) / (2 * eps)
		if math.Abs(numeric-float64(dw.Data[i])) > 1e-2*(1+math.Abs(numeric)) {
			t.Fatalf("dw[%d]: numeric %g vs analytic %g", i, numeric, dw.Data[i])
		}
	}
}

func TestMaxPoolAndGrad(t *testing.T) {
	x := buf([]float32{1, 3, 2, 4, 6, 5, 9, 7, 8}, 1, 3, 3, 1)
	attrs := Attrs{FilterSize: []int{2, 2}, Strides: []int{1, 1}, Pad: "valid"}
	out := runRef(t, "MaxPool", []Buffer{x}, attrs)
	// x = [[1,3,2],[4,6,5],[9,7,8]]; windows: {1,3,4,6}=6, {3,2,6,5}=6,
	// {4,6,9,7}=9, {6,5,7,8}=8.
	wantVals(t, out, []float32{6, 6, 9, 8}, 0)
	dy := buf([]float32{1, 1, 1, 1}, 1, 2, 2, 1)
	dx := runRef(t, "MaxPoolGrad", []Buffer{dy, x}, attrs)
	// 6 receives from windows (0,0) and (0,1)? 6 is max of both top
	// windows? window(0,0)={1,3,6,5}->6, window(0,1)={3,2,5,9}->9? No:
	// row-major 3x3 is [[1,3,2],[4,6,5],[9,7,8]]. window(0,0)={1,3,4,6}->6,
	// window(0,1)={3,2,6,5}->6, window(1,0)={4,6,9,7}->9, window(1,1)={6,5,7,8}->8.
	wantVals(t, dx, []float32{0, 0, 0, 0, 2, 0, 1, 0, 1}, 0)
}

// TestPoolKernelsGolden pins the four pooling kernels to the bits they
// produced when poolForEach handed its body an iterator closure: padded
// and unpadded, overlapping and disjoint windows, ties between zeros. The
// hash is FNV-1a over every output's Float32bits, in the order computed.
func TestPoolKernelsGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := fnv.New64a()
	add := func(b Buffer) {
		for _, v := range b.Data {
			h.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
		}
	}
	for _, pad := range []string{"same", "valid"} {
		for _, g := range [][3]int{{2, 2, 2}, {2, 2, 1}, {3, 3, 2}, {3, 2, 1}, {3, 3, 3}, {4, 4, 1}} {
			for _, c := range []int{1, 3} {
				shape := []int{2, 7, 9, c}
				info, err := ComputePool2DInfo(shape, g[:2], []int{g[2], g[2]}, pad)
				if err != nil {
					t.Fatal(err)
				}
				x := buf(make([]float32, tensor.ShapeSize(shape)), shape...)
				for i := range x.Data {
					x.Data[i] = float32(rng.NormFloat64())
					if rng.Intn(3) == 0 {
						x.Data[i] = 0
					}
				}
				dy := buf(make([]float32, tensor.ShapeSize(info.OutShape())), info.OutShape()...)
				for i := range dy.Data {
					dy.Data[i] = float32(rng.NormFloat64())
				}
				attrs := Attrs{FilterSize: g[:2], Strides: []int{g[2], g[2]}, Pad: pad, Shape: shape}
				add(runRef(t, "MaxPool", []Buffer{x}, attrs))
				add(runRef(t, "AvgPool", []Buffer{x}, attrs))
				add(runRef(t, "MaxPoolGrad", []Buffer{dy, x}, attrs))
				add(runRef(t, "AvgPoolGrad", []Buffer{dy}, attrs))
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x33e4048620890e6a); got != want {
		t.Fatalf("pool kernels hash %#x, want %#x", got, want)
	}
}

// TestPoolKernelsDoNotAllocatePerCell: the reference pool kernels
// allocate their output and a few shape slices, nothing per output cell
// (1,152 of them here).
func TestPoolKernelsDoNotAllocatePerCell(t *testing.T) {
	x := buf(make([]float32, 2*24*24*4), 2, 24, 24, 4)
	for i := range x.Data {
		x.Data[i] = float32(i % 7)
	}
	dy := buf(make([]float32, 2*12*12*4), 2, 12, 12, 4)
	attrs := Attrs{FilterSize: []int{2, 2}, Strides: []int{2, 2}, Shape: x.Shape}
	for _, c := range []struct {
		name   string
		inputs []Buffer
	}{
		{"MaxPool", []Buffer{x}}, {"AvgPool", []Buffer{x}},
		{"MaxPoolGrad", []Buffer{dy, x}}, {"AvgPoolGrad", []Buffer{dy}},
	} {
		k, _ := LookupRef(c.name)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := k(c.inputs, attrs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 12 {
			t.Errorf("%s: %v allocs per call, want a small constant", c.name, allocs)
		}
	}
}

func TestAvgPoolExcludesPadding(t *testing.T) {
	x := buf([]float32{1, 2, 3, 4}, 1, 2, 2, 1)
	attrs := Attrs{FilterSize: []int{2, 2}, Strides: []int{1, 1}, Pad: "same"}
	out := runRef(t, "AvgPool", []Buffer{x}, attrs)
	// Bottom-right cell's window only covers {4}.
	if out.Data[3] != 4 {
		t.Fatalf("padded avgpool corner = %g, want 4 (count excludes padding)", out.Data[3])
	}
}

func TestReductions2D(t *testing.T) {
	x := buf([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	wantVals(t, runRef(t, "Sum", []Buffer{x}, Attrs{Axes: []int{-1}}), []float32{6, 15}, 0)
	wantVals(t, runRef(t, "Mean", []Buffer{x}, Attrs{Axes: []int{-1}}), []float32{2, 5}, 1e-6)
	wantVals(t, runRef(t, "Max", []Buffer{x}, Attrs{Axes: []int{-1}}), []float32{3, 6}, 0)
	wantVals(t, runRef(t, "Min", []Buffer{x}, Attrs{Axes: []int{-1}}), []float32{1, 4}, 0)
	wantVals(t, runRef(t, "Prod", []Buffer{x}, Attrs{Axes: []int{-1}}), []float32{6, 120}, 0)
	wantVals(t, runRef(t, "ArgMax", []Buffer{x}, Attrs{Axes: []int{-1}}), []float32{2, 2}, 0)
	wantVals(t, runRef(t, "ArgMin", []Buffer{x}, Attrs{Axes: []int{-1}}), []float32{0, 0}, 0)
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		outer, inner := 1+rng.Intn(4), 1+rng.Intn(6)
		vals := make([]float32, outer*inner)
		for i := range vals {
			vals[i] = float32(rng.NormFloat64() * 10)
		}
		out := runRef(t, "Softmax", []Buffer{buf(vals, outer, inner)}, Attrs{})
		for o := 0; o < outer; o++ {
			var sum float64
			for i := 0; i < inner; i++ {
				v := float64(out.Data[o*inner+i])
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	// Large logits must not overflow.
	out := runRef(t, "Softmax", []Buffer{buf([]float32{1000, 1001}, 1, 2)}, Attrs{})
	if math.IsNaN(float64(out.Data[0])) || math.IsNaN(float64(out.Data[1])) {
		t.Fatal("softmax overflowed")
	}
	if math.Abs(float64(out.Data[0]+out.Data[1]-1)) > 1e-5 {
		t.Fatalf("softmax sums to %g", out.Data[0]+out.Data[1])
	}
}

// TestTransposeInvolution is a property test: transposing twice with the
// inverse permutation restores the original.
func TestTransposeInvolution(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rank := 1 + rng.Intn(4)
		shape := make([]int, rank)
		for i := range shape {
			shape[i] = 1 + rng.Intn(4)
		}
		vals := make([]float32, tensor.ShapeSize(shape))
		for i := range vals {
			vals[i] = float32(i)
		}
		perm := rng.Perm(rank)
		inverse := make([]int, rank)
		for i, p := range perm {
			inverse[p] = i
		}
		once := runRef(t, "Transpose", []Buffer{buf(vals, shape...)}, Attrs{Perm: perm})
		twice := runRef(t, "Transpose", []Buffer{once}, Attrs{Perm: inverse})
		return reflect.DeepEqual(twice.Data, vals) && tensor.ShapesEqual(twice.Shape, shape)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPadSliceInverse is a property test: slicing a padded tensor at the
// pad offsets recovers the original.
func TestPadSliceInverse(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rank := 1 + rng.Intn(3)
		shape := make([]int, rank)
		paddings := make([]int, 2*rank)
		begin := make([]int, rank)
		size := make([]int, rank)
		for i := range shape {
			shape[i] = 1 + rng.Intn(4)
			paddings[2*i] = rng.Intn(3)
			paddings[2*i+1] = rng.Intn(3)
			begin[i] = paddings[2*i]
			size[i] = shape[i]
		}
		vals := make([]float32, tensor.ShapeSize(shape))
		for i := range vals {
			vals[i] = float32(rng.NormFloat64())
		}
		padded := runRef(t, "PadV2", []Buffer{buf(vals, shape...)}, Attrs{Paddings: paddings, Value: 9.0})
		sliced := runRef(t, "Slice", []Buffer{padded}, Attrs{Begin: begin, Shape: size})
		return reflect.DeepEqual(sliced.Data, vals)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestConcatSplitInverse is a property test: concatenating the outputs of a
// split restores the original.
func TestConcatSplitInverse(t *testing.T) {
	x := buf([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 2, 4)
	// Split into two [2,2] halves via Slice, then Concat back.
	left := runRef(t, "Slice", []Buffer{x}, Attrs{Begin: []int{0, 0}, Shape: []int{2, 2}})
	right := runRef(t, "Slice", []Buffer{x}, Attrs{Begin: []int{0, 2}, Shape: []int{2, 2}})
	back := runRef(t, "Concat", []Buffer{left, right}, Attrs{Axis: 1})
	wantVals(t, back, x.Data, 0)
}

func TestGather(t *testing.T) {
	x := buf([]float32{10, 11, 20, 21, 30, 31}, 3, 2)
	idx := Buffer{Data: []float32{2, 0, 2}, Shape: []int{3}, DType: tensor.Int32}
	out := runRef(t, "GatherV2", []Buffer{x, idx}, Attrs{Axis: 0})
	wantVals(t, out, []float32{30, 31, 10, 11, 30, 31}, 0)
	// Out-of-range index errors.
	bad := Buffer{Data: []float32{5}, Shape: []int{1}, DType: tensor.Int32}
	k, _ := LookupRef("GatherV2")
	if _, err := k([]Buffer{x, bad}, Attrs{Axis: 0}); err == nil {
		t.Fatal("out-of-range gather should error")
	}
}

func TestTileAndReverse(t *testing.T) {
	x := buf([]float32{1, 2, 3, 4}, 2, 2)
	tiled := runRef(t, "Tile", []Buffer{x}, Attrs{Reps: []int{2, 1}})
	wantVals(t, tiled, []float32{1, 2, 3, 4, 1, 2, 3, 4}, 0)
	rev := runRef(t, "Reverse", []Buffer{x}, Attrs{Axes: []int{1}})
	wantVals(t, rev, []float32{2, 1, 4, 3}, 0)
	// No axes is every axis, as for a reduction.
	wantVals(t, runRef(t, "Reverse", []Buffer{x}, Attrs{}), []float32{4, 3, 2, 1}, 0)
}

func TestOneHot(t *testing.T) {
	idx := Buffer{Data: []float32{1, 0, 3}, Shape: []int{3}, DType: tensor.Int32}
	out := runRef(t, "OneHot", []Buffer{idx}, Attrs{Depth: 4, OnValue: 1})
	wantVals(t, out, []float32{0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1}, 0)
}

func TestCastTruncates(t *testing.T) {
	x := buf([]float32{1.9, -1.9, 2.5}, 3)
	out := runRef(t, "Cast", []Buffer{x}, Attrs{DType: tensor.Int32})
	wantVals(t, out, []float32{1, -1, 2}, 0)
	if out.DType != tensor.Int32 {
		t.Fatalf("dtype = %v", out.DType)
	}
	asBool := runRef(t, "Cast", []Buffer{x}, Attrs{DType: tensor.Bool})
	wantVals(t, asBool, []float32{1, 1, 1}, 0)
}

// TestCumSum: CumSum scans its Axis of an input of any rank in place —
// here each axis of a [2 3 4] input of 1…24, and the last counted from the
// end — inclusive or exclusive, forwards or reversed; an axis outside the
// rank is an error.
func TestCumSum(t *testing.T) {
	x := buf([]float32{1, 2, 3, 4}, 1, 4)
	wantVals(t, runRef(t, "CumSum", []Buffer{x}, Attrs{Axis: 1}), []float32{1, 3, 6, 10}, 0)
	wantVals(t, runRef(t, "CumSum", []Buffer{x}, Attrs{Axis: 1, Exclusive: true}), []float32{0, 1, 3, 6}, 0)
	wantVals(t, runRef(t, "CumSum", []Buffer{x}, Attrs{Axis: 1, Reverse: true}), []float32{10, 9, 7, 4}, 0)

	vals := make([]float32, 24)
	for i := range vals {
		vals[i] = float32(i + 1)
	}
	cube := buf(vals, 2, 3, 4)
	lastAxis := map[[2]bool][]float32{
		{false, false}: {1, 3, 6, 10, 5, 11, 18, 26, 9, 19, 30, 42, 13, 27, 42, 58, 17, 35, 54, 74, 21, 43, 66, 90},
		{true, false}:  {0, 1, 3, 6, 0, 5, 11, 18, 0, 9, 19, 30, 0, 13, 27, 42, 0, 17, 35, 54, 0, 21, 43, 66},
		{false, true}:  {10, 9, 7, 4, 26, 21, 15, 8, 42, 33, 23, 12, 58, 45, 31, 16, 74, 57, 39, 20, 90, 69, 47, 24},
		{true, true}:   {9, 7, 4, 0, 21, 15, 8, 0, 33, 23, 12, 0, 45, 31, 16, 0, 57, 39, 20, 0, 69, 47, 24, 0},
	}
	// want[axis][{exclusive, reverse}]
	want := map[int]map[[2]bool][]float32{
		0: {
			{false, false}: {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36},
			{true, false}:  {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
			{false, true}:  {14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24},
			{true, true}:   {13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		},
		1: {
			{false, false}: {1, 2, 3, 4, 6, 8, 10, 12, 15, 18, 21, 24, 13, 14, 15, 16, 30, 32, 34, 36, 51, 54, 57, 60},
			{true, false}:  {0, 0, 0, 0, 1, 2, 3, 4, 6, 8, 10, 12, 0, 0, 0, 0, 13, 14, 15, 16, 30, 32, 34, 36},
			{false, true}:  {15, 18, 21, 24, 14, 16, 18, 20, 9, 10, 11, 12, 51, 54, 57, 60, 38, 40, 42, 44, 21, 22, 23, 24},
			{true, true}:   {14, 16, 18, 20, 9, 10, 11, 12, 0, 0, 0, 0, 38, 40, 42, 44, 21, 22, 23, 24, 0, 0, 0, 0},
		},
		2:  lastAxis,
		-1: lastAxis,
	}
	for _, axis := range []int{0, 1, 2, -1} {
		for mode, w := range want[axis] {
			t.Run(fmt.Sprintf("axis=%d/exclusive=%v/reverse=%v", axis, mode[0], mode[1]), func(t *testing.T) {
				got := runRef(t, "CumSum", []Buffer{cube}, Attrs{Axis: axis, Exclusive: mode[0], Reverse: mode[1]})
				if !tensor.ShapesEqual(got.Shape, cube.Shape) {
					t.Fatalf("shape %v, want %v", got.Shape, cube.Shape)
				}
				wantVals(t, got, w, 0)
			})
		}
	}
	ref, _ := LookupRef("CumSum")
	for _, axis := range []int{3, -4} {
		if _, err := ref([]Buffer{cube}, Attrs{Axis: axis}); err == nil {
			t.Errorf("axis %d of a rank-3 input: no error", axis)
		}
	}
}

func TestFusedBatchNorm(t *testing.T) {
	x := buf([]float32{1, 2, 3, 4}, 2, 2)
	mean := buf([]float32{1, 2}, 2)
	variance := buf([]float32{1, 4}, 2)
	offset := buf([]float32{0, 1}, 2)
	scale := buf([]float32{1, 2}, 2)
	out := runRef(t, "FusedBatchNorm", []Buffer{x, mean, variance, offset, scale}, Attrs{Epsilon: 0.0})
	// row0: (1-1)/1*1+0=0, (2-2)/2*2+1=1 ; row1: (3-1)/1=2, (4-2)/2*2+1=3.
	wantVals(t, out, []float32{0, 1, 2, 3}, 1e-5)
}

func TestConvInfoErrors(t *testing.T) {
	if _, err := ComputeConv2DInfo([]int{3, 3, 1}, []int{2, 2, 1, 1}, []int{1, 1}, []int{1, 1}, "valid", false); err == nil {
		t.Error("rank-3 input should error")
	}
	if _, err := ComputeConv2DInfo([]int{1, 3, 3, 2}, []int{2, 2, 1, 1}, []int{1, 1}, []int{1, 1}, "valid", false); err == nil {
		t.Error("channel mismatch should error")
	}
	if _, err := ComputeConv2DInfo([]int{1, 3, 3, 1}, []int{2, 2, 1, 1}, []int{1, 1}, []int{1, 1}, "reflect", false); err == nil {
		t.Error("unknown padding should error")
	}
	if _, err := ComputeConv2DInfo([]int{1, 2, 2, 1}, []int{3, 3, 1, 1}, []int{1, 1}, []int{1, 1}, "valid", false); err == nil {
		t.Error("filter larger than input should error for valid padding")
	}
}

func TestRefKernelNamesIncludesCore(t *testing.T) {
	names := RefKernelNames()
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	for _, want := range []string{"Add", "BatchMatMul", "Conv2D", "Softmax", "Sum", "Transpose", "PadV2"} {
		if !set[want] {
			t.Errorf("missing reference kernel %q (have %d kernels)", want, len(names))
		}
	}
	if len(names) < 60 {
		t.Errorf("expected >=60 reference kernels, got %d", len(names))
	}
}

// TestReductionsFoldAsTheTransposeDid: a reduction over any axes of a
// rank-4 input is, bit for bit, the [outer, inner] reduction of the input
// transposed to bring its reduced axes innermost — the lowering every
// caller once built — special values and ties included.
func TestReductionsFoldAsTheTransposeDid(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	shape := []int{2, 3, 4, 5}
	x := buf(walkOperand(rng, tensor.ShapeSize(shape)), shape...)
	for i := 0; i < len(x.Data); i += 7 {
		x.Data[i] = 1 // ties, for the index reductions
	}
	for set := 1; set < 16; set++ {
		var axes, perm []int
		outer, inner := 1, 1
		for a := 0; a < 4; a++ {
			if set>>a&1 == 0 {
				perm, outer = append(perm, a), outer*shape[a]
			}
		}
		for a := 0; a < 4; a++ {
			if set>>a&1 != 0 {
				axes, perm, inner = append(axes, a), append(perm, a), inner*shape[a]
			}
		}
		moved := runRef(t, "Transpose", []Buffer{x}, Attrs{Perm: perm})
		rows := buf(moved.Data, outer, inner)
		for _, name := range []string{"Sum", "Mean", "Max", "Min", "Prod", "ArgMax", "ArgMin", "Any", "All"} {
			want := runRef(t, name, []Buffer{rows}, Attrs{Axes: []int{-1}})
			got := runRef(t, name, []Buffer{x}, Attrs{Axes: axes, KeepDims: true})
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s over %v: output %d is %g, the transposed rows give %g", name, axes, i, got.Data[i], want.Data[i])
				}
			}
			if len(got.Data) != outer || len(got.Shape) != 4 {
				t.Fatalf("%s over %v keeping dims: shape %v", name, axes, got.Shape)
			}
		}
	}
}
