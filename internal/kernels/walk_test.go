package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/vec"
)

// walkOperand fills n values from rng: about a quarter exact zeros of
// either sign (the lhs elements the products leave out), a few NaN and
// ±Inf, the rest small normals.
func walkOperand(rng *rand.Rand, n int) []float32 {
	specials := []float32{0, float32(math.Copysign(0, -1)), 0, float32(math.Copysign(0, -1)),
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	out := make([]float32, n)
	for i := range out {
		if r := rng.Intn(32); r < len(specials) {
			out[i] = specials[r]
		} else {
			out[i] = float32(rng.NormFloat64())
		}
	}
	return out
}

// walkCuts cuts [0, n) into the ranges a host backend hands the walk: the
// whole output, whole output rows, and ranges that start and end anywhere
// — mid-pixel, mid-row, across rows and images.
func walkCuts(n, row int) [][][2]int {
	var cuts [][][2]int
	for _, step := range []int{n, row, 7, 13, 1000} {
		var ranges [][2]int
		for lo := 0; lo < n; lo += max(step, 1) {
			ranges = append(ranges, [2]int{lo, min(n, lo+max(step, 1))})
		}
		cuts = append(cuts, ranges)
	}
	return cuts
}

// unwritten is an output buffer as a recycled texture or pooled buffer
// hands it to a body: holding values the body must overwrite, not add to.
func unwritten(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = 12345
	}
	return out
}

func sameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for i := range want {
		if g, w := got[i], want[i]; math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: value %d is %g (bits %08x), the reference kernel's %g (bits %08x)",
				label, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// TestWalkMatchesReference: a Walk's Conv2D, Depthwise and Pool bodies,
// over every cut of the output into ranges, compute the reference kernels'
// values to the bit — the fused ones with their epilogue — on both bodies
// of the vector cores, and so do its gradients (InputGrad, DepthwiseInputGrad,
// DepthwiseFilterGrad, MaxPoolGrad, AvgPoolGrad) over every cut of theirs,
// the reference gradient kernels' values. The geometries
// cover the stem, narrow and wide pointwise rows (flat walks, one of them
// past runFloats), a pointwise layer of 300 channels in and out (lists and
// rows of several NZCap), dilation, a window wholly in the padding,
// strides, and depthwise runs: of 44 channels (five vector steps and a
// four-lane tail) under a closure activation, dilated, flat past
// runFloats, and with a multiplier of 2.
func TestWalkMatchesReference(t *testing.T) {
	type geometry struct {
		label           string
		x, w            []int
		strides, dilate []int
		pad, act        string
		depthwise       bool
	}
	convs := []geometry{
		{"stem", []int{2, 9, 9, 3}, []int{3, 3, 3, 8}, []int{2, 2}, []int{1, 1}, "same", "relu6", false},
		{"narrowPointwise", []int{2, 4, 5, 8}, []int{1, 1, 8, 16}, []int{1, 1}, []int{1, 1}, "same", "relu", false},
		{"widePointwise", []int{1, 3, 3, 40}, []int{1, 1, 40, 9}, []int{1, 1}, []int{1, 1}, "valid", "", false},
		{"pastRunFloats", []int{1, 33, 33, 2}, []int{1, 1, 2, 8}, []int{1, 1}, []int{1, 1}, "same", "relu6", false},
		{"dilated", []int{1, 7, 6, 5}, []int{3, 3, 5, 12}, []int{1, 1}, []int{2, 2}, "same", "elu", false},
		{"inPadding", []int{1, 2, 2, 3}, []int{2, 2, 3, 16}, []int{1, 1}, []int{3, 3}, "same", "relu6", false},
		{"rectStride", []int{2, 8, 11, 3}, []int{2, 3, 3, 10}, []int{2, 1}, []int{1, 2}, "same", "tanh", false},
		{"depthwise", []int{2, 6, 7, 9}, []int{3, 3, 9, 1}, []int{1, 1}, []int{1, 1}, "same", "relu6", true},
		{"depthwiseStride2", []int{1, 7, 7, 16}, []int{3, 3, 16, 1}, []int{2, 2}, []int{1, 1}, "same", "", true},
		{"depthwiseMult2", []int{1, 5, 6, 3}, []int{3, 3, 3, 2}, []int{1, 1}, []int{2, 1}, "same", "relu", true},
		{"depthwiseInPadding", []int{1, 2, 2, 8}, []int{2, 2, 8, 1}, []int{1, 1}, []int{3, 3}, "same", "relu6", true},
		{"depthwise44", []int{2, 5, 6, 44}, []int{3, 3, 44, 1}, []int{1, 1}, []int{1, 1}, "same", "elu", true},
		{"depthwiseDilated", []int{1, 7, 8, 12}, []int{3, 3, 12, 1}, []int{1, 1}, []int{2, 2}, "same", "relu", true},
		{"depthwisePastRunFloats", []int{1, 33, 33, 8}, []int{1, 1, 8, 1}, []int{1, 1}, []int{1, 1}, "same", "relu6", true},
		{"pointwise300", []int{1, 3, 4, 300}, []int{1, 1, 300, 300}, []int{1, 1}, []int{1, 1}, "valid", "relu", false},
	}
	pools := []struct {
		label              string
		x, filter, strides []int
		pad                string
	}{
		{"2x2", []int{2, 5, 7, 3}, []int{2, 2}, []int{2, 2}, "same"},
		{"3x3s2", []int{1, 7, 5, 17}, []int{3, 3}, []int{2, 2}, "same"},
		{"3x2s1", []int{1, 4, 6, 9}, []int{3, 2}, []int{1, 1}, "valid"},
	}
	for _, body := range []string{"default", "scalar"} {
		if body == "scalar" {
			restore, forced := vec.ForceScalar()
			if !forced {
				continue
			}
			defer restore()
		}
		rng := rand.New(rand.NewSource(26))
		for _, g := range convs {
			name := "FusedConv2D"
			if g.depthwise {
				name = "FusedDepthwiseConv2dNative"
			}
			x, w := walkOperand(rng, tensor.ShapeSize(g.x)), walkOperand(rng, tensor.ShapeSize(g.w))
			attrs := Attrs{"strides": g.strides, "dilations": g.dilate, "pad": g.pad, "activation": g.act}
			info, err := ComputeConv2DInfo(g.x, g.w, g.strides, g.dilate, g.pad, g.depthwise)
			if err != nil {
				t.Fatal(err)
			}
			bias := walkOperand(rng, info.OutChannels)
			want := runRef(t, name, []Buffer{buf(x, g.x...), buf(w, g.w...), buf(bias, info.OutChannels)}, attrs)
			ep, err := FusedTail(name, []Input{{Shape: g.x}, {Shape: g.w}, {Shape: []int{info.OutChannels}}}, attrs, info.OutChannels, nil)
			if err != nil {
				t.Fatal(err)
			}
			ep.Bias = append(bias, 7, 7, 7) // padded past the last channel, as a texture's host slice is
			walk, rangeBody := NewWalk(info), Walk.Conv2D
			if g.depthwise {
				rangeBody = Walk.Depthwise
			}
			checkCuts(t, name+"/"+g.label+"/"+body, want.Data, info.OutWidth*info.OutChannels, func(lo int, dst []float32) {
				rangeBody(walk, x, w, ep, lo, dst)
			})
			checkConvGrads(t, g.label+"/"+body, info, x, w, g.x, g.w, attrs, g.depthwise, rng)
		}
		for _, g := range pools {
			x := walkOperand(rng, tensor.ShapeSize(g.x))
			info, err := ComputePool2DInfo(g.x, g.filter, g.strides, g.pad)
			if err != nil {
				t.Fatal(err)
			}
			attrs, walk := Attrs{"filterSize": g.filter, "strides": g.strides, "pad": g.pad, "inputShape": g.x}, NewWalk(info)
			for _, p := range []struct {
				name  string
				pixel func(dst, x []float32, rowStride, tapStride, rows, taps int)
			}{{"MaxPool", vec.PoolMax}, {"AvgPool", vec.PoolAvg}} {
				want := runRef(t, p.name, []Buffer{buf(x, g.x...)}, attrs)
				checkCuts(t, p.name+"/"+g.label+"/"+body, want.Data, info.OutWidth*info.OutChannels, func(lo int, dst []float32) {
					walk.Pool(x, p.pixel, lo, dst)
				})
			}
			dy, inRow := walkOperand(rng, tensor.ShapeSize(info.OutShape())), info.InWidth*info.InChannels
			want := runRef(t, "MaxPoolGrad", []Buffer{buf(dy, info.OutShape()...), buf(x, g.x...)}, attrs)
			checkCuts(t, "MaxPoolGrad/"+g.label+"/"+body, want.Data, inRow, func(lo int, dst []float32) {
				walk.MaxPoolGrad(x, dy, lo, dst)
			})
			want = runRef(t, "AvgPoolGrad", []Buffer{buf(dy, info.OutShape()...)}, attrs)
			checkCuts(t, "AvgPoolGrad/"+g.label+"/"+body, want.Data, inRow, func(lo int, dst []float32) {
				walk.AvgPoolGrad(dy, lo, dst)
			})
		}
	}
}

// checkCuts runs body over every cut of its output into ranges (walkCuts)
// and holds what it writes to want.
func checkCuts(t *testing.T, label string, want []float32, row int, body func(lo int, dst []float32)) {
	t.Helper()
	for _, ranges := range walkCuts(len(want), row) {
		got := unwritten(len(want))
		for _, r := range ranges {
			body(r[0], got[r[0]:r[1]])
		}
		sameBits(t, fmt.Sprintf("%s/%d ranges", label, len(ranges)), got, want)
	}
}

// checkConvGrads holds a convolution's gradient bodies — Walk.InputGrad, or
// Walk.DepthwiseInputGrad and Walk.DepthwiseFilterGrad — to the reference
// kernels over every cut of their output.
func checkConvGrads(t *testing.T, label string, info Conv2DInfo, x, w []float32, xShape, wShape []int, attrs Attrs, depthwise bool, rng *rand.Rand) {
	t.Helper()
	walk, dy := NewWalk(info), buf(walkOperand(rng, tensor.ShapeSize(info.OutShape())), info.OutShape()...)
	gradAttrs := Attrs{"inputShape": xShape, "filterShape": wShape}
	for k, v := range attrs {
		gradAttrs[k] = v
	}
	inRow := info.InWidth * info.InChannels
	if !depthwise {
		want := runRef(t, "Conv2DBackpropInput", []Buffer{dy, buf(w, wShape...)}, gradAttrs)
		wT := make([]float32, len(w))
		walk.TransposeFilter(w, wT)
		checkCuts(t, "Conv2DBackpropInput/"+label, want.Data, inRow, func(lo int, dst []float32) {
			walk.InputGrad(dy.Data, wT, lo, dst)
		})
		return
	}
	want := runRef(t, "DepthwiseConv2dNativeBackpropInput", []Buffer{dy, buf(w, wShape...)}, gradAttrs)
	checkCuts(t, "DepthwiseConv2dNativeBackpropInput/"+label, want.Data, inRow, func(lo int, dst []float32) {
		walk.DepthwiseInputGrad(dy.Data, w, lo, dst)
	})
	want = runRef(t, "DepthwiseConv2dNativeBackpropFilter", []Buffer{buf(x, xShape...), dy}, gradAttrs)
	checkCuts(t, "DepthwiseConv2dNativeBackpropFilter/"+label, want.Data, info.OutChannels, func(lo int, dst []float32) {
		walk.DepthwiseFilterGrad(x, dy.Data, info.BatchSize, lo, dst)
	})
}
