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
// of the vector cores, and its two gradients (InputGrad, PoolGrad), the
// ranges taken in order, the reference gradient kernels'. The geometries
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
			for _, ranges := range walkCuts(len(want.Data), info.OutWidth*info.OutChannels) {
				got := make([]float32, len(want.Data))
				for i := range got {
					got[i] = 12345 // every value is written, none read first
				}
				for _, r := range ranges {
					rangeBody(walk, x, w, ep, r[0], got[r[0]:r[1]])
				}
				sameBits(t, fmt.Sprintf("%s/%s/%s/%d ranges", name, g.label, body, len(ranges)), got, want.Data)
			}
			if !g.depthwise {
				checkInputGrad(t, g.label+"/"+body, walk, info, g.x, w, g.w, attrs, rng)
			}
		}
		for _, g := range pools {
			x := walkOperand(rng, tensor.ShapeSize(g.x))
			info, err := ComputePool2DInfo(g.x, g.filter, g.strides, g.pad)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []struct {
				name  string
				pixel func(dst, x []float32, rowStride, tapStride, rows, taps int)
			}{{"MaxPool", vec.PoolMax}, {"AvgPool", vec.PoolAvg}} {
				want := runRef(t, p.name, []Buffer{buf(x, g.x...)}, Attrs{"filterSize": g.filter, "strides": g.strides, "pad": g.pad})
				for _, ranges := range walkCuts(len(want.Data), info.OutWidth*info.OutChannels) {
					got := make([]float32, len(want.Data))
					for _, r := range ranges {
						NewWalk(info).Pool(x, p.pixel, r[0], got[r[0]:r[1]])
					}
					sameBits(t, fmt.Sprintf("%s/%s/%s/%d ranges", p.name, g.label, body, len(ranges)), got, want.Data)
				}
			}
			dy := walkOperand(rng, tensor.ShapeSize(info.OutShape()))
			want := runRef(t, "MaxPoolGrad", []Buffer{buf(dy, info.OutShape()...), buf(x, g.x...)},
				Attrs{"filterSize": g.filter, "strides": g.strides, "pad": g.pad})
			for _, ranges := range walkCuts(len(dy), info.OutWidth*info.OutChannels) {
				got := make([]float32, len(x))
				for _, r := range ranges {
					NewWalk(info).PoolGrad(x, got, r[0], dy[r[0]:r[1]])
				}
				sameBits(t, fmt.Sprintf("MaxPoolGrad/%s/%s/%d ranges", g.label, body, len(ranges)), got, want.Data)
			}
		}
	}
}

// checkInputGrad holds Walk.InputGrad to Conv2DBackpropInput over every cut
// of the output gradient, the ranges taken in order.
func checkInputGrad(t *testing.T, label string, walk Walk, info Conv2DInfo, xShape []int, w []float32, wShape []int, attrs Attrs, rng *rand.Rand) {
	t.Helper()
	dy := walkOperand(rng, tensor.ShapeSize(info.OutShape()))
	gradAttrs := Attrs{"inputShape": xShape}
	for k, v := range attrs {
		gradAttrs[k] = v
	}
	want := runRef(t, "Conv2DBackpropInput", []Buffer{buf(dy, info.OutShape()...), buf(w, wShape...)}, gradAttrs)
	// The filter as InputGrad reads it: [fy][oc][fx][ic].
	fH, fW, inC, outC := wShape[0], wShape[1], wShape[2], wShape[3]
	wT := make([]float32, len(w))
	for fy := 0; fy < fH; fy++ {
		for fx := 0; fx < fW; fx++ {
			for ic := 0; ic < inC; ic++ {
				for oc := 0; oc < outC; oc++ {
					wT[((fy*outC+oc)*fW+fx)*inC+ic] = w[((fy*fW+fx)*inC+ic)*outC+oc]
				}
			}
		}
	}
	for _, ranges := range walkCuts(len(dy), info.OutWidth*info.OutChannels) {
		got := make([]float32, len(want.Data))
		for _, r := range ranges {
			walk.InputGrad(wT, got, r[0], dy[r[0]:r[1]])
		}
		sameBits(t, fmt.Sprintf("Conv2DBackpropInput/%s/%d ranges", label, len(ranges)), got, want.Data)
	}
}
