package webgl

import (
	"math/rand"
	"testing"

	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// The closed forms in work.go against a brute-force walk of the index
// space each one summarises: the walk visits every output value and every
// filter tap or sampler term the per-value shader would, and counts.

func mustConvInfo(t *testing.T, in, filter, strides, dilations []int, pad string, depthwise bool) kernels.Conv2DInfo {
	t.Helper()
	info, err := kernels.ComputeConv2DInfo(in, filter, strides, dilations, pad, depthwise)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

var workGeometries = []struct {
	name                                string
	in, filter, strides, dilations      []int
	pad                                 string
	depthwiseFilter, poolFilter, poolSt []int
}{
	{"3x3 same", []int{2, 9, 9, 3}, []int{3, 3, 3, 4}, []int{1, 1}, []int{1, 1}, "same", []int{3, 3, 3, 1}, []int{2, 2}, []int{2, 2}},
	{"3x3 same stride 2", []int{1, 10, 7, 9}, []int{3, 3, 9, 17}, []int{2, 2}, []int{1, 1}, "same", []int{3, 3, 9, 2}, []int{3, 3}, []int{2, 2}},
	{"3x2 same stride 2 dilation 2", []int{1, 10, 7, 9}, []int{3, 2, 9, 5}, []int{2, 2}, []int{2, 2}, "same", []int{3, 2, 9, 3}, []int{3, 3}, []int{1, 1}},
	{"valid", []int{2, 8, 11, 1}, []int{2, 3, 1, 3}, []int{2, 1}, []int{1, 2}, "valid", []int{2, 3, 1, 2}, []int{2, 3}, []int{2, 1}},
	{"pointwise", []int{1, 6, 6, 8}, []int{1, 1, 8, 16}, []int{1, 1}, []int{1, 1}, "same", []int{1, 1, 8, 1}, []int{1, 1}, []int{1, 1}},
	{"zero batch", []int{0, 5, 5, 3}, []int{3, 3, 3, 4}, []int{1, 1}, []int{1, 1}, "same", []int{3, 3, 3, 2}, []int{2, 2}, []int{2, 2}},
}

// walkWindowProgram visits every (value, in-bounds tap) pair of a forward
// NHWC window program the way the per-value shader does.
func walkWindowProgram(info kernels.Conv2DInfo, visit func()) (values int) {
	for b := 0; b < info.BatchSize; b++ {
		for oy := 0; oy < info.OutHeight; oy++ {
			for ox := 0; ox < info.OutWidth; ox++ {
				for oc := 0; oc < info.OutChannels; oc++ {
					values++
					for fy := 0; fy < info.FilterHeight; fy++ {
						iy := oy*info.StrideHeight - info.PadTop + fy*info.DilationHeight
						if iy < 0 || iy >= info.InHeight {
							continue
						}
						for fx := 0; fx < info.FilterWidth; fx++ {
							ix := ox*info.StrideWidth - info.PadLeft + fx*info.DilationWidth
							if ix < 0 || ix >= info.InWidth {
								continue
							}
							visit()
						}
					}
				}
			}
		}
	}
	return values
}

func TestConvWorkMatchesAWalk(t *testing.T) {
	for _, g := range workGeometries {
		info := mustConvInfo(t, g.in, g.filter, g.strides, g.dilations, g.pad, false)
		var want glsim.Work
		values := walkWindowProgram(info, func() {
			for ic := 0; ic < info.InChannels; ic++ {
				want.Fetches += 2
				want.ALU += aluMAC
			}
		})
		want.ALU += int64(values) * 3 * aluDecode
		if got := convWork(info, values, false, false); got != want {
			t.Errorf("%s: convWork = %+v, walk counts %+v", g.name, got, want)
		}
		want.Fetches += int64(values)
		want.ALU += 2 * int64(values)
		if got := convWork(info, values, true, true); got != want {
			t.Errorf("%s fused: convWork = %+v, walk counts %+v", g.name, got, want)
		}

	}
}

func TestDepthwiseWorkMatchesAWalk(t *testing.T) {
	for _, g := range workGeometries {
		info := mustConvInfo(t, g.in, g.depthwiseFilter, g.strides, g.dilations, g.pad, true)
		var want glsim.Work
		values := walkWindowProgram(info, func() {
			want.Fetches += 2
			want.ALU += aluMAC
		})
		want.ALU += int64(values) * 4 * aluDecode
		if got := depthwiseWork(info, values, false, false); got != want {
			t.Errorf("%s (multiplier %d): depthwiseWork = %+v, walk counts %+v", g.name, info.ChannelMultiplier, got, want)
		}
	}
}

func TestBackpropTapsMatchAWalk(t *testing.T) {
	for _, g := range workGeometries {
		info, err := kernels.ComputePool2DInfo(g.in, g.poolFilter, g.poolSt, g.pad)
		if err != nil {
			t.Fatal(err)
		}
		// For every input position, every window that covers it, and every
		// in-bounds cell of that window — MaxPoolGrad's triple loop.
		var pairs, cells int64
		for b := 0; b < info.BatchSize; b++ {
			for iy := 0; iy < info.InHeight; iy++ {
				for ix := 0; ix < info.InWidth; ix++ {
					for fy := 0; fy < info.FilterHeight; fy++ {
						oyNum := iy + info.PadTop - fy
						if oyNum < 0 || oyNum%info.StrideHeight != 0 || oyNum/info.StrideHeight >= info.OutHeight {
							continue
						}
						for fx := 0; fx < info.FilterWidth; fx++ {
							oxNum := ix + info.PadLeft - fx
							if oxNum < 0 || oxNum%info.StrideWidth != 0 || oxNum/info.StrideWidth >= info.OutWidth {
								continue
							}
							pairs++
							for wy := 0; wy < info.FilterHeight; wy++ {
								yy := oyNum - info.PadTop + wy
								if yy < 0 || yy >= info.InHeight {
									continue
								}
								for wx := 0; wx < info.FilterWidth; wx++ {
									if xx := oxNum - info.PadLeft + wx; xx >= 0 && xx < info.InWidth {
										cells++
									}
								}
							}
						}
					}
				}
			}
		}
		gotPairs, gotCells := backpropTaps(info)
		if gotPairs != pairs || gotCells != cells {
			t.Errorf("%s: backpropTaps = (%d, %d), walk counts (%d, %d)", g.name, gotPairs, gotCells, pairs, cells)
		}
	}
}

func TestMatMulWorkMatchesAWalk(t *testing.T) {
	for _, c := range []struct{ rows, n, k int }{
		{5, 8, 7}, {5, 6, 7}, {9, 1, 3}, {4, 2, 5}, {3, 3, 4}, {7, 5, 1}, {1, 1000, 256}, {0, 4, 3}, {3, 5, 0},
	} {
		size := c.rows * c.n
		// Unpacked: every value fetches A and B once per k.
		var unpacked glsim.Work
		for v := 0; v < size; v++ {
			unpacked.Fetches += 2 * int64(c.k)
			unpacked.ALU += aluMAC*int64(c.k) + 2*aluDecode
		}
		if got := macWork(size, int64(size)*int64(c.k), 2); got != unpacked {
			t.Errorf("%dx%d·k%d: macWork = %+v, walk counts %+v", c.rows, c.n, c.k, got, unpacked)
		}
		// Packed: the texel shader of the paper's vec4 trick, texel by texel.
		packed := glsim.Work{ALU: unpacked.ALU}
		for texel := 0; texel*4 < size; texel++ {
			base := texel * 4
			limit := min(4, size-base)
			if base%c.n+limit <= c.n {
				packed.Fetches += int64(c.k) * int64(1+limit) // one A row sample, limit B samples per k
			} else {
				packed.Fetches += int64(c.k) * int64(2*limit) // straddles a row end: per-value shader
			}
		}
		if got := packedMatMulWork(size, c.n, c.k); got != packed {
			t.Errorf("%dx%d·k%d: packedMatMulWork = %+v, walk counts %+v", c.rows, c.n, c.k, got, packed)
		}
		if size > 0 && c.k > 0 && c.n >= 4 && packed.Fetches >= unpacked.Fetches {
			t.Errorf("%dx%d·k%d: packing must save A fetches (%d vs %d)", c.rows, c.n, c.k, packed.Fetches, unpacked.Fetches)
		}
	}
}

// declaredWork dispatches one registered program on b and returns the work
// the device was charged for it.
func declaredWork(t *testing.T, b *Backend, name string, attrs kernels.Attrs, inputs ...cin) glsim.Work {
	t.Helper()
	ins := make([]kernels.Input, len(inputs))
	for i, in := range inputs {
		id := tensor.NewDataID()
		b.Write(id, in.vals, in.shape, in.dtype)
		ins[i] = kernels.Input{DataID: id, Shape: in.shape, DType: in.dtype}
		defer b.DisposeData(id)
	}
	<-b.device.FenceSync()
	before := b.device.Stats()
	var out kernels.TensorInfo
	if err := b.kernelsTable[name](ins, attrs, &out); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer b.DisposeData(out.DataID)
	<-b.device.FenceSync()
	after := b.device.Stats()
	return glsim.Work{Fetches: after.Fetches - before.Fetches, Shared: after.SharedReads - before.SharedReads, ALU: after.ALUOps - before.ALUOps}
}

// TestTrainingWorkMatchesAWalk: the programs of a training step's tail —
// the bias gradient's leading-axes sum and Adam's two kernels — are charged
// what a walk of their per-value shaders counts.
func TestTrainingWorkMatchesAWalk(t *testing.T) {
	b := newContractBackend(t, contractConfig{packed: true, squeeze: true}, 1)
	rng := rand.New(rand.NewSource(1))
	for _, s := range [][2]int{{0, 4}, {3, 0}, {1, 1}, {32, 10}, {17, 9}} {
		outer, inner := s[0], s[1]
		var want glsim.Work
		for c := 0; c < inner; c++ {
			for r := 0; r < outer; r++ {
				want.Fetches++ // x[r, c]
				want.ALU++     // added to the column's sum
			}
		}
		if got := declaredWork(t, b, "BiasAddGrad", kernels.Attrs{}, rnd(rng, outer, inner)); got != want {
			t.Errorf("BiasAddGrad [%d, %d]: charged %+v, walk counts %+v", outer, inner, got, want)
		}
	}
	for _, shape := range [][]int{{}, {0}, {7}, {3, 3, 1, 8}} {
		n := tensor.ShapeSize(shape)
		slot := append([]int{2}, shape...)
		var moments glsim.Work
		for i := 0; i < 2*n; i++ {
			moments.Fetches += 2 // the old moment and the gradient
			moments.ALU++        // i < n: which moment
			if i < n {
				moments.ALU += 3 // m·beta1, g·(1-beta1), the add
			} else {
				moments.ALU += 4 // g·g, v·beta2, g²·(1-beta2), the add
			}
		}
		if got := declaredWork(t, b, "AdamMoments", kernels.Attrs{}, rnd(rng, slot...), rnd(rng, shape...)); got != moments {
			t.Errorf("AdamMoments %v: charged %+v, walk counts %+v", shape, got, moments)
		}
		var step glsim.Work
		for i := 0; i < n; i++ {
			step.Fetches += 3 // x, m and v
			step.ALU += 2     // m/(1-beta1^t), v/(1-beta2^t)
			step.ALU += 2     // ·lr, the square root
			step.ALU += 3     // +eps, the divide, the subtract
		}
		if got := declaredWork(t, b, "ApplyAdam", kernels.Attrs{}, rnd(rng, shape...), pos(rng, slot...)); got != step {
			t.Errorf("ApplyAdam %v: charged %+v, walk counts %+v", shape, got, step)
		}
	}
}

func TestSamplerTermsMatchTheCompiledSamplers(t *testing.T) {
	for _, c := range []struct{ in, out []int }{
		{[]int{9}, []int{2, 3, 3, 9}},
		{[]int{1, 1, 1, 9}, []int{2, 3, 3, 9}},
		{[]int{}, []int{3, 7}},
		{[]int{1}, []int{3, 7}},
		{[]int{5, 1}, []int{2, 5, 3}},
		{[]int{1, 64, 1, 1}, []int{1, 64, 1, 2048}},
		{[]int{1, 64, 1, 2048}, []int{1, 64, 1, 2048}},
		{[]int{1, 3, 1, 2}, []int{1, 3, 1, 2}},
		{[]int{2, 3, 4}, []int{2, 3, 4}},
	} {
		for _, squeeze := range []bool{true, false} {
			// The terms broadcastSamplers keeps, evaluated once per output
			// value as the compiled mapper does.
			aligned := compileSampler(c.in, c.out, squeeze, nil).strides
			var want int64
			for flat := 0; flat < tensor.ShapeSize(c.out); flat++ {
				for i, dim := range c.out {
					if squeeze && (dim == 1 || aligned[i] == 0) {
						continue
					}
					want++
				}
			}
			got := int64(tensor.ShapeSize(c.out)) * int64(samplerTerms(c.in, c.out, squeeze))
			if got != want {
				t.Errorf("operand %v in output %v, squeeze=%v: %d terms, the compiled sampler evaluates %d", c.in, c.out, squeeze, got, want)
			}
		}
	}
}
