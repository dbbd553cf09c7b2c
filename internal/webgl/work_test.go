package webgl

import (
	"math/rand"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// What the device is charged for a dispatch — each kernel's cost
// (kernels/work.go, closed forms of its shapes) plus this backend's own
// terms (work.go) — against a brute-force walk of the index space each
// closed form summarises: the walk visits every output value and every
// filter tap or sampler term the per-value shader would, and counts.

// aluDecode and aluMAC are what the walks count for a decoded coordinate
// (a div and a mod) and a multiply-add.
const aluDecode, aluMAC = 2, 2

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

// convOperands is a convolution's operands on geometry g (filter f) and,
// when bias, a bias of the output's channels.
func convOperands(rng *rand.Rand, info kernels.Conv2DInfo, x, f []int, bias bool) []cin {
	ops := []cin{rnd(rng, x...), rnd(rng, f...)}
	if bias {
		ops = append(ops, rnd(rng, info.OutChannels))
	}
	return ops
}

func TestConvWorkMatchesAWalk(t *testing.T) {
	b := newContractBackend(t, contractConfig{packed: true, squeeze: true}, 1)
	rng := rand.New(rand.NewSource(1))
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
		attrs := kernels.Attrs{Strides: g.strides, Dilations: g.dilations, Pad: g.pad}
		if got := declaredWork(t, b, "Conv2D", attrs, convOperands(rng, info, g.in, g.filter, false)...); got != want {
			t.Errorf("%s: Conv2D charged %+v, walk counts %+v", g.name, got, want)
		}
		want.Fetches += int64(values)
		want.ALU += 2 * int64(values)
		attrs.Activation = "relu"
		if got := declaredWork(t, b, "FusedConv2D", attrs, convOperands(rng, info, g.in, g.filter, true)...); got != want {
			t.Errorf("%s: FusedConv2D charged %+v, walk counts %+v", g.name, got, want)
		}
	}
}

func TestDepthwiseWorkMatchesAWalk(t *testing.T) {
	b := newContractBackend(t, contractConfig{packed: true, squeeze: true}, 1)
	rng := rand.New(rand.NewSource(2))
	for _, g := range workGeometries {
		info := mustConvInfo(t, g.in, g.depthwiseFilter, g.strides, g.dilations, g.pad, true)
		var want glsim.Work
		values := walkWindowProgram(info, func() {
			want.Fetches += 2
			want.ALU += aluMAC
		})
		want.ALU += int64(values) * 4 * aluDecode
		attrs := kernels.Attrs{Strides: g.strides, Dilations: g.dilations, Pad: g.pad}
		if got := declaredWork(t, b, "DepthwiseConv2dNative", attrs, convOperands(rng, info, g.in, g.depthwiseFilter, false)...); got != want {
			t.Errorf("%s (multiplier %d): charged %+v, walk counts %+v", g.name, info.ChannelMultiplier, got, want)
		}
	}
}

// TestBackpropTapsMatchAWalk: the pool gradients are charged per covering
// window (pairs) and per cell a window rescans (cells), as a walk counts
// them.
func TestBackpropTapsMatchAWalk(t *testing.T) {
	b := newContractBackend(t, contractConfig{packed: true, squeeze: true}, 1)
	rng := rand.New(rand.NewSource(3))
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
		size, c := int64(tensor.ShapeSize(g.in)), int64(info.OutChannels)
		attrs := kernels.Attrs{FilterSize: g.poolFilter, Strides: g.poolSt, Pad: g.pad, Shape: g.in}
		want := glsim.Work{Fetches: size + c*(cells+pairs), ALU: size*3*aluDecode + c*(cells+2*pairs)}
		if got := declaredWork(t, b, "MaxPoolGrad", attrs, rnd(rng, info.OutShape()...), rnd(rng, g.in...)); got != want {
			t.Errorf("%s: MaxPoolGrad charged %+v, walk counts %+v", g.name, got, want)
		}
		want.Fetches -= size + c*cells
		if got := declaredWork(t, b, "AvgPoolGrad", attrs, rnd(rng, info.OutShape()...)); got != want {
			t.Errorf("%s: AvgPoolGrad charged %+v, walk counts %+v", g.name, got, want)
		}
	}
}

func TestMatMulWorkMatchesAWalk(t *testing.T) {
	unpackedB := newContractBackend(t, contractConfig{squeeze: true}, 1)
	packedB := newContractBackend(t, contractConfig{packed: true, squeeze: true}, 1)
	rng := rand.New(rand.NewSource(4))
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
		a, bm := rnd(rng, 1, c.rows, c.k), rnd(rng, 1, c.k, c.n)
		if got := declaredWork(t, unpackedB, "BatchMatMul", kernels.Attrs{}, a, bm); got != unpacked {
			t.Errorf("%dx%d·k%d unpacked: charged %+v, walk counts %+v", c.rows, c.n, c.k, got, unpacked)
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
		if got := declaredWork(t, packedB, "BatchMatMul", kernels.Attrs{}, a, bm); got != packed {
			t.Errorf("%dx%d·k%d packed: charged %+v, walk counts %+v", c.rows, c.n, c.k, got, packed)
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
		if got := declaredWork(t, b, "Sum", kernels.Attrs{Axes: []int{0}}, rnd(rng, outer, inner)); got != want {
			t.Errorf("Sum over axis 0 of [%d, %d]: charged %+v, walk counts %+v", outer, inner, got, want)
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
		if got := declaredWork(t, b, "AdamMoments", kernels.Attrs{Beta1: 0.9, Beta2: 0.999}, rnd(rng, slot...), rnd(rng, shape...)); got != moments {
			t.Errorf("AdamMoments %v: charged %+v, walk counts %+v", shape, got, moments)
		}
		var step glsim.Work
		for i := 0; i < n; i++ {
			step.Fetches += 3 // x, m and v
			step.ALU += 2     // m/(1-beta1^t), v/(1-beta2^t)
			step.ALU += 2     // ·lr, the square root
			step.ALU += 3     // +eps, the divide, the subtract
		}
		corr := cin{shape: []int{2}, dtype: tensor.Float32, vals: kernels.AdamCorrections(0.9, 0.999, 1)}
		if got := declaredWork(t, b, "ApplyAdam", kernels.Attrs{LearningRate: 0.001, Epsilon: 1e-8}, rnd(rng, shape...), pos(rng, slot...), corr); got != step {
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
		// The operand's stride along each output dim, 0 where it broadcasts.
		strides := make([]int, len(c.out))
		for i := range c.out {
			if j := i - len(c.out) + len(c.in); j >= 0 && c.in[j] != 1 {
				strides[i] = tensor.ShapeSize(c.in[j+1:])
			}
		}
		for _, squeeze := range []bool{true, false} {
			// A compiled sampler keeps one (flat / div % dim) · stride term
			// per output dim, squeezing dropping those of size 1 or stride
			// 0; the shader evaluates them once per output value.
			var want int64
			for flat := 0; flat < tensor.ShapeSize(c.out); flat++ {
				for i, dim := range c.out {
					if squeeze && (dim == 1 || strides[i] == 0) {
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

// TestInputGradTransposesItsFilterOncePerDispatch: Conv2DBackpropInput
// lays its filter out once per dispatch (kernels.Stage, on the device
// before any range), not once per texel range, so what its dispatch
// allocates beyond a same-sized Conv2DBackpropFilter's — whose program
// stages nothing — is the same at every device worker count.
func TestInputGradTransposesItsFilterOncePerDispatch(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	x, f := []int{2, 8, 8, 4}, []int{3, 3, 4, 6}
	attrs := kernels.Attrs{Pad: "same"}
	rng := rand.New(rand.NewSource(5))
	xs, fs, dy := rnd(rng, x...), rnd(rng, f...), rnd(rng, 2, 8, 8, 6)
	allocs := func(b *Backend, kernel string, shape []int, inputs ...cin) float64 {
		attrs := attrs
		attrs.Shape = shape
		ins := make([]kernels.Input, len(inputs))
		for i, in := range inputs {
			ins[i] = kernels.Input{DataID: tensor.NewDataID(), Shape: in.shape, DType: in.dtype}
			b.Write(ins[i].DataID, in.vals, in.shape, in.dtype)
			defer b.DisposeData(ins[i].DataID)
		}
		run := func() {
			var out kernels.TensorInfo
			if err := b.kernelsTable[kernel](ins, attrs, &out); err != nil {
				t.Fatal(err)
			}
			<-b.device.FenceSync()
			b.DisposeData(out.DataID)
		}
		for i := 0; i < 3; i++ { // warmup: texture free list, input lists
			run()
		}
		return testing.AllocsPerRun(50, run)
	}
	var first float64
	for _, workers := range []int{1, 2, 4, 8} {
		b := newContractBackend(t, contractConfig{packed: true, squeeze: true}, workers)
		extra := allocs(b, "Conv2DBackpropInput", x, dy, fs) - allocs(b, "Conv2DBackpropFilter", f, xs, dy)
		t.Logf("%d workers: Conv2DBackpropInput allocates %.0f more than Conv2DBackpropFilter", workers, extra)
		if workers == 1 {
			first = extra
		} else if extra != first {
			t.Errorf("%d workers: Conv2DBackpropInput allocates %.0f more than Conv2DBackpropFilter, %.0f at 1 worker", workers, extra, first)
		}
	}
}
