package webgl_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kernels"
	"repro/internal/native"
	"repro/internal/tensor"
	"repro/internal/webgl"
	"repro/internal/webgpu"
)

// Every tier computes one function, edge values included: the shader
// programs, native's kernels, the plain cpu backend and the reference
// kernels agree on where a NaN lands and on what the ReLU family makes of
// every special value. The products of the convolutions, the matrix
// multiplies and the Conv2D gradients leave a zero lhs element out of the
// sum on every tier (kernels/fused.go), so a 0 opposite an Inf or a NaN
// contributes nothing; a depthwise convolution multiplies every tap.

// deviceBackends are the simulated devices the semantics are pinned on:
// webgl packed and unpacked, fp32 and the simulated fp16 device, and
// webgpu (which inherits every fragment program). Three workers, so chunks
// end mid-pixel and the partial-pixel bodies run too.
func deviceBackends(t *testing.T) []tier {
	var backends []tier
	for _, half := range []bool{false, true} {
		precision := map[bool]string{false: "fp32", true: "fp16"}[half]
		for _, packed := range []bool{true, false} {
			cfg := webgl.DefaultConfig()
			cfg.Packed, cfg.Device.HalfFloatOnly, cfg.Device.Workers = packed, half, 3
			b := webgl.New(cfg)
			t.Cleanup(b.Close)
			backends = append(backends, tier{fmt.Sprintf("webgl %s packed=%v", precision, packed), precision, b})
		}
		cfg := webgl.DefaultConfig()
		cfg.Device.HalfFloatOnly, cfg.Device.Workers = half, 3
		b := webgpu.New(cfg)
		t.Cleanup(b.Close)
		backends = append(backends, tier{"webgpu " + precision, precision, b})
	}
	return backends
}

// (The backend is a named field, not embedded: an embedded kernels.Backend
// would hide the device's KernelOverride method from kernels.Dispatch, and
// every case would quietly run on the reference kernel.)
type tier struct {
	name, precision string
	backend         kernels.Backend
}

// operand is a tensor of small integers and halves — exact in fp16, and so
// are their sums and products at these sizes — with special[i] written over
// every stride-th element from first on.
func operand(shape []int, first, stride int, special ...float32) kernels.Buffer {
	buf := kernels.NewBuffer(shape, tensor.Float32)
	for i := range buf.Data {
		buf.Data[i] = float32(i%7-3) / 2
		if buf.Data[i] == 0 {
			buf.Data[i] = 2 // the only zeros are the ones planted below
		}
	}
	for i, n := first, 0; i < len(buf.Data); i, n = i+stride, n+1 {
		buf.Data[i] = special[n%len(special)]
	}
	return buf
}

// dispatch runs one kernel on b through kernels.Dispatch and reads the
// output back.
func dispatch(t *testing.T, b kernels.Backend, name string, inputs []kernels.Buffer, attrs kernels.Attrs) []float32 {
	t.Helper()
	ins := make([]kernels.Input, len(inputs))
	for i, in := range inputs {
		ins[i] = kernels.Input{DataID: tensor.NewDataID(), Shape: in.Shape, DType: in.DType}
		b.Write(ins[i].DataID, in.Data, in.Shape, in.DType)
		defer b.DisposeData(ins[i].DataID)
	}
	var out kernels.TensorInfo
	if err := kernels.Dispatch(b, name, ins, attrs, &out); err != nil {
		t.Fatalf("%s on %s: %v", name, b.Name(), err)
	}
	defer b.DisposeData(out.DataID)
	// A copy: on the host backends ReadSync is the buffer itself, which the
	// pool poisons once it is disposed.
	return slices.Clone(b.ReadSync(out.DataID))
}

// tierCase is one kernel call whose NaNs every tier must put where the
// reference kernel does.
type tierCase struct {
	label, kernel string
	inputs        []kernels.Buffer
	attrs         kernels.Attrs
}

var (
	negZero  = float32(math.Copysign(0, -1))
	inf, nan = float32(math.Inf(1)), float32(math.NaN())
)

// zeros and specials are the two sides of every case: ±0 planted in the
// lhs, +Inf and NaN in the rhs.
func zeros(shape []int, first, stride int) kernels.Buffer {
	return operand(shape, first, stride, 0, negZero)
}

func specials(shape []int, first, stride int) kernels.Buffer {
	return operand(shape, first, stride, inf, nan)
}

func convAttrs(strides, dilations []int, pad string) kernels.Attrs {
	return kernels.Attrs{"strides": strides, "dilations": dilations, "pad": pad}
}

// pinNaNsToReference runs every case on cpu, node (three workers: its
// chunks end mid-image) and every simulated device, and requires NaN
// exactly where the reference kernel has one and its value everywhere
// else. A case whose reference output is all NaN or has none separates
// nothing and fails.
func pinNaNsToReference(t *testing.T, cases []tierCase) {
	nb := native.New()
	nb.SetWorkers(3)
	t.Cleanup(nb.Close)
	naive := cpu.NewNaive()
	t.Cleanup(naive.Close)
	tiers := append([]tier{{"cpu", "fp32", naive}, {"node", "fp32", nb}}, deviceBackends(t)...)
	for _, b := range tiers {
		for _, c := range cases {
			where := fmt.Sprintf("%s/%s on %s", c.kernel, c.label, b.name)
			ref, _ := kernels.LookupRef(c.kernel)
			want, err := ref(c.inputs, c.attrs)
			if err != nil {
				t.Fatal(err)
			}
			got := dispatch(t, b.backend, c.kernel, c.inputs, c.attrs)
			nans := 0
			for i, w := range want.Data {
				if g := got[i]; w != w {
					nans++
					if g == g {
						t.Fatalf("%s: output %d is %g, the reference tier has NaN there", where, i, g)
					}
				} else if g != w {
					t.Fatalf("%s: output %d is %g, the reference tier has %g", where, i, g, w)
				}
			}
			if nans == 0 || nans == len(want.Data) {
				t.Fatalf("%s: %d of %d reference outputs are NaN: the case separates nothing", where, nans, len(want.Data))
			}
		}
	}
}

// TestZeroLhsLeftOutOnEveryTier: the zero-skipping products — Conv2D
// (stem, pointwise narrow and wide, dilated, a window wholly in padding),
// BatchMatMul and the two Conv2D gradients — put their NaNs where the
// reference kernel does on every tier. Each case has NaNs from a NaN times
// a nonzero value on every tier, so it separates nothing unless 0·Inf and
// 0·NaN are left out.
func TestZeroLhsLeftOutOnEveryTier(t *testing.T) {
	s11, s22, d11 := []int{1, 1}, []int{2, 2}, []int{1, 1}
	grad := func(attrs kernels.Attrs, key string, shape []int) kernels.Attrs {
		attrs[key] = shape
		return attrs
	}
	pinNaNsToReference(t, []tierCase{
		{"stem", "Conv2D", []kernels.Buffer{zeros([]int{1, 9, 9, 3}, 4, 11), specials([]int{3, 3, 3, 8}, 5, 37)}, convAttrs(s22, d11, "same")},
		{"narrowPointwise", "Conv2D", []kernels.Buffer{zeros([]int{1, 4, 4, 8}, 3, 13), specials([]int{1, 1, 8, 16}, 9, 29)}, convAttrs(s11, d11, "same")},
		{"widePointwise", "Conv2D", []kernels.Buffer{zeros([]int{1, 3, 3, 40}, 7, 53), specials([]int{1, 1, 40, 9}, 2, 61)}, convAttrs(s11, d11, "valid")},
		{"dilation2", "Conv2D", []kernels.Buffer{zeros([]int{1, 7, 6, 5}, 1, 9), specials([]int{3, 3, 5, 12}, 6, 47)}, convAttrs(s11, s22, "same")},
		{"inPadding", "Conv2D", []kernels.Buffer{zeros([]int{1, 2, 2, 3}, 1, 4), specials([]int{2, 2, 3, 16}, 2, 13)}, convAttrs(s11, []int{3, 3}, "same")},
		{"matmul", "BatchMatMul", []kernels.Buffer{zeros([]int{1, 4, 40}, 6, 17), specials([]int{1, 40, 12}, 8, 43)}, kernels.Attrs{"transposeA": false, "transposeB": false}},
		{"matmulBcast", "BatchMatMul", []kernels.Buffer{zeros([]int{1, 3, 5}, 2, 4), specials([]int{2, 5, 9}, 3, 11)}, kernels.Attrs{"transposeA": false, "transposeB": false}},
		{"filterGrad", "Conv2DBackpropFilter", []kernels.Buffer{zeros([]int{2, 6, 6, 3}, 2, 7), specials([]int{2, 6, 6, 8}, 5, 31)},
			grad(convAttrs(s11, d11, "same"), "filterShape", []int{3, 3, 3, 8})},
		{"inputGrad", "Conv2DBackpropInput", []kernels.Buffer{zeros([]int{2, 3, 3, 8}, 1, 5), specials([]int{3, 3, 3, 8}, 4, 41)},
			grad(convAttrs(s22, d11, "same"), "inputShape", []int{2, 6, 6, 3})},
	})
}

// TestZeroTimesInfIsNaNAsOnTheReferenceTier: the depthwise convolution is
// the one product that stays dense — the reference kernel multiplies every
// tap, so a ±0 opposite +Inf or NaN puts a NaN in the sum — and every tier
// puts those NaNs where the reference does: channel multiplier 1 at stride
// 1 and 2, and multiplier 2.
func TestZeroTimesInfIsNaNAsOnTheReferenceTier(t *testing.T) {
	s11, s22, d11 := []int{1, 1}, []int{2, 2}, []int{1, 1}
	pinNaNsToReference(t, []tierCase{
		{"c9", "DepthwiseConv2dNative", []kernels.Buffer{zeros([]int{1, 5, 5, 9}, 2, 7), specials([]int{3, 3, 9, 1}, 4, 10)}, convAttrs(s11, d11, "same")},
		{"stride2", "DepthwiseConv2dNative", []kernels.Buffer{zeros([]int{1, 6, 6, 16}, 5, 23), specials([]int{3, 3, 16, 1}, 1, 19)}, convAttrs(s22, d11, "same")},
		{"depthwiseMult2", "DepthwiseConv2dNative", []kernels.Buffer{zeros([]int{1, 5, 5, 3}, 1, 5), specials([]int{3, 3, 3, 2}, 3, 8)}, convAttrs(s11, d11, "valid")},
	})
}

// The batch-norm row program keeps 256 channels' √(variance+ε) on its stack
// at a time, and every contract case and MobileNet α=0.25 fit in one such
// tile. 300 channels take two, and at 3 and 7 workers the ranges begin and
// end inside either tile of a pixel, so the second tile's index arithmetic
// runs too — against the reference kernel, bit for bit.
func TestBatchNormWiderThanOneTile(t *testing.T) {
	const c = 300
	fill := func(shape []int, positive bool) kernels.Buffer {
		buf := kernels.NewBuffer(shape, tensor.Float32)
		for i := range buf.Data {
			buf.Data[i] = float32((i*37+len(shape)*11)%91)/13 - 3
			if positive {
				buf.Data[i] = buf.Data[i]*buf.Data[i] + 0.25
			}
		}
		return buf
	}
	inputs := []kernels.Buffer{fill([]int{1, 2, 3, c}, false), fill([]int{c}, false), fill([]int{c}, true),
		fill([]int{1, c}, false), fill([]int{1, 1, c}, false)}
	attrs := kernels.Attrs{"varianceEpsilon": 1e-3}
	ref, _ := kernels.LookupRef("FusedBatchNorm")
	want, err := ref(inputs, attrs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 7} {
		for _, packed := range []bool{true, false} {
			cfg := webgl.DefaultConfig()
			cfg.Packed, cfg.Device.Workers = packed, workers
			b := webgl.New(cfg)
			got := dispatch(t, b, "FusedBatchNorm", inputs, attrs)
			b.Close()
			for i, w := range want.Data {
				if math.Float32bits(got[i]) != math.Float32bits(w) {
					t.Fatalf("workers=%d packed=%v: value %d (channel %d) is %g, the reference tier has %g",
						workers, packed, i, i%c, got[i], w)
				}
			}
		}
	}
}

// reluFamilyInputs are the values the ReLU family's edge semantics turn on:
// NaN of either sign, ±0, ±Inf, 6 and its neighbours, the smallest and the
// largest denormals, and ordinary values either side of each threshold.
var reluFamilyInputs = []uint32{
	0x7fc00000, 0xffc00000, 0x7f800001, // NaN, −NaN, a signalling NaN
	0x00000000, 0x80000000, 0x7f800000, 0xff800000, // ±0, ±Inf
	0x40c00000, 0x40c00001, 0x40bfffff, 0xc0c00000, // 6, nextafter(6, ±Inf), −6
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // denormals
	0x00800000, 0x80800000, 0x3f800000, 0xbf800000, 0x40400000, 0x7f7fffff, 0xff7fffff,
}

// reluFamilyGolden holds, per kernel and device precision, the output bits
// of reluFamilyInputs as the per-element closures this table replaced
// computed them (recorded at the commit before the ReLU programs became
// vec's bit-select rows). On the fp16 device the upload rounds the inputs
// first; the signalling NaN is quieted by that rounding only.
var reluFamilyGolden = map[string][]uint32{
	"Relu/fp32": {
		0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x7f800000, 0x00000000, 0x40c00000,
		0x40c00001, 0x40bfffff, 0x00000000, 0x00000001, 0x00000000, 0x007fffff, 0x00000000, 0x00800000,
		0x00000000, 0x3f800000, 0x00000000, 0x40400000, 0x7f7fffff, 0x00000000,
	},
	"Relu6/fp32": {
		0x7fc00000, 0xffc00000, 0x7f800001, 0x00000000, 0x80000000, 0x40c00000, 0x00000000, 0x40c00000,
		0x40c00000, 0x40bfffff, 0x00000000, 0x00000001, 0x00000000, 0x007fffff, 0x00000000, 0x00800000,
		0x00000000, 0x3f800000, 0x00000000, 0x40400000, 0x40c00000, 0x00000000,
	},
	"Step/fp32": {
		0x7fc00000, 0xffc00000, 0x7f800001, 0x3f000000, 0x3f000000, 0x3f800000, 0x3f000000, 0x3f800000,
		0x3f800000, 0x3f800000, 0x3f000000, 0x3f800000, 0x3f000000, 0x3f800000, 0x3f000000, 0x3f800000,
		0x3f000000, 0x3f800000, 0x3f000000, 0x3f800000, 0x3f800000, 0x3f000000,
	},
	"Relu/fp16": {
		0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x7f800000, 0x00000000, 0x40c00000,
		0x40c00000, 0x40c00000, 0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000,
		0x00000000, 0x3f800000, 0x00000000, 0x40400000, 0x7f800000, 0x00000000,
	},
	"Relu6/fp16": {
		0x7fc00000, 0x7fc00000, 0x7fc00000, 0x00000000, 0x80000000, 0x40c00000, 0x00000000, 0x40c00000,
		0x40c00000, 0x40c00000, 0x00000000, 0x00000000, 0x80000000, 0x00000000, 0x80000000, 0x00000000,
		0x80000000, 0x3f800000, 0x00000000, 0x40400000, 0x40c00000, 0x00000000,
	},
	"Step/fp16": {
		0x7fc00000, 0x7fc00000, 0x7fc00000, 0x3f000000, 0x3f000000, 0x3f800000, 0x3f000000, 0x3f800000,
		0x3f800000, 0x3f800000, 0x3f000000, 0x3f000000, 0x3f000000, 0x3f000000, 0x3f000000, 0x3f000000,
		0x3f000000, 0x3f800000, 0x3f000000, 0x3f800000, 0x3f800000, 0x3f000000,
	},
}

func TestReluFamilyRowsMatchTheClosuresTheyReplaced(t *testing.T) {
	inputs := make([]float32, len(reluFamilyInputs))
	for i, bits := range reluFamilyInputs {
		inputs[i] = math.Float32frombits(bits)
	}
	// Repeated so every lane of a vector step and of its tail sees every value.
	const copies = 3
	in := kernels.NewBuffer([]int{copies * len(inputs)}, tensor.Float32)
	for i := range in.Data {
		in.Data[i] = inputs[i%len(inputs)]
	}
	for _, b := range deviceBackends(t) {
		for _, k := range []struct {
			kernel string
			attrs  kernels.Attrs
		}{{"Relu", nil}, {"Relu6", nil}, {"Step", kernels.Attrs{"alpha": 0.5}}} {
			got := dispatch(t, b.backend, k.kernel, []kernels.Buffer{in}, k.attrs)
			want := reluFamilyGolden[k.kernel+"/"+b.precision]
			for i, v := range got {
				if bits := math.Float32bits(v); bits != want[i%len(inputs)] {
					t.Fatalf("%s on %s: %s(%#08x) = %#08x, the closure gave %#08x",
						k.kernel, b.name, k.kernel, reluFamilyInputs[i%len(inputs)], bits, want[i%len(inputs)])
				}
			}
		}
	}
}
