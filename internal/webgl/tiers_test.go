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

// TestEveryTierOwnsEveryKernel: every reference kernel's name is a kernel
// of every tier — the cpu tier (plain and naive), node, webgl packed and
// unpacked at fp32 and fp16, and webgpu — so kernels.Dispatch, which runs
// the backend's own kernel or fails, runs every operation on every tier.
func TestEveryTierOwnsEveryKernel(t *testing.T) {
	nb := native.New()
	t.Cleanup(nb.Close)
	tiers := append([]tier{{"cpu", "fp64", cpu.New()}, {"cpu naive", "fp64", cpu.NewNaive()}, {"node", "fp32", nb}}, deviceBackends(t)...)
	names := kernels.RefKernelNames()
	for _, b := range tiers {
		var missing []string
		for _, name := range names {
			if _, ok := b.backend.Kernel(name); !ok {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			t.Errorf("%s has no kernel for %d of %d names: %v", b.name, len(missing), len(names), missing)
		}
	}
	t.Logf("%d tiers × %d kernels", len(tiers), len(names))
}

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
	return kernels.Attrs{Strides: strides, Dilations: dilations, Pad: pad}
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
	grad := func(attrs kernels.Attrs, shape []int) kernels.Attrs {
		attrs.Shape = shape
		return attrs
	}
	pinNaNsToReference(t, []tierCase{
		{"stem", "Conv2D", []kernels.Buffer{zeros([]int{1, 9, 9, 3}, 4, 11), specials([]int{3, 3, 3, 8}, 5, 37)}, convAttrs(s22, d11, "same")},
		{"narrowPointwise", "Conv2D", []kernels.Buffer{zeros([]int{1, 4, 4, 8}, 3, 13), specials([]int{1, 1, 8, 16}, 9, 29)}, convAttrs(s11, d11, "same")},
		{"widePointwise", "Conv2D", []kernels.Buffer{zeros([]int{1, 3, 3, 40}, 7, 53), specials([]int{1, 1, 40, 9}, 2, 61)}, convAttrs(s11, d11, "valid")},
		{"dilation2", "Conv2D", []kernels.Buffer{zeros([]int{1, 7, 6, 5}, 1, 9), specials([]int{3, 3, 5, 12}, 6, 47)}, convAttrs(s11, s22, "same")},
		{"inPadding", "Conv2D", []kernels.Buffer{zeros([]int{1, 2, 2, 3}, 1, 4), specials([]int{2, 2, 3, 16}, 2, 13)}, convAttrs(s11, []int{3, 3}, "same")},
		{"matmul", "BatchMatMul", []kernels.Buffer{zeros([]int{1, 4, 40}, 6, 17), specials([]int{1, 40, 12}, 8, 43)}, kernels.Attrs{TransposeA: false, TransposeB: false}},
		{"matmulBcast", "BatchMatMul", []kernels.Buffer{zeros([]int{1, 3, 5}, 2, 4), specials([]int{2, 5, 9}, 3, 11)}, kernels.Attrs{TransposeA: false, TransposeB: false}},
		{"filterGrad", "Conv2DBackpropFilter", []kernels.Buffer{zeros([]int{2, 6, 6, 3}, 2, 7), specials([]int{2, 6, 6, 8}, 5, 31)},
			grad(convAttrs(s11, d11, "same"), []int{3, 3, 3, 8})},
		{"inputGrad", "Conv2DBackpropInput", []kernels.Buffer{zeros([]int{2, 3, 3, 8}, 1, 5), specials([]int{3, 3, 3, 8}, 4, 41)},
			grad(convAttrs(s22, d11, "same"), []int{2, 6, 6, 3})},
	})
}

// TestMalformedShapeCallsFailOnEveryTier: calls the reference kernel
// rejects — a Transpose with a repeated axis, a PadV2 with a negative
// padding, a Concat whose non-axis dims disagree (which read past an
// input), four backward window kernels handed a dy of [1,1,1,3] for a
// [1,4,4,3] input, reductions over axes out of range, a scalar's last axis
// or an empty index fold, a scalar Softmax, a matmul of mixed ranks, and
// windows with a zero or negative stride or dilation, an empty or negative
// pooling window (MaxPool once returned -Inf and AvgPool zeros for a 0×0
// one) or a valid window larger than the input, and element-wise calls of the wrong arity or of
// operands that do not broadcast — fail on cpu, node and every simulated
// device with the reference kernel's error, from the one check each op has
// (kernels.Resolve*, kernels.ElementwiseOp.Check). The devices' programs once ran the first three and
// died on the next four with an index out of range in a device worker; the
// reference's depthwise gradients panicked on them. A zero dilation once
// gave all 9s on cpu, a runtime error on node and a divide by zero in a
// webgl device worker. Each tier once worded the element-wise errors its
// own way, without the reference's "kernel" prefix.
func TestMalformedShapeCallsFailOnEveryTier(t *testing.T) {
	nb := native.New()
	t.Cleanup(nb.Close)
	naive := cpu.NewNaive()
	t.Cleanup(naive.Close)
	x := operand([]int{2, 3}, 0, 7, 1)
	img, dy := operand([]int{1, 4, 4, 3}, 0, 7, 1), operand([]int{1, 1, 1, 3}, 0, 7, 1)
	depthwiseInput := kernels.Attrs{Shape: []int{1, 4, 4, 3}, Pad: "same"}
	depthwiseFilter := kernels.Attrs{Shape: []int{3, 3, 3, 1}, Pad: "same"}
	for _, c := range []tierCase{
		{"repeatedAxis", "Transpose", []kernels.Buffer{x}, kernels.Attrs{Perm: []int{1, 1}}},
		{"negativePadding", "PadV2", []kernels.Buffer{x}, kernels.Attrs{Paddings: []int{0, 1, -1, 2}}},
		{"nonAxisDims", "Concat", []kernels.Buffer{x, operand([]int{3, 3}, 0, 7, 1)}, kernels.Attrs{Axis: 1}},
		{"dy", "MaxPoolGrad", []kernels.Buffer{dy, img}, kernels.Attrs{FilterSize: []int{2, 2}, Strides: []int{2, 2}}},
		{"dy", "AvgPoolGrad", []kernels.Buffer{dy}, kernels.Attrs{FilterSize: []int{2, 2}, Strides: []int{2, 2}, Shape: []int{1, 4, 4, 3}}},
		{"dy", "DepthwiseConv2dNativeBackpropInput", []kernels.Buffer{dy, operand([]int{3, 3, 3, 1}, 0, 7, 1)}, depthwiseInput},
		{"dy", "DepthwiseConv2dNativeBackpropFilter", []kernels.Buffer{img, dy}, depthwiseFilter},
		{"axisOutOfRange", "Sum", []kernels.Buffer{x}, kernels.Attrs{Axes: []int{0, 2}}},
		{"negativeAxisOutOfRange", "Mean", []kernels.Buffer{x}, kernels.Attrs{Axes: []int{-3}, KeepDims: true}},
		{"scalarHasNoLastAxis", "Max", []kernels.Buffer{operand(nil, 0, 7, 1)}, kernels.Attrs{Axes: []int{-1}}},
		{"emptyFold", "ArgMax", []kernels.Buffer{operand([]int{2, 0}, 0, 7, 1)}, kernels.Attrs{Axes: []int{1}}},
		{"scalar", "Softmax", []kernels.Buffer{operand(nil, 0, 7, 1)}, kernels.Attrs{}},
		{"mixedRanks", "BatchMatMul", []kernels.Buffer{x, operand([]int{1, 3, 4}, 0, 7, 1)}, kernels.Attrs{}},
		{"zeroStrides", "MaxPool", []kernels.Buffer{img}, kernels.Attrs{FilterSize: []int{2, 2}, Strides: []int{0, 0}, Pad: "valid"}},
		{"negativeStride", "AvgPool", []kernels.Buffer{img}, kernels.Attrs{FilterSize: []int{2, 2}, Strides: []int{-1, 1}, Pad: "same"}},
		{"emptyWindow", "MaxPool", []kernels.Buffer{img}, kernels.Attrs{FilterSize: []int{0, 0}, Strides: []int{2, 2}, Pad: "valid"}},
		{"emptyWindow", "AvgPool", []kernels.Buffer{img}, kernels.Attrs{FilterSize: []int{0, 0}, Strides: []int{2, 2}, Pad: "valid"}},
		{"negativeWindow", "MaxPool", []kernels.Buffer{img}, kernels.Attrs{FilterSize: []int{2, -1}, Strides: []int{1, 1}, Pad: "same"}},
		{"validWindowTooLarge", "MaxPool", []kernels.Buffer{operand([]int{1, 2, 2, 3}, 0, 7, 1)},
			kernels.Attrs{FilterSize: []int{4, 4}, Strides: []int{3, 3}, Pad: "valid"}},
		{"zeroDilations", "Conv2D", []kernels.Buffer{img, operand([]int{3, 3, 3, 2}, 0, 7, 1)}, convAttrs([]int{1, 1}, []int{0, 0}, "same")},
		{"negativeDilation", "DepthwiseConv2dNative", []kernels.Buffer{img, operand([]int{3, 3, 3, 1}, 0, 7, 1)}, convAttrs([]int{1, 1}, []int{1, -1}, "same")},
		{"validWindowTooLarge", "Conv2D", []kernels.Buffer{operand([]int{1, 2, 2, 3}, 0, 7, 1), operand([]int{4, 4, 3, 2}, 0, 7, 1)},
			convAttrs([]int{3, 3}, []int{1, 1}, "valid")},
		{"notBroadcastable", "Add", []kernels.Buffer{x, operand([]int{4}, 0, 7, 1)}, kernels.Attrs{}},
		{"threeInputs", "Mul", []kernels.Buffer{x, x, x}, kernels.Attrs{}},
		{"oneInput", "Sub", []kernels.Buffer{x}, kernels.Attrs{}},
		{"twoInputs", "Relu", []kernels.Buffer{x, x}, kernels.Attrs{}},
	} {
		ref, _ := kernels.LookupRef(c.kernel)
		_, want := ref(c.inputs, c.attrs)
		if want == nil {
			t.Fatalf("%s/%s: the reference kernel accepts it", c.kernel, c.label)
		}
		for _, b := range append([]tier{{"cpu", "fp32", naive}, {"node", "fp32", nb}}, deviceBackends(t)...) {
			ins := make([]kernels.Input, len(c.inputs))
			for i, in := range c.inputs {
				ins[i] = kernels.Input{DataID: tensor.NewDataID(), Shape: in.Shape, DType: in.DType}
				b.backend.Write(ins[i].DataID, in.Data, in.Shape, in.DType)
			}
			var out kernels.TensorInfo
			if err := kernels.Dispatch(b.backend, c.kernel, ins, c.attrs, &out); fmt.Sprint(err) != want.Error() {
				t.Errorf("%s/%s on %s: err = %v, want the reference kernel's %v", c.kernel, c.label, b.name, err, want)
				if err == nil {
					b.backend.DisposeData(out.DataID)
				}
			}
			for _, in := range ins {
				b.backend.DisposeData(in.DataID)
			}
		}
	}
}

// TestGatherV2IndexOutOfRangeOnEveryTier: GatherV2 is an entry of the
// range table whose indices only a host tier reads (Range.Check). A call
// with an index that names no slice — one out of range, or one that is not
// a whole number (2.7, -0.5, NaN) — fails with the reference kernel's error
// on cpu, naive cpu and node at 1 and 3 workers; webgl packed and unpacked
// at fp32 and fp16 and webgpu, which cannot read the indices without a
// readback, write 0 in the index's slice and the reference's bits
// elsewhere. Both hold on the call's first dispatch, which resolves it,
// and on every later one, which resolves nothing.
func TestGatherV2IndexOutOfRangeOnEveryTier(t *testing.T) {
	x := operand([]int{3, 5, 4}, 0, 7, 1)
	attrs := kernels.Attrs{Axis: 1}
	ref, _ := kernels.LookupRef("GatherV2")
	// Each case's indices name no slice at 1, 3 and 5.
	cases := []struct {
		name    string
		indices []float32
		wantErr string
	}{
		{"out of range", []float32{4, -1, 0, 5, 2, 5}, "kernel GatherV2: index -1 out of range [0, 5)"},
		{"not whole", []float32{4, 2.7, 0, -0.5, 2, float32(math.NaN())}, "kernel GatherV2: index 2.7 out of range [0, 5)"},
	}
	for _, c := range cases {
		indices := kernels.Buffer{Data: c.indices, Shape: []int{2, 3}, DType: tensor.Int32}
		if _, err := ref([]kernels.Buffer{x, indices}, attrs); fmt.Sprint(err) != c.wantErr {
			t.Fatalf("%s: the reference kernel's error is %q, want %q", c.name, fmt.Sprint(err), c.wantErr)
		}
	}
	// A device's output: the reference's on in-range indices, 0 in the
	// slices of the indices out of range.
	good := kernels.Buffer{Data: []float32{4, 0, 0, 0, 2, 0}, Shape: []int{2, 3}, DType: tensor.Int32}
	want, err := ref([]kernels.Buffer{x, good}, attrs)
	if err != nil {
		t.Fatal(err)
	}
	for o := range 3 {
		for _, i := range []int{1, 3, 5} {
			clear(want.Data[(o*6+i)*4:][:4])
		}
	}
	node1, node3 := native.New(), native.New()
	node1.SetWorkers(1)
	node3.SetWorkers(3)
	t.Cleanup(node1.Close)
	t.Cleanup(node3.Close)
	tiers := append([]tier{{"cpu", "fp64", cpu.New()}, {"cpu naive", "fp64", cpu.NewNaive()},
		{"node 1 worker", "fp32", node1}, {"node 3 workers", "fp32", node3}}, deviceBackends(t)...)
	for _, b := range tiers {
		// The call's resolves: node's memo misses, a device's compiles; the
		// cpu tier runs the reference kernel and has none to count.
		var resolves func() int64
		device := false
		switch r := b.backend.(type) {
		case interface{ Resolves() int64 }:
			resolves = r.Resolves
		case interface{ ProgramMisses() int64 }:
			resolves, device = r.ProgramMisses, true
		}
		for ci, c := range cases {
			indices := kernels.Buffer{Data: c.indices, Shape: []int{2, 3}, DType: tensor.Int32}
			for n, dispatch := range []string{"first", "second"} {
				where := fmt.Sprintf("%s, %s, %s dispatch", b.name, c.name, dispatch)
				var before int64
				if resolves != nil {
					before = resolves()
				}
				ins := make([]kernels.Input, 2)
				for i, in := range []kernels.Buffer{x, indices} {
					ins[i] = kernels.Input{DataID: tensor.NewDataID(), Shape: in.Shape, DType: in.DType}
					b.backend.Write(ins[i].DataID, in.Data, in.Shape, in.DType)
				}
				var out kernels.TensorInfo
				err := kernels.Dispatch(b.backend, "GatherV2", ins, attrs, &out)
				switch {
				case !device && fmt.Sprint(err) != c.wantErr:
					t.Errorf("%s: err = %v, want the reference kernel's %v", where, err, c.wantErr)
				case device && err != nil:
					t.Errorf("%s: %v", where, err)
				case device:
					got := slices.Clone(b.backend.ReadSync(out.DataID))
					for i, w := range want.Data {
						if math.Float32bits(got[i]) != math.Float32bits(w) {
							t.Errorf("%s: output %d is %g, want %g", where, i, got[i], w)
							break
						}
					}
				}
				if err == nil {
					b.backend.DisposeData(out.DataID)
				}
				for _, in := range ins {
					b.backend.DisposeData(in.DataID)
				}
				// Only the first dispatch of the call's signature resolves.
				wantResolves := int64(0)
				if ci == 0 && n == 0 {
					wantResolves = 1
				}
				if resolves != nil && resolves()-before != wantResolves {
					t.Errorf("%s: %d resolves, want %d", where, resolves()-before, wantResolves)
				}
			}
		}
	}
}

// TestGradientsAndBroadcastsOnEveryTier: every kernel of the range table —
// each fails the test without a case here — runs on node and on webgl fp32
// packed and unpacked and webgpu fp32 as each tier's own kernel, and is
// Float32bits-equal to the reference kernel: the
// backward window kernels at strides, dilation, overlapping windows (ties
// included) and a channel multiplier of 2, Select and a batch norm whose
// parameters are not x's channel vectors, every element-wise op on equal
// shapes and under a suffix and a non-suffix broadcast, Softmax over rows
// that packed texels straddle and rows of specials, and the forward
// kernels, the reductions, the training tail and the shape kernels on a
// case each. The
// operands' sums round, so the order of a value's contributions shows:
// webgl's input gradients once gathered them in the reverse of the
// reference's order, and had no dilation.
func TestGradientsAndBroadcastsOnEveryTier(t *testing.T) {
	nb := native.New()
	nb.SetWorkers(3)
	t.Cleanup(nb.Close)
	tiers := []tier{{"node", "fp32", nb}}
	for _, b := range deviceBackends(t) {
		if b.precision == "fp32" {
			tiers = append(tiers, b)
		}
	}
	seed := 0
	inexact := func(shape ...int) kernels.Buffer {
		seed++
		buf := kernels.NewBuffer(shape, tensor.Float32)
		for i := range buf.Data {
			buf.Data[i] = float32((i*37+seed*11)%91)/13 - 3
		}
		return buf
	}
	conv := func(kernel string, x, f, strides, dilations []int) tierCase {
		info, err := kernels.ComputeConv2DInfo(x, f, strides, dilations, "same", kernel[0] == 'D')
		if err != nil {
			t.Fatal(err)
		}
		attrs := convAttrs(strides, dilations, "same")
		label := fmt.Sprintf("%v%v s%v d%v", x, f, strides, dilations)
		if kernel[len(kernel)-5:] == "Input" {
			attrs.Shape = x
			return tierCase{label, kernel, []kernels.Buffer{inexact(info.OutShape()...), inexact(f...)}, attrs}
		}
		attrs.Shape = f
		return tierCase{label, kernel, []kernels.Buffer{inexact(x...), inexact(info.OutShape()...)}, attrs}
	}
	ties := inexact(1, 7, 5, 9)
	for i, v := range ties.Data {
		ties.Data[i] = float32(math.Round(float64(v)))
	}
	pool := kernels.Attrs{FilterSize: []int{3, 3}, Strides: []int{2, 2}, Pad: "same", Shape: []int{1, 7, 5, 9}}
	variance := inexact(5, 1)
	for i, v := range variance.Data {
		variance.Data[i] = v*v + 0.25
	}
	s11, s22, s21 := []int{1, 1}, []int{2, 2}, []int{2, 1}
	fused := func(act string) kernels.Attrs {
		a := convAttrs(s21, s11, "same")
		a.Activation = act
		return a
	}
	// cases holds every kernel of the range table: one without a case
	// fails the test.
	cases := map[string][]tierCase{
		"Conv2D":                     {{"s22 d22", "Conv2D", []kernels.Buffer{inexact(2, 6, 7, 3), inexact(3, 3, 3, 8)}, convAttrs(s22, s22, "same")}},
		"FusedConv2D":                {{"relu6", "FusedConv2D", []kernels.Buffer{inexact(1, 6, 7, 5), inexact(3, 2, 5, 9), inexact(9)}, fused("relu6")}},
		"DepthwiseConv2dNative":      {{"mult2", "DepthwiseConv2dNative", []kernels.Buffer{inexact(1, 7, 5, 3), inexact(3, 3, 3, 2)}, convAttrs(s22, s11, "valid")}},
		"FusedDepthwiseConv2dNative": {{"elu", "FusedDepthwiseConv2dNative", []kernels.Buffer{inexact(2, 5, 6, 4), inexact(3, 3, 4, 1), inexact(4)}, fused("elu")}},
		"MaxPool":                    {{"overlap", "MaxPool", []kernels.Buffer{ties}, pool}},
		"AvgPool":                    {{"overlap", "AvgPool", []kernels.Buffer{inexact(1, 7, 5, 9)}, pool}},
		"BatchMatMul": {{"bcast tb", "BatchMatMul", []kernels.Buffer{inexact(3, 4, 9), inexact(1, 5, 9)},
			kernels.Attrs{TransposeB: true}}},
		"_FusedMatMul": {{"ta relu", "_FusedMatMul", []kernels.Buffer{inexact(9, 4), inexact(9, 6), inexact(6)},
			kernels.Attrs{TransposeA: true, Activation: "relu"}}},
		"MaxPoolGrad": {{"overlap", "MaxPoolGrad", []kernels.Buffer{inexact(1, 4, 3, 9), ties}, pool}},
		"AvgPoolGrad": {{"overlap", "AvgPoolGrad", []kernels.Buffer{inexact(1, 4, 3, 9)}, pool}},
		"Sum":         {{"leadingRows", "Sum", []kernels.Buffer{inexact(37, 11)}, kernels.Attrs{Axes: []int{0}}}},
		"AdamMoments": {{"slot", "AdamMoments", []kernels.Buffer{variance2(inexact(2, 3, 7)), inexact(3, 7)},
			kernels.Attrs{Beta1: 0.9, Beta2: 0.999}}},
		"ApplyAdam": {{"slot", "ApplyAdam", []kernels.Buffer{inexact(3, 7), variance2(inexact(2, 3, 7)),
			{Data: []float32{float32(1 - 0.729), float32(1 - 0.997)}, Shape: []int{2}}},
			kernels.Attrs{LearningRate: 0.01, Epsilon: 1e-8}}},
		"Transpose": {{"blocks", "Transpose", []kernels.Buffer{inexact(2, 3, 4, 5)}, kernels.Attrs{Perm: []int{0, 3, 1, 2}}}},
		"Slice": {{"rows", "Slice", []kernels.Buffer{inexact(3, 4, 5)},
			kernels.Attrs{Begin: []int{1, 0, 2}, Shape: []int{2, -1, 2}}}},
		"Tile":  {{"rep", "Tile", []kernels.Buffer{inexact(2, 3)}, kernels.Attrs{Reps: []int{2, 3}}}},
		"PadV2": {{"rank3", "PadV2", []kernels.Buffer{inexact(2, 1, 3)}, kernels.Attrs{Paddings: []int{0, 1, 2, 0, 1, 1}, Value: 0.5}}},
		"OneHot": {{"labels", "OneHot", []kernels.Buffer{{Data: []float32{1, 4, -1, 0, 7, 2}, Shape: []int{6}, DType: tensor.Int32}},
			kernels.Attrs{Depth: 5, OnValue: 2.0, OffValue: -1.0}}},
		"Fill":   {{"int32", "Fill", nil, kernels.Attrs{Shape: []int{3, 4}, Value: 2.5, DType: tensor.Int32}}},
		"Concat": {{"axis1", "Concat", []kernels.Buffer{inexact(2, 3), inexact(2, 0), inexact(2, 2)}, kernels.Attrs{Axis: 1}}},
		"GatherV2": {{"axis1", "GatherV2", []kernels.Buffer{inexact(3, 5, 4), {Data: []float32{4, 0, 2, 2, 1, 3}, Shape: []int{2, 3}, DType: tensor.Int32}},
			kernels.Attrs{Axis: 1}}},
		"Select": {{"nonSuffix", "Select", []kernels.Buffer{inexact(5, 1), inexact(2, 5, 3), inexact(3)}, kernels.Attrs{}}},
		"FusedBatchNorm": {{"nonSuffix", "FusedBatchNorm", []kernels.Buffer{inexact(2, 3, 5, 3), inexact(5, 1), variance, inexact(1, 3), inexact()},
			kernels.Attrs{Epsilon: 1e-3}}},
		"Reverse": {{"outerAndLast", "Reverse", []kernels.Buffer{inexact(2, 3, 4)}, kernels.Attrs{Axes: []int{-1, 0}}}},
		"Cast":    {{"int32", "Cast", []kernels.Buffer{inexact(3, 7)}, kernels.Attrs{DType: tensor.Int32}}},
		"Range":   {{"down", "Range", nil, kernels.Attrs{Start: 5, Stop: -3, Step: -0.7}}},
		"CumSum": {{"middleReverse", "CumSum", []kernels.Buffer{inexact(3, 5, 4)}, kernels.Attrs{Axis: 1, Reverse: true}},
			{"lastExclusive", "CumSum", []kernels.Buffer{inexact(3, 9)}, kernels.Attrs{Axis: -1, Exclusive: true}}},
	}
	for _, kernel := range []string{"Conv2DBackpropInput", "Conv2DBackpropFilter"} {
		cases[kernel] = append(cases[kernel], conv(kernel, []int{2, 6, 6, 3}, []int{3, 3, 3, 8}, s22, s11), conv(kernel, []int{1, 7, 6, 5}, []int{3, 3, 5, 12}, s11, s22))
	}
	for _, kernel := range []string{"DepthwiseConv2dNativeBackpropInput", "DepthwiseConv2dNativeBackpropFilter"} {
		cases[kernel] = append(cases[kernel], conv(kernel, []int{1, 7, 5, 3}, []int{3, 3, 3, 2}, s22, s11), conv(kernel, []int{2, 6, 7, 4}, []int{3, 3, 4, 1}, s21, s22))
	}
	for _, kernel := range []string{"Sum", "Mean", "Max", "Min", "Prod", "ArgMax", "ArgMin", "Any", "All"} {
		cases[kernel] = append(append(cases[kernel], axisSubsets(kernel, inexact)...), tierCase{"rows", kernel, []kernels.Buffer{inexact(6, 13)}, kernels.Attrs{Axes: []int{-1}}},
			tierCase{"threeReducedRuns", kernel, []kernels.Buffer{inexact(2, 3, 2, 3, 2)}, kernels.Attrs{Axes: []int{0, 2, 4}}})
	}
	cases["BatchMatMul"] = append(cases["BatchMatMul"], rank2MatMuls(inexact)...)
	// Softmax: rows of one value, rows of 7 and of 13 — a packed texel
	// straddles two rows — rows of 5 holding ±Inf, NaN, ±1000 and
	// denormals, and an empty last axis.
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	specialRows := kernels.Buffer{Data: []float32{
		1000, -1000, 0, 1, -1,
		inf, 1, 2, 3, 4,
		-inf, 1, -inf, 2, 0,
		nan, 1, 2, 3, 4,
		1e-45, -1e-45, 1e-39, -1e-39, 0,
		-inf, -inf, -inf, -inf, -inf,
		1000, 1000, 999, -1e-39, 1e-45,
	}, Shape: []int{7, 5}, DType: tensor.Float32}
	cases["Softmax"] = []tierCase{
		{"one", "Softmax", []kernels.Buffer{inexact(6, 1)}, kernels.Attrs{}},
		{"odd", "Softmax", []kernels.Buffer{inexact(5, 7)}, kernels.Attrs{}},
		{"rank3", "Softmax", []kernels.Buffer{inexact(2, 3, 13)}, kernels.Attrs{}},
		{"specials", "Softmax", []kernels.Buffer{specialRows}, kernels.Attrs{}},
		{"empty", "Softmax", []kernels.Buffer{inexact(3, 0)}, kernels.Attrs{}},
	}
	// Every op of the element-wise table: a two-operand op on equal shapes,
	// a suffix row first and a non-suffix broadcast, a one-operand op on a
	// vector with a tail under the attributes of paramAttrs.
	for _, op := range kernels.ElementwiseOps() {
		if op.Binary == nil {
			cases[op.Name] = []tierCase{{"values", op.Name, []kernels.Buffer{inexact(3, 7)}, paramAttrs[op.Name]}}
			continue
		}
		cases[op.Name] = []tierCase{
			{"equal", op.Name, []kernels.Buffer{inexact(4, 9), inexact(4, 9)}, kernels.Attrs{}},
			{"suffixFirst", op.Name, []kernels.Buffer{inexact(9), inexact(4, 9)}, kernels.Attrs{}},
			{"nonSuffix", op.Name, []kernels.Buffer{inexact(4, 1), inexact(1, 9)}, kernels.Attrs{}},
		}
	}
	for _, k := range kernels.RangeKernels() {
		if len(cases[k.Name]) == 0 {
			t.Errorf("%s: a range kernel with no case", k.Name)
		}
		for _, c := range cases[k.Name] {
			ref, _ := kernels.LookupRef(c.kernel)
			want, err := ref(c.inputs, c.attrs)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.kernel, c.label, err)
			}
			for _, b := range tiers {
				got := runOwnKernel(t, b.backend, c.kernel, c.inputs, c.attrs)
				for i, w := range want.Data {
					if math.Float32bits(got[i]) != math.Float32bits(w) {
						t.Errorf("%s/%s on %s: output %d is %g (%#08x), the reference tier has %g (%#08x)",
							c.kernel, c.label, b.name, i, got[i], math.Float32bits(got[i]), w, math.Float32bits(w))
						break
					}
				}
			}
		}
	}
}

// axisSubsets are a reduction over every non-empty axis subset of a rank-4
// input of values from gen, the odd axes counted from the end, its dims
// kept as 1s or dropped; the second input has a zero-size dim, so a fold
// is empty or there is no output at all (an index reduction rejects an
// empty fold, and has no such case).
func axisSubsets(kernel string, gen func(shape ...int) kernels.Buffer) []tierCase {
	var cases []tierCase
	for _, shape := range [][]int{{2, 3, 4, 5}, {3, 0, 2, 4}} {
		x := gen(shape...)
		for set := 1; set < 16; set++ {
			var axes []int
			inner := 1
			for a := 0; a < 4; a++ {
				if set>>a&1 != 0 {
					axes, inner = append(axes, a-4*(a%2)), inner*shape[a]
				}
			}
			for _, keep := range []bool{false, true} {
				if inner > 0 || kernel[:3] != "Arg" {
					cases = append(cases, tierCase{fmt.Sprintf("%v%v keep=%v", shape, axes, keep), kernel, []kernels.Buffer{x},
						kernels.Attrs{Axes: axes, KeepDims: keep}})
				}
			}
		}
	}
	return cases
}

// rank2MatMuls are BatchMatMul of two matrices of values from gen, under
// each of the four transposes.
func rank2MatMuls(gen func(shape ...int) kernels.Buffer) []tierCase {
	var cases []tierCase
	for _, tr := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		a, b := []int{5, 9}, []int{9, 6}
		if tr[0] {
			a = []int{9, 5}
		}
		if tr[1] {
			b = []int{6, 9}
		}
		cases = append(cases, tierCase{fmt.Sprintf("rank2 ta=%v tb=%v", tr[0], tr[1]), "BatchMatMul",
			[]kernels.Buffer{gen(a...), gen(b...)}, kernels.Attrs{TransposeA: tr[0], TransposeB: tr[1]}})
	}
	return cases
}

// variance2 is a moments slot [2, ...]: its second half, the second
// moments, made non-negative.
func variance2(mv kernels.Buffer) kernels.Buffer {
	for i := len(mv.Data) / 2; i < len(mv.Data); i++ {
		mv.Data[i] = float32(math.Abs(float64(mv.Data[i])))
	}
	return mv
}

// runOwnKernel runs b's own kernel for name and reads the output back.
func runOwnKernel(t *testing.T, b kernels.Backend, name string, inputs []kernels.Buffer, attrs kernels.Attrs) []float32 {
	t.Helper()
	k, ok := b.Kernel(name)
	if !ok {
		t.Fatalf("%s has no %s kernel", b.Name(), name)
	}
	ins := make([]kernels.Input, len(inputs))
	for i, in := range inputs {
		ins[i] = kernels.Input{DataID: tensor.NewDataID(), Shape: in.Shape, DType: in.DType}
		b.Write(ins[i].DataID, in.Data, in.Shape, in.DType)
		defer b.DisposeData(ins[i].DataID)
	}
	var out kernels.TensorInfo
	if err := k(ins, attrs, &out); err != nil {
		t.Fatalf("%s on %s: %v", name, b.Name(), err)
	}
	defer b.DisposeData(out.DataID)
	return slices.Clone(b.ReadSync(out.DataID))
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
	attrs := kernels.Attrs{Epsilon: 1e-3}
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
		}{{"Relu", kernels.Attrs{}}, {"Relu6", kernels.Attrs{}}, {"Step", kernels.Attrs{Alpha: 0.5}}} {
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

// elementwiseValues are the values every op of the element-wise table runs
// on: ±0, ±Inf, NaN, the smallest and largest denormals and the largest
// finite value of either sign, and ordinary values either side of 0, ±1 and
// 6.
var elementwiseValues = []float32{
	0, negZero, inf, -inf, nan,
	math.Float32frombits(0x00000001), math.Float32frombits(0x80000001),
	math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
	math.MaxFloat32, -math.MaxFloat32,
	1, -1, 0.5, -2.5, 6, 7.25, 3,
}

// paramAttrs are the attributes the attribute-taking ops of the table run
// with; an op that takes attributes and has none here fails the test.
var paramAttrs = map[string]kernels.Attrs{
	"ClipByValue": {ClipMin: -0.5, ClipMax: 0.25},
	"LeakyRelu":   {Alpha: 0.1},
	"Step":        {Alpha: 0.5},
}

// hostAndDeviceTiers are the tiers the element-wise table is pinned on:
// the plain cpu backend, node at three workers and webgl fp32, packed and
// unpacked, at three device workers.
func hostAndDeviceTiers(t *testing.T) []tier {
	nb := native.New()
	nb.SetWorkers(3)
	t.Cleanup(nb.Close)
	naive := cpu.NewNaive()
	t.Cleanup(naive.Close)
	tiers := []tier{{"cpu", "fp32", naive}, {"node", "fp32", nb}}
	for _, packed := range []bool{true, false} {
		cfg := webgl.DefaultConfig()
		cfg.Packed, cfg.Device.Workers = packed, 3
		b := webgl.New(cfg)
		t.Cleanup(b.Close)
		tiers = append(tiers, tier{fmt.Sprintf("webgl fp32 packed=%v", packed), "fp32", b})
	}
	return tiers
}

// TestElementwiseTableOnEveryTier runs every op of the element-wise table
// on every host tier and on webgl fp32: a one-operand op on each special
// value, a two-operand op on every pair of them, as equal shapes and as
// suffix and non-suffix broadcasts. Every output is Float32bits-equal to
// the reference kernel's, an inverted ClipByValue is the reference's error
// on every tier, and native and webgl each register the whole table.
func TestElementwiseTableOnEveryTier(t *testing.T) {
	tiers := hostAndDeviceTiers(t)
	n := len(elementwiseValues)
	vals := func(shape ...int) kernels.Buffer {
		buf := kernels.NewBuffer(shape, tensor.Float32)
		for i := range buf.Data {
			buf.Data[i] = elementwiseValues[i%n]
		}
		return buf
	}
	// rows is [n, n] with row i all elementwiseValues[i]: against vals(n, n)
	// it pairs every value with every other.
	rows := kernels.NewBuffer([]int{n, n}, tensor.Float32)
	for i := range rows.Data {
		rows.Data[i] = elementwiseValues[i/n]
	}
	binaryCases := []struct {
		label  string
		inputs []kernels.Buffer
	}{
		{"pairs", []kernels.Buffer{rows, vals(n, n)}},
		{"suffix", []kernels.Buffer{rows, vals(n)}},
		{"suffixFirst", []kernels.Buffer{vals(n), rows}},
		{"scalar", []kernels.Buffer{vals(n, n), vals()}},
		{"nonSuffix", []kernels.Buffer{vals(n, 1), vals(1, n)}},
		{"column", []kernels.Buffer{rows, vals(n, 1)}},
	}
	for _, op := range kernels.ElementwiseOps() {
		ref, ok := kernels.LookupRef(op.Name)
		if !ok {
			t.Fatalf("%s: no reference kernel", op.Name)
		}
		type elementwiseCase struct {
			label  string
			inputs []kernels.Buffer
			attrs  kernels.Attrs
		}
		var cases []elementwiseCase
		if op.Binary != nil {
			for _, c := range binaryCases {
				cases = append(cases, elementwiseCase{c.label, c.inputs, kernels.Attrs{}})
			}
		} else {
			attrs, ok := paramAttrs[op.Name]
			if op.Param != nil && !ok {
				t.Fatalf("%s takes attributes: give it some in paramAttrs", op.Name)
			}
			// Three copies, so every lane of a vector row and of its tail
			// sees every value.
			cases = append(cases, elementwiseCase{"values", []kernels.Buffer{vals(3 * n)}, attrs})
		}
		for _, c := range cases {
			want, err := ref(c.inputs, c.attrs)
			if err != nil {
				t.Fatalf("%s/%s on the reference tier: %v", op.Name, c.label, err)
			}
			for _, b := range tiers {
				got := dispatch(t, b.backend, op.Name, c.inputs, c.attrs)
				for i, w := range want.Data {
					if math.Float32bits(got[i]) != math.Float32bits(w) {
						t.Errorf("%s/%s on %s: output %d (inputs %v) is %g (%#08x), the reference tier has %g (%#08x)",
							op.Name, c.label, b.name, i, operandsAt(c.inputs, want.Shape, i), got[i], math.Float32bits(got[i]), w, math.Float32bits(w))
						break
					}
				}
			}
		}
	}

	// Inverted bounds: the reference kernel's error, word for word.
	clip := kernels.Attrs{ClipMin: 2.0, ClipMax: 1.0}
	in := []kernels.Buffer{vals(3)}
	ref, _ := kernels.LookupRef("ClipByValue")
	_, wantErr := ref(in, clip)
	if wantErr == nil {
		t.Fatal("ClipByValue with min > max: the reference tier returned no error")
	}
	for _, b := range tiers {
		id := tensor.NewDataID()
		b.backend.Write(id, in[0].Data, in[0].Shape, in[0].DType)
		var out kernels.TensorInfo
		err := kernels.Dispatch(b.backend, "ClipByValue", []kernels.Input{{DataID: id, Shape: in[0].Shape, DType: in[0].DType}}, clip, &out)
		b.backend.DisposeData(id)
		if err == nil {
			b.backend.DisposeData(out.DataID)
			t.Errorf("ClipByValue with min > max on %s: no error, the reference tier has %q", b.name, wantErr)
		} else if err.Error() != wantErr.Error() {
			t.Errorf("ClipByValue with min > max on %s: %q, the reference tier has %q", b.name, err, wantErr)
		}
	}

	// Every entry is a kernel of native and of webgl.
	for _, b := range tiers[1:] {
		var missing []string
		for _, op := range kernels.ElementwiseOps() {
			if _, ok := b.backend.Kernel(op.Name); !ok {
				missing = append(missing, op.Name)
			}
		}
		if len(missing) > 0 {
			t.Errorf("%s registers no kernel for %v of the element-wise table", b.name, missing)
		}
	}
}

// operandsAt returns the operand values output i of a broadcasting
// element-wise kernel read.
func operandsAt(inputs []kernels.Buffer, outShape []int, i int) []float32 {
	var at []float32
	for _, in := range inputs {
		idx, stride := 0, 1
		rest := i
		for d := len(outShape) - 1; d >= 0; d-- {
			coord := rest % outShape[d]
			rest /= outShape[d]
			if k := d - (len(outShape) - len(in.Shape)); k >= 0 {
				if in.Shape[k] != 1 {
					idx += coord * stride
				}
				stride *= in.Shape[k]
			}
		}
		at = append(at, in.Data[idx])
	}
	return at
}

// TestKernelsTakeTheOpsShapeOnEveryTier: the kernels that take the op's own
// shape — the reductions over any axes, Softmax over the last axis of any
// rank, BatchMatMul of two matrices — run on cpu, node and webgl fp32
// packed and unpacked. The operands are small integers and halves, so the
// cpu tier's float64 sums are exact too: every reduction and product is
// Float32bits-equal to the reference kernel, a reduction of seven
// alternating runs too. Softmax keeps its own
// body on cpu (a float64 divide): on every tier the rank-N call is
// Float32bits-equal to the same tier's [outer, inner] call, and node's and
// webgl's, packed and unpacked, to the reference — Softmax's tolerance row
// is 0 ulp; an empty last axis is an empty output.
func TestKernelsTakeTheOpsShapeOnEveryTier(t *testing.T) {
	tiers := hostAndDeviceTiers(t)
	// operand's values, none of them special: a stride past the end plants
	// nothing.
	exact := func(shape ...int) kernels.Buffer { return operand(shape, 1<<30, 1, 0) }
	same := func(where string, got, want []float32) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d values, want %d", where, len(got), len(want))
			return
		}
		for i, w := range want {
			if math.Float32bits(got[i]) != math.Float32bits(w) {
				t.Errorf("%s: output %d is %g (%#08x), want %g (%#08x)", where, i, got[i], math.Float32bits(got[i]), w, math.Float32bits(w))
				return
			}
		}
	}
	var cases []tierCase
	for _, kernel := range []string{"Sum", "Mean", "Max", "Min", "Prod", "ArgMax", "ArgMin"} {
		cases = append(append(cases, axisSubsets(kernel, exact)...),
			tierCase{"sevenRuns", kernel, []kernels.Buffer{exact(2, 2, 2, 2, 2, 2, 2)}, kernels.Attrs{Axes: []int{0, 2, 4, 6}}})
	}
	cases = append(cases, rank2MatMuls(exact)...)
	for _, c := range cases {
		ref, _ := kernels.LookupRef(c.kernel)
		want, err := ref(c.inputs, c.attrs)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.kernel, c.label, err)
		}
		for _, b := range tiers {
			same(fmt.Sprintf("%s/%s on %s", c.kernel, c.label, b.name), dispatch(t, b.backend, c.kernel, c.inputs, c.attrs), want.Data)
		}
	}
	for _, shape := range [][]int{{7}, {3, 7}, {2, 3, 7}, {2, 1, 3, 7}, {2, 0}, {2, 3, 0}} {
		x := exact(shape...)
		inner := shape[len(shape)-1]
		rows := kernels.Buffer{Data: x.Data, Shape: []int{len(x.Data) / max(inner, 1), inner}, DType: x.DType}
		ref, _ := kernels.LookupRef("Softmax")
		want, err := ref([]kernels.Buffer{x}, kernels.Attrs{})
		if err != nil {
			t.Fatalf("Softmax%v: %v", shape, err)
		}
		for _, b := range tiers {
			where := fmt.Sprintf("Softmax%v on %s", shape, b.name)
			got := dispatch(t, b.backend, "Softmax", []kernels.Buffer{x}, kernels.Attrs{})
			same(where+" against its [outer, inner] call", got, dispatch(t, b.backend, "Softmax", []kernels.Buffer{rows}, kernels.Attrs{}))
			if b.name != "cpu" {
				same(where, got, want.Data)
			}
		}
	}
}
