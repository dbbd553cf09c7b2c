package native

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// Differential tests for the backward kernels (grad.go) and the other
// training-path kernels that claim bit-identity with internal/kernels:
// the native kernel and the reference kernel run on the same operands and
// the outputs are compared by bit pattern, under requireSameFloats' one
// allowance (two NaNs are equal whatever their payloads).

// operand is one kernel input: values and shape.
type operand struct {
	vals  []float32
	shape []int
}

// checkAgainstReference runs kernel `name` on the reference tier and on
// nb and requires equal shapes and bit-equal values — or an error from
// both, with nothing left registered on nb.
func checkAgainstReference(t testing.TB, nb *Backend, label, name string, attrs kernels.Attrs, ops ...operand) {
	t.Helper()
	ref, ok := kernels.LookupRef(name)
	if !ok {
		t.Fatalf("%s: no reference kernel", name)
	}
	bufs := make([]kernels.Buffer, len(ops))
	inputs := make([]kernels.Input, len(ops))
	for i, o := range ops {
		bufs[i] = kernels.Buffer{Data: o.vals, Shape: o.shape, DType: tensor.Float32}
		inputs[i] = benchInput(nb, append([]float32(nil), o.vals...), o.shape...)
	}
	defer func() {
		for _, in := range inputs {
			nb.DisposeData(in.DataID)
		}
	}()
	live := nb.Memory().NumBuffers
	want, wantErr := ref(bufs, attrs)
	var got kernels.TensorInfo
	if _, ok := nb.KernelOverride(name); !ok {
		t.Fatalf("%s: no native kernel", name)
	}
	// Through the dispatcher: a shape the native kernel declines comes back
	// from the reference leg, as it does for the engine and the plan.
	gotErr := kernels.Dispatch(nb, name, inputs, attrs, &got)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("%s: reference error %v, native error %v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		if n := nb.Memory().NumBuffers; n != live {
			t.Fatalf("%s: failed kernel left %d buffers registered", label, n-live)
		}
		return
	}
	defer nb.DisposeData(got.DataID)
	if !tensor.ShapesEqual(got.Shape, want.Shape) {
		t.Fatalf("%s: shape %v, reference %v", label, got.Shape, want.Shape)
	}
	if got.DType != want.DType {
		t.Fatalf("%s: dtype %v, reference %v", label, got.DType, want.DType)
	}
	requireSameFloats(t, label, nb.Raw(got.DataID), want.Data)
}

// gradGeometry is one forward convolution or pool whose backward kernels
// are under test.
type gradGeometry struct {
	batch, h, w, inC, outC int
	fh, fw                 int
	stride, dilation       int
	pad                    string
}

func (g gradGeometry) String() string {
	return fmt.Sprintf("%dx%dx%dx%d_f%dx%d_o%d_s%d_d%d_%s", g.batch, g.h, g.w, g.inC, g.fh, g.fw, g.outC, g.stride, g.dilation, g.pad)
}

func (g gradGeometry) convAttrs() kernels.Attrs {
	return kernels.Attrs{"strides": []int{g.stride, g.stride}, "dilations": []int{g.dilation, g.dilation}, "pad": g.pad}
}

// fill is an operand generator: n values from a seed.
type fill struct {
	name string
	gen  func(n int, seed uint32) []float32
}

var gradFills = []fill{
	{"dense", func(n int, seed uint32) []float32 {
		return benchVals(rand.New(rand.NewSource(int64(seed))), n, 0)
	}},
	// Post-ReLU activations and the gradients that flow back through a
	// ReLU and a max pool are mostly zeros: the skip paths.
	{"sparse", func(n int, seed uint32) []float32 {
		return benchVals(rand.New(rand.NewSource(int64(seed))), n, 0.7)
	}},
	{"specials", vecOperand},
}

// checkConvGrads runs both Conv2D backward kernels on g.
func checkConvGrads(t testing.TB, nb *Backend, g gradGeometry, f fill) {
	t.Helper()
	xShape := []int{g.batch, g.h, g.w, g.inC}
	wShape := []int{g.fh, g.fw, g.inC, g.outC}
	info, err := kernels.ComputeConv2DInfo(xShape, wShape, []int{g.stride, g.stride}, []int{g.dilation, g.dilation}, g.pad, false)
	if err != nil {
		return // the filter does not fit: nothing to differentiate
	}
	x := operand{f.gen(tensor.ShapeSize(xShape), 1), xShape}
	w := operand{f.gen(tensor.ShapeSize(wShape), 2), wShape}
	dy := operand{f.gen(tensor.ShapeSize(info.OutShape()), 3), info.OutShape()}

	attrs := g.convAttrs()
	attrs["filterShape"] = wShape
	checkAgainstReference(t, nb, "Conv2DBackpropFilter/"+g.String()+"/"+f.name, "Conv2DBackpropFilter", attrs, x, dy)
	attrs = g.convAttrs()
	attrs["inputShape"] = xShape
	checkAgainstReference(t, nb, "Conv2DBackpropInput/"+g.String()+"/"+f.name, "Conv2DBackpropInput", attrs, dy, w)
}

// checkMaxPoolGrad runs MaxPoolGrad on g (inC channels, fh×fw window).
func checkMaxPoolGrad(t testing.TB, nb *Backend, g gradGeometry, f fill) {
	t.Helper()
	xShape := []int{g.batch, g.h, g.w, g.inC}
	info, err := kernels.ComputePool2DInfo(xShape, []int{g.fh, g.fw}, []int{g.stride, g.stride}, g.pad)
	if err != nil {
		return
	}
	x := operand{f.gen(tensor.ShapeSize(xShape), 4), xShape}
	dy := operand{f.gen(tensor.ShapeSize(info.OutShape()), 5), info.OutShape()}
	attrs := kernels.Attrs{"filterSize": []int{g.fh, g.fw}, "strides": []int{g.stride, g.stride}, "pad": g.pad}
	checkAgainstReference(t, nb, "MaxPoolGrad/"+g.String()+"/"+f.name, "MaxPoolGrad", attrs, dy, x)
}

// gradMatrix is the shapes the bit-identity claim is tested on: every pad
// × stride × dilation on non-square images, over channel counts on both
// sides of the 8-lane vector width, plus pools whose windows overlap.
func gradMatrix() (convs, pools []gradGeometry) {
	channels := [][2]int{{1, 8}, {3, 9}, {8, 16}, {9, 17}, {16, 1}, {17, 3}}
	for _, pad := range []string{"same", "valid"} {
		for _, stride := range []int{1, 2} {
			for _, dilation := range []int{1, 2} {
				for i, c := range channels {
					g := gradGeometry{batch: 2, h: 7, w: 10, inC: c[0], outC: c[1], fh: 3, fw: 3, stride: stride, dilation: dilation, pad: pad}
					if i%2 == 1 {
						g.h, g.w, g.fh, g.fw = 9, 6, 2, 3
					}
					convs = append(convs, g)
				}
			}
		}
		for _, p := range [][3]int{{2, 2, 2}, {2, 2, 1}, {3, 3, 2}, {3, 3, 1}, {3, 2, 3}} {
			for _, c := range []int{1, 3, 8} {
				pools = append(pools, gradGeometry{batch: 2, h: 7, w: 10, inC: c, fh: p[0], fw: p[1], stride: p[2], pad: pad})
			}
		}
	}
	// Zero batch, a 1×1 filter, and shapes large enough that parallelFor
	// really cuts them into several chunks (the small ones above are one
	// chunk whatever the worker count): the bench convnet's two layers.
	convs = append(convs,
		gradGeometry{batch: 0, h: 5, w: 5, inC: 3, outC: 4, fh: 3, fw: 3, stride: 1, dilation: 1, pad: "same"},
		gradGeometry{batch: 2, h: 5, w: 4, inC: 5, outC: 6, fh: 1, fw: 1, stride: 1, dilation: 1, pad: "valid"},
		gradGeometry{batch: 8, h: 16, w: 16, inC: 1, outC: 8, fh: 3, fw: 3, stride: 1, dilation: 1, pad: "same"},
		gradGeometry{batch: 8, h: 8, w: 8, inC: 8, outC: 16, fh: 3, fw: 3, stride: 1, dilation: 1, pad: "same"},
	)
	pools = append(pools,
		gradGeometry{batch: 0, h: 4, w: 4, inC: 2, fh: 2, fw: 2, stride: 2, pad: "valid"},
		gradGeometry{batch: 16, h: 24, w: 24, inC: 8, fh: 2, fw: 2, stride: 2, pad: "valid"},
		gradGeometry{batch: 16, h: 24, w: 24, inC: 8, fh: 3, fw: 3, stride: 2, pad: "same"},
	)
	return convs, pools
}

func checkGradMatrix(t *testing.T, nb *Backend) {
	t.Helper()
	convs, pools := gradMatrix()
	for _, f := range gradFills {
		for _, g := range convs {
			checkConvGrads(t, nb, g, f)
		}
		for _, g := range pools {
			checkMaxPoolGrad(t, nb, g, f)
		}
	}
}

func TestGradKernelsBitIdenticalToReference(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			nb := New()
			nb.SetWorkers(workers)
			checkGradMatrix(t, nb)
		})
	}
	t.Run("scalar", func(t *testing.T) {
		restore, _ := vec.ForceScalar()
		defer restore()
		nb := New()
		nb.SetWorkers(4)
		checkGradMatrix(t, nb)
	})
}

// TestGradKernelErrorParity: what the reference rejects the native kernel
// rejects, and a rejected call registers no output.
func TestGradKernelErrorParity(t *testing.T) {
	nb := benchBackend()
	x := operand{make([]float32, 2*5*5*3), []int{2, 5, 5, 3}}
	w := operand{make([]float32, 3*3*3*4), []int{3, 3, 3, 4}}
	dy := operand{make([]float32, 2*5*5*4), []int{2, 5, 5, 4}}
	badDy := operand{make([]float32, 2*5*4*4), []int{2, 5, 4, 4}}
	pooled := operand{make([]float32, 2*2*2*3), []int{2, 2, 2, 3}}
	same := func(extra kernels.Attrs) kernels.Attrs {
		attrs := kernels.Attrs{"pad": "same"}
		for k, v := range extra {
			attrs[k] = v
		}
		return attrs
	}
	filter := same(kernels.Attrs{"filterShape": w.shape})
	input := same(kernels.Attrs{"inputShape": x.shape})
	for _, c := range []struct {
		label, kernel string
		attrs         kernels.Attrs
		ops           []operand
	}{
		{"filter/ok", "Conv2DBackpropFilter", filter, []operand{x, dy}},
		{"filter/dy shape", "Conv2DBackpropFilter", filter, []operand{x, badDy}},
		{"filter/one input", "Conv2DBackpropFilter", filter, []operand{x}},
		{"filter/three inputs", "Conv2DBackpropFilter", filter, []operand{x, dy, dy}},
		{"filter/no filterShape", "Conv2DBackpropFilter", same(nil), []operand{x, dy}},
		{"filter/channel mismatch", "Conv2DBackpropFilter", same(kernels.Attrs{"filterShape": []int{3, 3, 2, 4}}), []operand{x, dy}},
		{"input/ok", "Conv2DBackpropInput", input, []operand{dy, w}},
		{"input/dy shape", "Conv2DBackpropInput", input, []operand{badDy, w}},
		{"input/one input", "Conv2DBackpropInput", input, []operand{dy}},
		{"input/no inputShape", "Conv2DBackpropInput", same(nil), []operand{dy, w}},
		{"input/bad pad", "Conv2DBackpropInput", kernels.Attrs{"pad": "full", "inputShape": x.shape}, []operand{dy, w}},
		{"pool/ok", "MaxPoolGrad", kernels.Attrs{}, []operand{pooled, x}},
		{"pool/dy shape", "MaxPoolGrad", kernels.Attrs{}, []operand{dy, x}},
		{"pool/one input", "MaxPoolGrad", kernels.Attrs{}, []operand{x}},
		{"pool/rank", "MaxPoolGrad", kernels.Attrs{}, []operand{pooled, {make([]float32, 6), []int{2, 3}}}},
	} {
		checkAgainstReference(t, nb, c.label, c.kernel, c.attrs, c.ops...)
	}
}

// FuzzGradKernels derives a geometry from the selector bytes and fills
// the operands by cycling through data read as float32 bit patterns, so
// the fuzzer reaches every NaN payload, denormal and sign as well as
// every clipping pattern.
func FuzzGradKernels(f *testing.F) {
	var specials []byte
	for _, v := range vecSpecials {
		specials = binary.LittleEndian.AppendUint32(specials, math.Float32bits(v))
	}
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), specials)
	f.Add(uint8(0x35), uint8(0x21), uint8(0x12), uint8(1), specials)
	f.Add(uint8(0xff), uint8(0x47), uint8(0x99), uint8(2), specials[:12])
	f.Add(uint8(0x6a), uint8(0x13), uint8(0x08), uint8(3), []byte{0, 0, 128, 63, 0, 0, 0, 0, 0, 0, 0, 192})
	f.Add(uint8(0x11), uint8(0x70), uint8(0x30), uint8(7), []byte{})
	nb := New()
	nb.SetWorkers(3)
	f.Fuzz(func(t *testing.T, size, chans, filt, mode uint8, data []byte) {
		vals := make([]float32, max(1, len(data)/4))
		for i := range vals[:len(data)/4] {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		cycle := fill{"fuzz", func(n int, seed uint32) []float32 {
			out := make([]float32, n)
			for i := range out {
				out[i] = vals[(i+int(seed))%len(vals)]
			}
			return out
		}}
		g := gradGeometry{
			batch: int(mode>>4) % 3, h: 1 + int(size&0xf)%11, w: 1 + int(size>>4)%11,
			inC: 1 + int(chans&0xf)%10, outC: 1 + int(chans>>4)%10,
			fh: 1 + int(filt&0x3), fw: 1 + int(filt>>2&0x3),
			stride: 1 + int(filt>>4&0x3)%3, dilation: 1 + int(filt>>6),
			pad: []string{"same", "valid"}[mode&1],
		}
		if mode&2 == 0 {
			checkConvGrads(t, nb, g, cycle)
		} else {
			checkMaxPoolGrad(t, nb, g, cycle)
		}
	})
}
