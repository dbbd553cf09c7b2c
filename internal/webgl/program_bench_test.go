package webgl

import (
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// BenchmarkProgram runs the programs that are the Table 1 network, and a
// training step's backward window programs, one
// dispatch per iteration straight through the override table (no engine,
// no tidy), on a packed and an unpacked one-worker device. ns/op and
// allocs/op are the simulator's host cost; gpu-ms/op and fetches/op are
// what the modelled device is charged, and do not move when a body is
// rewritten — so the host/model split of any change is one
// `go test -run '^$' -bench Program ./internal/webgl` away. Operands are
// seeded normal values × 4: they change sign and cross 6 at random, as
// activations do, so a body that branches on its data pays for it here (a
// ReLU6 over operands all inside (0, 6) is perfectly predicted and read 1.2×
// for a change worth 2× in a real predict). A variance is 0.5 + |value|.
func BenchmarkProgram(b *testing.B) {
	programs := []struct {
		name   string
		kernel string
		shapes [][]int
		attrs  kernels.Attrs
	}{
		{"Conv1x1_48x48x8→16", "Conv2D", [][]int{{1, 48, 48, 8}, {1, 1, 8, 16}}, convAttrs([]int{1, 1}, []int{1, 1}, "same")},
		{"Conv3x3Stem_96→48x8", "Conv2D", [][]int{{1, 96, 96, 3}, {3, 3, 3, 8}}, convAttrs([]int{2, 2}, []int{1, 1}, "same")},
		{"Conv1x1_6x6x128→128", "Conv2D", [][]int{{1, 6, 6, 128}, {1, 1, 128, 128}}, convAttrs([]int{1, 1}, []int{1, 1}, "same")},
		{"Depthwise3x3_24x24x32", "DepthwiseConv2dNative", [][]int{{1, 24, 24, 32}, {3, 3, 32, 1}}, convAttrs([]int{1, 1}, []int{1, 1}, "same")},
		{"Depthwise3x3s2_24x24x32→12x12", "DepthwiseConv2dNative", [][]int{{1, 24, 24, 32}, {3, 3, 32, 1}}, convAttrs([]int{2, 2}, []int{1, 1}, "same")},
		{"BatchNorm_24x24x32", "FusedBatchNorm", [][]int{{1, 24, 24, 32}, {32}, {32}, {32}, {32}}, kernels.Attrs{Epsilon: 1e-3}},
		{"Relu6_24x24x32", "Relu6", [][]int{{1, 24, 24, 32}}, kernels.Attrs{}},
		{"Dense_256→1000", "BatchMatMul", [][]int{{1, 1, 256}, {1, 256, 1000}}, kernels.Attrs{TransposeA: false, TransposeB: false}},
		{"DenseGradTB_32x10→256", "BatchMatMul", [][]int{{1, 32, 10}, {1, 256, 10}}, kernels.Attrs{TransposeA: false, TransposeB: true}},
		{"TransposeGlobalPool_3x3x256", "Transpose", [][]int{{1, 3, 3, 256}}, kernels.Attrs{Perm: []int{0, 3, 1, 2}}},
		{"MeanGlobalPool_256x9", "Mean", [][]int{{256, 9}}, kernels.Attrs{Axes: []int{-1}}},
		{"Concat_2x24x24x32", "Concat", [][]int{{1, 24, 24, 32}, {1, 24, 24, 32}}, kernels.Attrs{Axis: 3}},
		{"ConvBackpropInput_8x8x8x16→8", "Conv2DBackpropInput", [][]int{{8, 8, 8, 16}, {3, 3, 8, 16}}, kernels.Attrs{Pad: "same", Shape: []int{8, 8, 8, 8}}},
		{"MaxPoolGrad_8x16x16x8", "MaxPoolGrad", [][]int{{8, 8, 8, 8}, {8, 16, 16, 8}}, kernels.Attrs{FilterSize: []int{2, 2}, Strides: []int{2, 2}}},
		{"AvgPoolGrad_8x16x16x8", "AvgPoolGrad", [][]int{{8, 8, 8, 8}}, kernels.Attrs{FilterSize: []int{2, 2}, Strides: []int{2, 2}, Shape: []int{8, 16, 16, 8}}},
		{"DepthwiseBackpropInput_24x24x32", "DepthwiseConv2dNativeBackpropInput", [][]int{{1, 24, 24, 32}, {3, 3, 32, 1}}, kernels.Attrs{Pad: "same", Shape: []int{1, 24, 24, 32}}},
		{"DepthwiseBackpropFilter_24x24x32", "DepthwiseConv2dNativeBackpropFilter", [][]int{{1, 24, 24, 32}, {1, 24, 24, 32}}, kernels.Attrs{Pad: "same", Shape: []int{3, 3, 32, 1}}},
	}
	for _, p := range programs {
		for _, layout := range []string{"packed", "unpacked"} {
			p := p
			b.Run(p.name+"/"+layout, func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Packed = layout == "packed"
				cfg.Device.Workers = 1
				backend := New(cfg)
				defer backend.Close()
				rng := rand.New(rand.NewSource(1))
				inputs := make([]kernels.Input, len(p.shapes))
				for i, shape := range p.shapes {
					vals := make([]float32, tensor.ShapeSize(shape))
					for j := range vals {
						vals[j] = float32(rng.NormFloat64()) * 4
						if p.kernel == "FusedBatchNorm" && i == 2 {
							vals[j] = 0.5 + max(vals[j], -vals[j])
						}
					}
					id := tensor.NewDataID()
					backend.Write(id, vals, shape, tensor.Float32)
					inputs[i] = kernels.Input{DataID: id, Shape: shape, DType: tensor.Float32}
				}
				dispatch := func() {
					var out kernels.TensorInfo
					if err := backend.kernelsTable[p.kernel](inputs, p.attrs, &out); err != nil {
						b.Fatal(err)
					}
					<-backend.device.FenceSync()
					backend.DisposeData(out.DataID)
				}
				dispatch() // fills the recycler
				clock, fetches := backend.deviceClock(), backend.device.Stats().Fetches
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dispatch()
				}
				b.StopTimer()
				b.ReportMetric(float64(backend.deviceClock()-clock)/1e9/float64(b.N), "gpu-ms/op")
				b.ReportMetric(float64(backend.device.Stats().Fetches-fetches)/float64(b.N), "fetches/op")
			})
		}
	}
}
