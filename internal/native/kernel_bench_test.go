package native

// Per-kernel benchmark entry points mirroring the per-layer rows of the
// repo benchmark (native.gemm_pointwise_ms, native.depthwise_ms,
// native.conv3x3_ms), on MobileNet α=0.25 @96 layer shapes, one worker,
// kernels called directly. Each reports GFLOP/s (2 flops per
// multiply-add) and, through SetBytes, the operand + output bytes one
// call touches. The whole-model number is BenchmarkMobileNet in
// bench_test.go.
//
//	go test -run '^$' -bench . -cpu 1 ./internal/native/

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// benchVals returns n normal values with the given fraction zeroed — a
// post-ReLU6 activation map is about half zeros.
func benchVals(rng *rand.Rand, n int, sparsity float64) []float32 {
	vals := make([]float32, n)
	for i := range vals {
		if rng.Float64() >= sparsity {
			vals[i] = float32(rng.NormFloat64())
		}
	}
	return vals
}

func benchBackend() *Backend {
	nb := New()
	nb.SetWorkers(1)
	return nb
}

func reportKernel(b *testing.B, flops, floats int) {
	b.SetBytes(int64(4 * floats))
	b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// benchGemm times the matmul body (kernels.MatMul) on an m×k lhs with the
// given zero fraction, its rows sharded as the kernel shards them.
func benchGemm(b *testing.B, m, k, n int, sparsity float64) {
	nb := benchBackend()
	rng := rand.New(rand.NewSource(1))
	av, bv := benchVals(rng, m*k, sparsity), benchVals(rng, k*n, 0)
	out := make([]float32, m*n)
	g, err := kernels.ResolveMatMul("_FusedMatMul", []kernels.Input{{Shape: []int{m, k}}, {Shape: []int{k, n}}}, kernels.Attrs{}, &kernels.TensorInfo{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb.parallelFor(func(_ [][]float32, lo int, dst []float32) {
			g.Fill(av, bv, kernels.Epilogue{}, lo, dst)
		}, nil, out, n, 2*int64(m)*int64(k)*int64(n))
	}
	reportKernel(b, 2*m*k*n, m*k+k*n+m*n)
}

// 2304×64 · 64×64 is the repo benchmark's native.gemm_pointwise shape.
// These three and the GEMV are the pairs the packed 4×4 micro-kernel
// tier was deleted on (EXPERIMENTS.md, "Native row gets its AVX2").
func BenchmarkGemmDense(b *testing.B)  { benchGemm(b, 2304, 64, 64, 0) }
func BenchmarkGemmSparse(b *testing.B) { benchGemm(b, 2304, 64, 64, 0.5) }
func BenchmarkGemmBig(b *testing.B)    { benchGemm(b, 512, 512, 512, 0) }

// BenchmarkGemvClassifier is the batch-1 classifier head: 1×256 · 256×1000.
func BenchmarkGemvClassifier(b *testing.B) { benchGemm(b, 1, 256, 1000, 0) }

// benchPlanKernel times one registered kernel called as the plan executor
// calls it: one reused output descriptor, the output disposed each
// iteration so the recycler serves the next one.
func benchPlanKernel(b *testing.B, nb *Backend, name string, attrs kernels.Attrs, flops int, inputs ...kernels.Input) {
	k := nb.table[name]
	var out kernels.TensorInfo
	floats := 0
	for _, in := range inputs {
		floats += tensor.ShapeSize(in.Shape)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k(inputs, attrs, &out); err != nil {
			b.Fatal(err)
		}
		nb.DisposeData(out.DataID)
	}
	reportKernel(b, flops, floats+tensor.ShapeSize(out.Shape))
}

func benchInput(nb *Backend, vals []float32, shape ...int) kernels.Input {
	id := tensor.NewDataID()
	nb.WriteOwned(id, vals)
	return kernels.Input{DataID: id, Shape: shape, DType: tensor.Float32}
}

// BenchmarkPointwise runs the fused 1×1 conv + bias + relu6 over the nine
// distinct (rows, inC, outC) shapes of MobileNet α=0.25 @96's thirteen
// pointwise layers, on post-ReLU6 (half-zero) inputs.
func BenchmarkPointwise(b *testing.B) {
	for _, s := range [][3]int{
		{48, 8, 16}, {24, 16, 32}, {24, 32, 32}, {12, 32, 64}, {12, 64, 64},
		{6, 64, 128}, {6, 128, 128}, {3, 128, 256}, {3, 256, 256},
	} {
		side, inC, outC := s[0], s[1], s[2]
		b.Run(fmt.Sprintf("%dx%dx%d", side*side, inC, outC), func(b *testing.B) {
			nb := benchBackend()
			rng := rand.New(rand.NewSource(1))
			x := benchInput(nb, benchVals(rng, side*side*inC, 0.5), 1, side, side, inC)
			w := benchInput(nb, benchVals(rng, inC*outC, 0), 1, 1, inC, outC)
			bias := benchInput(nb, benchVals(rng, outC, 0), outC)
			benchPlanKernel(b, nb, "FusedConv2D", kernels.Attrs{Activation: "relu6"},
				2*side*side*inC*outC, x, w, bias)
		})
	}
}

// benchDepthwise is the fused 3×3 depthwise + bias + relu6 on a
// 24×24×32 map (MobileNet α=0.25 @96 blocks 3 and 4).
func benchDepthwise(b *testing.B, stride int) {
	const side, c = 24, 32
	nb := benchBackend()
	rng := rand.New(rand.NewSource(1))
	x := benchInput(nb, benchVals(rng, side*side*c, 0.5), 1, side, side, c)
	w := benchInput(nb, benchVals(rng, 3*3*c, 0), 3, 3, c, 1)
	bias := benchInput(nb, benchVals(rng, c, 0), c)
	outSide := side / stride
	benchPlanKernel(b, nb, "FusedDepthwiseConv2dNative",
		kernels.Attrs{Activation: "relu6", Pad: "same", Strides: []int{stride, stride}},
		2*outSide*outSide*c*9, x, w, bias)
}

func BenchmarkDepthwise3x3S1(b *testing.B) { benchDepthwise(b, 1) }
func BenchmarkDepthwise3x3S2(b *testing.B) { benchDepthwise(b, 2) }

// BenchmarkConvStem3x3S2 is MobileNet's first layer: 96×96×3 → 48×48×8,
// 3×3 stride 2, fused bias + relu6, on a dense image.
func BenchmarkConvStem3x3S2(b *testing.B) {
	nb := benchBackend()
	rng := rand.New(rand.NewSource(1))
	x := benchInput(nb, benchVals(rng, 96*96*3, 0), 1, 96, 96, 3)
	w := benchInput(nb, benchVals(rng, 3*3*3*8, 0), 3, 3, 3, 8)
	bias := benchInput(nb, benchVals(rng, 8, 0), 8)
	benchPlanKernel(b, nb, "FusedConv2D",
		kernels.Attrs{Activation: "relu6", Pad: "same", Strides: []int{2, 2}},
		2*48*48*8*27, x, w, bias)
}

// BenchmarkConvNarrow is the bench convnet's two forward convolutions at
// batch 32 (inC→outC@side, 3×3 "same", no epilogue — the Layers API adds
// the bias and activation as kernels of their own): output rows of one and
// two vector steps, where per-pixel overhead, not arithmetic, is the cost.
// The first reads the image, the second a post-ReLU, post-pool map.
func BenchmarkConvNarrow(b *testing.B) {
	for _, s := range convGradShapes[:2] {
		b.Run(fmt.Sprintf("%d→%d@%d", s.inC, s.outC, s.side), func(b *testing.B) {
			const batch = 32
			rng := rand.New(rand.NewSource(1))
			sparsity := 0.0
			if s.inC > 1 {
				sparsity = 0.5
			}
			x := operand{benchVals(rng, batch*s.side*s.side*s.inC, sparsity), []int{batch, s.side, s.side, s.inC}}
			w := operand{benchVals(rng, 3*3*s.inC*s.outC, 0), []int{3, 3, s.inC, s.outC}}
			benchVsReference(b, "Conv2D", kernels.Attrs{Pad: "same"}, 2*batch*s.side*s.side*9*s.inC*s.outC, x, w)
		})
	}
}

// BenchmarkEpilogueRelu6 applies bias + relu6 to a 24×24 map of 32
// channels, one call for the whole run of pixels as the conv kernels make
// it, the bias repeating along it. Each iteration first restores the
// pre-activation values (a copy the reported time includes): applied to
// its own output the epilogue would converge on a map of 0s and 6s.
func BenchmarkEpilogueRelu6(b *testing.B) {
	const positions, c = 24 * 24, 32
	rng := rand.New(rand.NewSource(1))
	src := benchVals(rng, positions*c, 0)
	for i := range src {
		src[i] *= 4
	}
	dst := make([]float32, len(src))
	ep, _ := kernels.FusedTail("FusedConv2D", nil, kernels.Attrs{Activation: "relu6"}, c)
	ep.Bias = benchVals(rng, c, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst, src)
		ep.Apply(dst, 0)
	}
	reportKernel(b, 2*positions*c, 2*positions*c)
}

// The training-path kernels. Each has a "reference" sibling that runs the
// internal/kernels implementation on the same operands, so the ratio the
// native tier buys is one `go test -bench` away:
//
//	go test -run '^$' -bench 'Backprop|MaxPoolGrad|BiasAdd|BiasGrad' -cpu 1 ./internal/native/

// benchVsReference times kernel `name` on the native tier and on the
// reference tier.
func benchVsReference(b *testing.B, name string, attrs kernels.Attrs, flops int, ops ...operand) {
	b.Run("native", func(b *testing.B) {
		nb := benchBackend()
		inputs := make([]kernels.Input, len(ops))
		for i, o := range ops {
			inputs[i] = benchInput(nb, o.vals, o.shape...)
		}
		benchPlanKernel(b, nb, name, attrs, flops, inputs...)
	})
	b.Run("reference", func(b *testing.B) {
		ref, _ := kernels.LookupRef(name)
		bufs := make([]kernels.Buffer, len(ops))
		floats := 0
		for i, o := range ops {
			bufs[i] = kernels.Buffer{Data: o.vals, Shape: o.shape, DType: tensor.Float32}
			floats += len(o.vals)
		}
		var out kernels.Buffer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if out, err = ref(bufs, attrs); err != nil {
				b.Fatal(err)
			}
		}
		reportKernel(b, flops, floats+len(out.Data))
	})
}

// convGradShapes are batch-32 3×3 "same" convolutions: the bench
// convnet's two layers (inC→outC@side) and one wide enough that the
// vector core is compute-bound.
var convGradShapes = []struct{ inC, outC, side int }{{1, 8, 16}, {8, 16, 8}, {32, 64, 14}}

// benchConvGrad runs one Conv2D backward kernel over convGradShapes, on a
// post-ReLU x and the sparser dy a ReLU and a 2×2 max pool send back.
func benchConvGrad(b *testing.B, name string) {
	for _, s := range convGradShapes {
		b.Run(fmt.Sprintf("%d→%d@%d", s.inC, s.outC, s.side), func(b *testing.B) {
			const batch = 32
			rng := rand.New(rand.NewSource(1))
			xShape := []int{batch, s.side, s.side, s.inC}
			wShape := []int{3, 3, s.inC, s.outC}
			dyShape := []int{batch, s.side, s.side, s.outC}
			x := operand{benchVals(rng, tensor.ShapeSize(xShape), 0.5), xShape}
			w := operand{benchVals(rng, tensor.ShapeSize(wShape), 0), wShape}
			dy := operand{benchVals(rng, tensor.ShapeSize(dyShape), 0.8), dyShape}
			flops := 2 * batch * s.side * s.side * 9 * s.inC * s.outC
			if name == "Conv2DBackpropFilter" {
				benchVsReference(b, name, kernels.Attrs{Pad: "same", Shape: wShape}, flops, x, dy)
			} else {
				benchVsReference(b, name, kernels.Attrs{Pad: "same", Shape: xShape}, flops, dy, w)
			}
		})
	}
}

func BenchmarkConvBackpropFilter(b *testing.B) { benchConvGrad(b, "Conv2DBackpropFilter") }
func BenchmarkConvBackpropInput(b *testing.B)  { benchConvGrad(b, "Conv2DBackpropInput") }

// BenchmarkMaxPoolGrad2x2 is the bench convnet's first pool: 32×16×16×8
// post-ReLU activations, 2×2 windows.
func BenchmarkMaxPoolGrad2x2(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := operand{benchVals(rng, 32*16*16*8, 0.5), []int{32, 16, 16, 8}}
	dy := operand{benchVals(rng, 32*8*8*8, 0.5), []int{32, 8, 8, 8}}
	benchVsReference(b, "MaxPoolGrad", kernels.Attrs{FilterSize: []int{2, 2}, Strides: []int{2, 2}}, 32*16*16*8, dy, x)
}

// benchPool runs a 2×2 pool over the bench convnet's two pooled maps
// (channels@side, batch 32, post-ReLU).
func benchPool(b *testing.B, name string) {
	for _, s := range [][2]int{{8, 16}, {16, 8}} {
		c, side := s[0], s[1]
		b.Run(fmt.Sprintf("%d@%d", c, side), func(b *testing.B) {
			x := operand{benchVals(rand.New(rand.NewSource(1)), 32*side*side*c, 0.5), []int{32, side, side, c}}
			benchVsReference(b, name, kernels.Attrs{FilterSize: []int{2, 2}, Strides: []int{2, 2}}, 32*side*side*c, x)
		})
	}
}

func BenchmarkMaxPool2x2(b *testing.B) { benchPool(b, "MaxPool") }
func BenchmarkAvgPool(b *testing.B)    { benchPool(b, "AvgPool") }

// BenchmarkBiasGradReduce is the bias gradient of the bench convnet's two
// convolutions, ops.Sum(dy, [0, 1, 2]): Sum's column sums over [N·H·W, C]
// (the same merged runs), against the reference kernel and against the
// lowering it replaced — Transpose([3 0 1 2]) then Sum over [C, N·H·W],
// native kernels both.
func BenchmarkBiasGradReduce(b *testing.B) {
	for _, s := range convGradShapes[:2] {
		b.Run(fmt.Sprintf("%d@%d", s.outC, s.side), func(b *testing.B) {
			rows := 32 * s.side * s.side
			dy := benchVals(rand.New(rand.NewSource(1)), rows*s.outC, 0.8)
			benchVsReference(b, "Sum", kernels.Attrs{Axes: []int{0}}, rows*s.outC, operand{dy, []int{rows, s.outC}})
			b.Run("transpose+sum", func(b *testing.B) {
				nb := benchBackend()
				in := benchInput(nb, dy, 32, s.side, s.side, s.outC)
				perm := kernels.Attrs{Perm: []int{3, 0, 1, 2}}
				var t, sum kernels.TensorInfo
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := nb.table["Transpose"]([]kernels.Input{in}, perm, &t); err != nil {
						b.Fatal(err)
					}
					flat := kernels.Input{DataID: t.DataID, Shape: []int{s.outC, rows}, DType: t.DType}
					if err := nb.table["Sum"]([]kernels.Input{flat}, kernels.Attrs{Axes: []int{-1}}, &sum); err != nil {
						b.Fatal(err)
					}
					nb.DisposeData(t.DataID)
					nb.DisposeData(sum.DataID)
				}
				reportKernel(b, rows*s.outC, 2*rows*s.outC+s.outC)
			})
		})
	}
}

// BenchmarkTransposeGlobalPool is the Transpose([0 3 1 2]) a served
// batch's global average pool puts in front of its Mean: MobileNet
// α=0.25 @96's last 3×3×256 map at batch 16, on the view body every
// permutation runs (kernels.View): runs of nine values 256 apart.
func BenchmarkTransposeGlobalPool(b *testing.B) {
	nb := benchBackend()
	x := benchInput(nb, benchVals(rand.New(rand.NewSource(1)), 16*3*3*256, 0.5), 16, 3, 3, 256)
	benchPlanKernel(b, nb, "Transpose", kernels.Attrs{Perm: []int{0, 3, 1, 2}}, 0, x)
}

// BenchmarkBiasAddBroadcast adds a [C] bias to the first conv's
// 32×16×16×8 output: the one broadcast every Layers forward pass uses.
func BenchmarkBiasAddBroadcast(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	y := operand{benchVals(rng, 32*16*16*8, 0), []int{32, 16, 16, 8}}
	bias := operand{benchVals(rng, 8, 0), []int{8}}
	benchVsReference(b, "Add", kernels.Attrs{}, 32*16*16*8, y, bias)
}

// BenchmarkActivationLoops runs Relu, Relu6 and Step (the ReLU gradient's
// mask) over the first conv's 32×16×16×8 pre-activations: dense, half of
// them negative.
func BenchmarkActivationLoops(b *testing.B) {
	for _, name := range []string{"Relu", "Relu6", "Step"} {
		b.Run(name, func(b *testing.B) {
			x := operand{benchVals(rand.New(rand.NewSource(1)), 32*16*16*8, 0), []int{32, 16, 16, 8}}
			benchVsReference(b, name, kernels.Attrs{}, 32*16*16*8, x)
		})
	}
}
