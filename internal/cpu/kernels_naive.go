package cpu

import (
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// This file gives the plain CPU backend its own kernel implementations in
// the style of the paper's "plain JS" backend: one loop per output element,
// coordinates decoded and re-encoded with full index arithmetic on every
// access, and all arithmetic in float64 — JavaScript's number type. No
// loop blocking, no parallelism, no vectorizable inner loops. This is the
// Table 1 baseline; the optimized backends override the same kernels with
// device-specific implementations.

// NaiveBackend is the plain backend with JS-style naive kernels.
type NaiveBackend struct {
	*Backend
	table map[string]kernels.OverrideKernel
}

// NewNaive returns the plain CPU backend with naive kernels installed.
func NewNaive() *NaiveBackend {
	b := &NaiveBackend{Backend: NewNamed("cpu")}
	b.initNaiveKernels()
	return b
}

// KernelOverride implements kernels.Overrider.
func (b *NaiveBackend) KernelOverride(name string) (kernels.OverrideKernel, bool) {
	k, ok := b.table[name]
	return k, ok
}

// out allocates and registers a kernel's output buffer and describes it in
// res; the shape is copied, never aliased from an input.
func (b *NaiveBackend) out(shape []int, dtype tensor.DataType, res *kernels.TensorInfo) []float32 {
	buf := make([]float32, tensor.ShapeSize(shape))
	res.Set(tensor.NewDataID(), shape, dtype)
	b.WriteOwned(res.DataID, buf)
	return buf
}

// loc4 recomputes a flat NHWC index from coordinates the long way, the way
// interpreted array indexing pays the cost on every access.
func loc4(s1, s2, s3 int, a, b, c, d int) int {
	return ((a*s1+b)*s2+c)*s3 + d
}

func (b *NaiveBackend) initNaiveKernels() {
	b.table = map[string]kernels.OverrideKernel{}

	bin := func(name string, f func(x, y float64) float64) {
		b.table[name] = func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
			if len(inputs) != 2 {
				return fmt.Errorf("%s: got %d inputs, want 2", name, len(inputs))
			}
			a, x := inputs[0], inputs[1]
			if !tensor.ShapesEqual(a.Shape, x.Shape) {
				return kernels.ErrFallback // broadcasting goes through the reference kernel
			}
			aBuf, xBuf := b.Raw(a.DataID), b.Raw(x.DataID)
			out := b.out(a.Shape, a.DType, res)
			for i := range out {
				out[i] = float32(f(float64(aBuf[i]), float64(xBuf[i])))
			}
			return nil
		}
	}
	bin("Add", func(x, y float64) float64 { return x + y })
	bin("Sub", func(x, y float64) float64 { return x - y })
	bin("Mul", func(x, y float64) float64 { return x * y })
	bin("RealDiv", func(x, y float64) float64 { return x / y })
	bin("Maximum", math.Max)
	bin("Minimum", math.Min)

	un := func(name string, f func(x float64) float64) {
		b.table[name] = func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
			if len(inputs) != 1 {
				return fmt.Errorf("%s: got %d inputs, want 1", name, len(inputs))
			}
			xBuf := b.Raw(inputs[0].DataID)
			out := b.out(inputs[0].Shape, inputs[0].DType, res)
			for i := range out {
				out[i] = float32(f(float64(xBuf[i])))
			}
			return nil
		}
	}
	un("Relu", func(x float64) float64 { return math.Max(x, 0) })
	un("Relu6", func(x float64) float64 { return math.Min(math.Max(x, 0), 6) })
	un("Sigmoid", func(x float64) float64 { return 1 / (1 + math.Exp(-x)) })
	un("Tanh", math.Tanh)
	un("Exp", math.Exp)
	un("Sqrt", math.Sqrt)
	un("Neg", func(x float64) float64 { return -x })
	un("Square", func(x float64) float64 { return x * x })

	b.table["BatchMatMul"] = b.naiveBatchMatMul
	b.table["Conv2D"] = b.naiveConv2D
	b.table["DepthwiseConv2dNative"] = b.naiveDepthwise
	b.table["MaxPool"] = b.naivePool(true)
	b.table["AvgPool"] = b.naivePool(false)
	b.table["FusedBatchNorm"] = b.naiveBatchNorm
	b.table["Softmax"] = b.naiveSoftmax
	b.table["Sum"] = b.naiveReduce("Sum")
	b.table["Mean"] = b.naiveReduce("Mean")
	b.table["Max"] = b.naiveReduce("Max")
	b.table["Min"] = b.naiveReduce("Min")
}

func (b *NaiveBackend) naiveBatchMatMul(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
	if len(inputs) != 2 {
		return fmt.Errorf("BatchMatMul: got %d inputs, want 2", len(inputs))
	}
	if attrs.Bool("transposeA", false) || attrs.Bool("transposeB", false) {
		return kernels.ErrFallback
	}
	a, x := inputs[0], inputs[1]
	if len(a.Shape) != 3 || len(x.Shape) != 3 {
		return fmt.Errorf("BatchMatMul: inputs must be rank 3")
	}
	batchA, batchB := a.Shape[0], x.Shape[0]
	batch := batchA
	if batchB > batch {
		batch = batchB
	}
	if batchA != batchB && batchA != 1 && batchB != 1 {
		return fmt.Errorf("BatchMatMul: incompatible batch dims")
	}
	m, k := a.Shape[1], a.Shape[2]
	if x.Shape[1] != k {
		return fmt.Errorf("BatchMatMul: inner dims mismatch %v x %v", a.Shape, x.Shape)
	}
	n := x.Shape[2]
	aBuf, bBuf := b.Raw(a.DataID), b.Raw(x.DataID)
	out := b.out([]int{batch, m, n}, tensor.Float32, res)
	// Naive ijk loop with per-access index arithmetic and float64 math.
	for p := 0; p < batch; p++ {
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				sum := 0.0
				for kk := 0; kk < k; kk++ {
					if av := aBuf[((p%batchA)*m+i)*k+kk]; av != 0 { // a zero lhs element is left out, as on every tier
						sum += float64(float64(av) * float64(bBuf[((p%batchB)*k+kk)*n+j]))
					}
				}
				out[(p*m+i)*n+j] = float32(sum)
			}
		}
	}
	return nil
}

func (b *NaiveBackend) naiveConv2D(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
	if len(inputs) != 2 {
		return fmt.Errorf("Conv2D: got %d inputs, want 2", len(inputs))
	}
	x, w := inputs[0], inputs[1]
	info, err := kernels.ComputeConv2DInfo(x.Shape, w.Shape,
		attrs.Ints("strides", []int{1, 1}), attrs.Ints("dilations", []int{1, 1}),
		attrs.String("pad", "valid"), false)
	if err != nil {
		return err
	}
	xBuf, wBuf := b.Raw(x.DataID), b.Raw(w.DataID)
	out := b.out(info.OutShape(), tensor.Float32, res)
	inC, outC := info.InChannels, info.OutChannels
	// One loop per output element, innermost over the receptive field,
	// recomputing flat indices from coordinates at every access.
	for bb := 0; bb < info.BatchSize; bb++ {
		for oy := 0; oy < info.OutHeight; oy++ {
			for ox := 0; ox < info.OutWidth; ox++ {
				for oc := 0; oc < outC; oc++ {
					sum := 0.0
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
							for ic := 0; ic < inC; ic++ {
								if xv := xBuf[loc4(info.InHeight, info.InWidth, inC, bb, iy, ix, ic)]; xv != 0 { // a zero lhs element is left out, as on every tier
									sum += float64(float64(xv) * float64(wBuf[loc4(info.FilterWidth, inC, outC, fy, fx, ic, oc)]))
								}
							}
						}
					}
					out[loc4(info.OutHeight, info.OutWidth, outC, bb, oy, ox, oc)] = float32(sum)
				}
			}
		}
	}
	return nil
}

func (b *NaiveBackend) naiveDepthwise(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
	if len(inputs) != 2 {
		return fmt.Errorf("DepthwiseConv2dNative: got %d inputs, want 2", len(inputs))
	}
	x, w := inputs[0], inputs[1]
	info, err := kernels.ComputeConv2DInfo(x.Shape, w.Shape,
		attrs.Ints("strides", []int{1, 1}), attrs.Ints("dilations", []int{1, 1}),
		attrs.String("pad", "valid"), true)
	if err != nil {
		return err
	}
	xBuf, wBuf := b.Raw(x.DataID), b.Raw(w.DataID)
	out := b.out(info.OutShape(), tensor.Float32, res)
	inC, mult, outC := info.InChannels, info.ChannelMultiplier, info.OutChannels
	for bb := 0; bb < info.BatchSize; bb++ {
		for oy := 0; oy < info.OutHeight; oy++ {
			for ox := 0; ox < info.OutWidth; ox++ {
				for oc := 0; oc < outC; oc++ {
					ic := oc / mult
					q := oc % mult
					sum := 0.0
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
							sum += float64(float64(xBuf[loc4(info.InHeight, info.InWidth, inC, bb, iy, ix, ic)]) *
								float64(wBuf[loc4(info.FilterWidth, inC, mult, fy, fx, ic, q)]))
						}
					}
					out[loc4(info.OutHeight, info.OutWidth, outC, bb, oy, ox, oc)] = float32(sum)
				}
			}
		}
	}
	return nil
}

func (b *NaiveBackend) naivePool(isMax bool) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 1 {
			return fmt.Errorf("pool: got %d inputs, want 1", len(inputs))
		}
		x := inputs[0]
		filterSize := attrs.Ints("filterSize", []int{2, 2})
		strides := attrs.Ints("strides", filterSize)
		info, err := kernels.ComputePool2DInfo(x.Shape, filterSize, strides, attrs.String("pad", "valid"))
		if err != nil {
			return err
		}
		xBuf := b.Raw(x.DataID)
		out := b.out(info.OutShape(), x.DType, res)
		c := info.OutChannels
		for bb := 0; bb < info.BatchSize; bb++ {
			for oy := 0; oy < info.OutHeight; oy++ {
				for ox := 0; ox < info.OutWidth; ox++ {
					for ch := 0; ch < c; ch++ {
						best := math.Inf(-1)
						sum := 0.0
						count := 0
						for fy := 0; fy < info.FilterHeight; fy++ {
							iy := oy*info.StrideHeight - info.PadTop + fy
							if iy < 0 || iy >= info.InHeight {
								continue
							}
							for fx := 0; fx < info.FilterWidth; fx++ {
								ix := ox*info.StrideWidth - info.PadLeft + fx
								if ix < 0 || ix >= info.InWidth {
									continue
								}
								v := float64(xBuf[loc4(info.InHeight, info.InWidth, c, bb, iy, ix, ch)])
								if isMax {
									best = math.Max(best, v)
								} else {
									sum += v
									count++
								}
							}
						}
						idx := loc4(info.OutHeight, info.OutWidth, c, bb, oy, ox, ch)
						if isMax {
							out[idx] = float32(best)
						} else if count > 0 {
							out[idx] = float32(sum / float64(count))
						}
					}
				}
			}
		}
		return nil
	}
}

func (b *NaiveBackend) naiveBatchNorm(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
	if len(inputs) != 5 {
		return fmt.Errorf("FusedBatchNorm: got %d inputs, want 5", len(inputs))
	}
	x := inputs[0]
	rank := len(x.Shape)
	c := 0
	if rank > 0 {
		c = x.Shape[rank-1]
	}
	for _, p := range inputs[1:] {
		if !(len(p.Shape) == 1 && p.Shape[0] == c) {
			return kernels.ErrFallback
		}
	}
	eps := attrs.Float("varianceEpsilon", 1e-3)
	xBuf := b.Raw(x.DataID)
	mean, variance := b.Raw(inputs[1].DataID), b.Raw(inputs[2].DataID)
	offset, scale := b.Raw(inputs[3].DataID), b.Raw(inputs[4].DataID)
	out := b.out(x.Shape, tensor.Float32, res)
	for i := range out {
		ch := i % c
		norm := (float64(xBuf[i]) - float64(mean[ch])) / math.Sqrt(float64(variance[ch])+eps)
		out[i] = float32(float64(norm*float64(scale[ch])) + float64(offset[ch]))
	}
	return nil
}

func (b *NaiveBackend) naiveSoftmax(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
	if len(inputs) != 1 || len(inputs[0].Shape) != 2 {
		return kernels.ErrFallback
	}
	outer, inner := inputs[0].Shape[0], inputs[0].Shape[1]
	xBuf := b.Raw(inputs[0].DataID)
	out := b.out(inputs[0].Shape, tensor.Float32, res)
	for o := 0; o < outer; o++ {
		maxV := math.Inf(-1)
		for i := 0; i < inner; i++ {
			maxV = math.Max(maxV, float64(xBuf[o*inner+i]))
		}
		sum := 0.0
		for i := 0; i < inner; i++ {
			e := math.Exp(float64(xBuf[o*inner+i]) - maxV)
			out[o*inner+i] = float32(e)
			sum += e
		}
		for i := 0; i < inner; i++ {
			out[o*inner+i] = float32(float64(out[o*inner+i]) / sum)
		}
	}
	return nil
}

func (b *NaiveBackend) naiveReduce(name string) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 1 || len(inputs[0].Shape) != 2 {
			return kernels.ErrFallback
		}
		outer, inner := inputs[0].Shape[0], inputs[0].Shape[1]
		xBuf := b.Raw(inputs[0].DataID)
		dt := inputs[0].DType
		if name == "Mean" {
			dt = tensor.Float32
		}
		out := b.out([]int{outer}, dt, res)
		for o := 0; o < outer; o++ {
			var acc float64
			switch name {
			case "Max":
				acc = math.Inf(-1)
			case "Min":
				acc = math.Inf(1)
			}
			for i := 0; i < inner; i++ {
				v := float64(xBuf[o*inner+i])
				switch name {
				case "Sum", "Mean":
					acc += v
				case "Max":
					acc = math.Max(acc, v)
				case "Min":
					acc = math.Min(acc, v)
				}
			}
			if name == "Mean" {
				acc /= float64(inner)
			}
			out[o] = float32(acc)
		}
		return nil
	}
}

var (
	_ kernels.Backend   = (*NaiveBackend)(nil)
	_ kernels.Overrider = (*NaiveBackend)(nil)
)
