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
// Table 1 baseline. Every other kernel, and every call these loops do not
// take (a broadcast, a transposed matmul), is the embedded backend's: the
// reference kernel on the host buffers.

// NaiveBackend is the plain backend with JS-style naive kernels.
type NaiveBackend struct {
	*Backend
	table map[string]kernels.Kernel
}

// NewNaive returns the plain CPU backend with naive kernels installed.
func NewNaive() *NaiveBackend {
	b := &NaiveBackend{Backend: NewNamed("cpu")}
	b.initNaiveKernels()
	return b
}

// Kernel implements kernels.Backend: the naive kernel of name, else the
// reference kernel.
func (b *NaiveBackend) Kernel(name string) (kernels.Kernel, bool) {
	if k, ok := b.table[name]; ok {
		return k, true
	}
	return b.Backend.Kernel(name)
}

// reference is the reference kernel of name on the host buffers.
func (b *NaiveBackend) reference(name string) kernels.Kernel {
	k, _ := b.Backend.Kernel(name)
	return k
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
	b.table = map[string]kernels.Kernel{}

	// The element-wise kernels run their op's one check
	// (kernels.ElementwiseOp.Check) before their float64 loop.
	bin := func(name string, f func(x, y float64) float64) {
		op, _ := kernels.LookupElementwise(name)
		broadcast := b.reference(name)
		b.table[name] = func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
			if err := op.Check(inputs, res); err != nil {
				return err
			}
			a, x := inputs[0], inputs[1]
			if !tensor.ShapesEqual(a.Shape, x.Shape) {
				return broadcast(inputs, attrs, res)
			}
			aBuf, xBuf := b.Raw(a.DataID), b.Raw(x.DataID)
			out := b.out(res.Shape, res.DType, res)
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
	// The ReLU family, Maximum and Minimum select as the element-wise table
	// does (math.Max and math.Min would put NaN and ±0 elsewhere).
	bin("Maximum", func(x, y float64) float64 {
		if x > y {
			return x
		}
		return y
	})
	bin("Minimum", func(x, y float64) float64 {
		if x < y {
			return x
		}
		return y
	})

	un := func(name string, f func(x float64) float64) {
		op, _ := kernels.LookupElementwise(name)
		b.table[name] = func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
			if err := op.Check(inputs, res); err != nil {
				return err
			}
			xBuf := b.Raw(inputs[0].DataID)
			out := b.out(res.Shape, res.DType, res)
			for i := range out {
				out[i] = float32(f(float64(xBuf[i])))
			}
			return nil
		}
	}
	un("Relu", func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
	un("Relu6", func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 6 {
			return 6
		}
		return x
	})
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
	g, err := kernels.ResolveMatMul("BatchMatMul", inputs, attrs, res)
	if err != nil {
		return err
	}
	if attrs.TransposeA || attrs.TransposeB {
		return b.reference("BatchMatMul")(inputs, attrs, res)
	}
	batch, m, k, n, batchA, batchB := g.Dims()
	aBuf, bBuf := b.Raw(inputs[0].DataID), b.Raw(inputs[1].DataID)
	out := b.out(res.Shape, tensor.Float32, res)
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
	info, err := kernels.ResolveConv("Conv2D", inputs, attrs, res)
	if err != nil {
		return err
	}
	x, w := inputs[0], inputs[1]
	xBuf, wBuf := b.Raw(x.DataID), b.Raw(w.DataID)
	out := b.out(res.Shape, tensor.Float32, res)
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
	info, err := kernels.ResolveConv("DepthwiseConv2dNative", inputs, attrs, res)
	if err != nil {
		return err
	}
	x, w := inputs[0], inputs[1]
	xBuf, wBuf := b.Raw(x.DataID), b.Raw(w.DataID)
	out := b.out(res.Shape, tensor.Float32, res)
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

func (b *NaiveBackend) naivePool(isMax bool) kernels.Kernel {
	name := "AvgPool"
	if isMax {
		name = "MaxPool"
	}
	return func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		info, err := kernels.ResolvePool(name, inputs, attrs, res)
		if err != nil {
			return err
		}
		x := inputs[0]
		xBuf := b.Raw(x.DataID)
		out := b.out(res.Shape, res.DType, res)
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
			return b.reference("FusedBatchNorm")(inputs, attrs, res)
		}
	}
	eps := attrs.Epsilon
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
	outer, inner, err := kernels.ResolveSoftmax(inputs, res)
	if err != nil {
		return err
	}
	xBuf := b.Raw(inputs[0].DataID)
	out := b.out(res.Shape, tensor.Float32, res)
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

// naiveReduce folds, for every output element, its reduced coordinates in
// row-major order, decoding each output index into the input's kept
// coordinates and each fold index into its reduced ones on every access.
func (b *NaiveBackend) naiveReduce(name string) kernels.Kernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if _, err := kernels.ResolveReduce(name, inputs, attrs, res); err != nil {
			return err
		}
		shape := inputs[0].Shape
		set, err := kernels.ReduceAxes(name, attrs.Axes, len(shape))
		if err != nil {
			return err
		}
		xBuf := b.Raw(inputs[0].DataID)
		out := b.out(res.Shape, res.DType, res)
		inner := 1
		for d, n := range shape {
			if set.Has(d) {
				inner *= n
			}
		}
		coord := make([]int, len(shape))
		for o := range out {
			// The kept coordinates of output o.
			for d, rest := len(shape)-1, o; d >= 0; d-- {
				if !set.Has(d) {
					coord[d], rest = rest%shape[d], rest/shape[d]
				}
			}
			var acc float64
			switch name {
			case "Max":
				acc = math.Inf(-1)
			case "Min":
				acc = math.Inf(1)
			}
			for i := 0; i < inner; i++ {
				flat := 0
				for d, rest := len(shape)-1, i; d >= 0; d-- {
					if set.Has(d) {
						coord[d], rest = rest%shape[d], rest/shape[d]
					}
				}
				for d := range shape {
					flat = flat*shape[d] + coord[d]
				}
				v := float64(xBuf[flat])
				switch name {
				case "Sum", "Mean":
					acc += v
				case "Max":
					acc = math.Max(acc, v)
				case "Min":
					acc = math.Min(acc, v)
				}
			}
			switch {
			case name != "Mean":
			case inner == 0:
				acc = math.NaN() // the reference's NaN, not 0/0's
			default:
				acc /= float64(inner)
			}
			out[o] = float32(acc)
		}
		return nil
	}
}

var _ kernels.Backend = (*NaiveBackend)(nil)
