package webgl

import (
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// registerReduce installs the [outer, inner] reduction programs and the
// multi-pass softmax. Reductions produce one output texel per outer row;
// softmax chains three programs (row max, exp-sum, normalize) through
// intermediate textures, the way the real backend chains fragment shaders.
func (b *Backend) registerReduce() {
	reduceOp := func(name string, initial float32, merge func(acc, v float32) float32, finish func(acc float32, n int) float32, outDType func(tensor.DataType) tensor.DataType) kernels.OverrideKernel {
		return func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
			if len(inputs) != 1 {
				return errf("%s: got %d inputs, want 1", name, len(inputs))
			}
			x := inputs[0]
			if len(x.Shape) != 2 {
				return errf("%s: input must be rank 2 [outer, inner], got %v", name, x.Shape)
			}
			outer, inner := x.Shape[0], x.Shape[1]
			_, xTex := b.input(x)
			dt := x.DType
			if outDType != nil {
				dt = outDType(x.DType)
			}
			out, err := b.output([]int{outer}, dt, res)
			if err != nil {
				return err
			}
			work := perValue(outer, inner, inner)
			if finish != nil {
				work.ALU += int64(outer)
			}
			b.runFlat(name, out, work, func(o int) float32 {
				acc := initial
				base := o * inner
				for i := 0; i < inner; i++ {
					acc = merge(acc, xTex.FetchFlat(base+i))
				}
				if finish != nil {
					acc = finish(acc, inner)
				}
				return acc
			})
			return nil
		}
	}
	b.register("Sum", reduceOp("Sum", 0, func(a, v float32) float32 { return a + v }, nil, nil))
	b.register("Mean", reduceOp("Mean", 0, func(a, v float32) float32 { return a + v },
		func(a float32, n int) float32 { return a / float32(n) },
		func(tensor.DataType) tensor.DataType { return tensor.Float32 }))
	b.register("Max", reduceOp("Max", float32(math.Inf(-1)), func(a, v float32) float32 {
		if v > a {
			return v
		}
		return a
	}, nil, nil))
	b.register("Min", reduceOp("Min", float32(math.Inf(1)), func(a, v float32) float32 {
		if v < a {
			return v
		}
		return a
	}, nil, nil))
	b.register("Prod", reduceOp("Prod", 1, func(a, v float32) float32 { return a * v }, nil, nil))

	argOp := func(name string, better func(v, best float32) bool) kernels.OverrideKernel {
		return func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
			if len(inputs) != 1 {
				return errf("%s: got %d inputs, want 1", name, len(inputs))
			}
			x := inputs[0]
			if len(x.Shape) != 2 || x.Shape[1] == 0 {
				return errf("%s: input must be rank 2 with non-empty inner dim, got %v", name, x.Shape)
			}
			outer, inner := x.Shape[0], x.Shape[1]
			_, xTex := b.input(x)
			out, err := b.output([]int{outer}, tensor.Int32, res)
			if err != nil {
				return err
			}
			b.runFlat(name, out, perValue(outer, inner, inner), func(o int) float32 {
				base := o * inner
				best := xTex.FetchFlat(base)
				bestIdx := 0
				for i := 1; i < inner; i++ {
					if v := xTex.FetchFlat(base + i); better(v, best) {
						best = v
						bestIdx = i
					}
				}
				return float32(bestIdx)
			})
			return nil
		}
	}
	b.register("ArgMax", argOp("ArgMax", func(v, best float32) bool { return v > best }))
	b.register("ArgMin", argOp("ArgMin", func(v, best float32) bool { return v < best }))

	// Softmax: three chained programs over intermediate textures.
	b.register("Softmax", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 1 {
			return errf("Softmax: got %d inputs, want 1", len(inputs))
		}
		x := inputs[0]
		if len(x.Shape) != 2 {
			return errf("Softmax: input must be rank 2 [outer, inner], got %v", x.Shape)
		}
		outer, inner := x.Shape[0], x.Shape[1]
		_, xTex := b.input(x)

		// Pass 1: row maxima.
		rowMax, err := b.newTexData(tensor.NewDataID(), []int{outer}, tensor.Float32)
		if err != nil {
			return err
		}
		b.runFlat("Softmax/rowMax", rowMax, perValue(outer, inner, inner), func(o int) float32 {
			base := o * inner
			best := xTex.FetchFlat(base)
			for i := 1; i < inner; i++ {
				if v := xTex.FetchFlat(base + i); v > best {
					best = v
				}
			}
			return best
		})
		maxTex := rowMax.tex

		// Pass 2: row sums of exp(x - max).
		rowSum, err := b.newTexData(tensor.NewDataID(), []int{outer}, tensor.Float32)
		if err != nil {
			return err
		}
		b.runFlat("Softmax/rowSum", rowSum, perValue(outer, inner+1, 3*inner), func(o int) float32 {
			base := o * inner
			m := maxTex.FetchFlat(o)
			var sum float32
			for i := 0; i < inner; i++ {
				sum += float32(math.Exp(float64(xTex.FetchFlat(base+i) - m)))
			}
			return sum
		})
		sumTex := rowSum.tex

		// Pass 3: normalized output.
		out, err := b.output(x.Shape, tensor.Float32, res)
		if err != nil {
			return err
		}
		b.runFlat("Softmax/normalize", out, perValue(out.size, 3, aluDecode+3), func(flat int) float32 {
			o := flat / inner
			m := maxTex.FetchFlat(o)
			s := sumTex.FetchFlat(o)
			return float32(math.Exp(float64(xTex.FetchFlat(flat)-m))) / s
		})

		// The intermediates are backend-internal: release them once the
		// output program has been enqueued (queue ordering keeps their
		// textures alive until execution).
		b.DisposeData(rowMax.id)
		b.DisposeData(rowSum.id)
		return nil
	})
}
