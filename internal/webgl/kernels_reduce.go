package webgl

import (
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// registerReduce installs the [outer, inner] reduction programs, on the
// row bodies native runs (kernels.Reductions), and the multi-pass softmax.
// Reductions produce one output value per outer row; softmax chains three
// programs (row max, exp-sum, normalize) through intermediate textures, the
// way the real backend chains fragment shaders — its second body, beside
// the reference's and native's row (see the reference kernel).
func (b *Backend) registerReduce() {
	for name, r := range kernels.Reductions() {
		b.register(name, func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
			outer, inner, err := kernels.ResolveReduce(name, inputs, res)
			if err != nil {
				return err
			}
			_, xTex := b.input(inputs[0])
			out, err := b.output(res.Shape, res.DType, res)
			if err != nil {
				return err
			}
			work := perValue(outer, inner, inner)
			if name == "Mean" {
				work.ALU += int64(outer) // the divide
			}
			b.run(name, out, work, func(lo, hi int, dst []float32) {
				r.Fill(xTex.Floats(), inner, lo, dst)
			})
			return nil
		})
	}

	// Softmax: three chained programs over intermediate textures.
	b.register("Softmax", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		outer, inner, err := kernels.Rows("Softmax", inputs)
		if err != nil {
			return err
		}
		x := inputs[0]
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
