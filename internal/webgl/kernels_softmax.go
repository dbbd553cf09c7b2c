package webgl

import (
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// softmax is Softmax as three chained programs (row max, exp-sum,
// normalize) through intermediate textures, the way the real backend
// chains fragment shaders — its second body, beside the reference's and
// native's row (see the reference kernel), and the last of the per-value
// form (runFlat).
func (b *Backend) softmax(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
	outer, inner, err := kernels.ResolveSoftmax(inputs, res)
	if err != nil {
		return err
	}
	if inner == 0 { // an empty last axis: nothing to normalise
		_, err := b.output(res.Shape, tensor.Float32, res)
		return err
	}
	x := inputs[0]
	_, xTex := b.input(x)

	// Pass 1: row maxima.
	rowMax, err := b.newTexData(tensor.NewDataID(), []int{outer}, tensor.Float32)
	if err != nil {
		return err
	}
	b.runFlat("Softmax/rowMax", rowMax, kernels.PerValue(outer, inner, inner), func(o int) float32 {
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
	b.runFlat("Softmax/rowSum", rowSum, kernels.PerValue(outer, inner+1, 3*inner), func(o int) float32 {
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
	out, err := b.output(res.Shape, tensor.Float32, res)
	if err != nil {
		return err
	}
	b.runFlat("Softmax/normalize", out, kernels.PerValue(out.size, 3, kernels.ALUDecode+3), func(flat int) float32 {
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
}

// runFlat executes a program whose value at flat output index i is
// valueAt(i): the per-value form of the paper's shaders, which Softmax's
// three passes keep.
func (b *Backend) runFlat(name string, out *texData, work kernels.Work, valueAt func(flat int) float32) {
	b.run(name, out, kernels.Range{Fill: func(_ [][]float32, lo int, dst []float32) {
		for i := range dst {
			dst[i] = valueAt(lo + i)
		}
	}, Work: work}, nil)
}
