package webgl

import (
	"repro/internal/kernels"
)

// registerTrain installs the programs a training step's tail dispatches:
// the bias gradient's leading-axes sum and Adam's two fused kernels, on
// the range bodies native runs (kernels.ColumnSums, kernels.AdamMoments,
// kernels.ApplyAdam), so a webgl Fit keeps its gradients and optimizer
// state on the device and reads back only what the caller asks for (the
// loss and the metrics; Section 4.1.1).
func (b *Backend) registerTrain() {
	// BiasAddGrad: [outer, inner] → [inner], one output value per column.
	b.register("BiasAddGrad", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		outer, inner, err := kernels.Rows("BiasAddGrad", inputs)
		if err != nil {
			return err
		}
		_, xTex := b.input(inputs[0])
		out, err := b.output([]int{inner}, inputs[0].DType, res)
		if err != nil {
			return err
		}
		b.run("BiasAddGrad", out, perValue(inner, outer, outer), func(lo, hi int, dst []float32) {
			kernels.ColumnSums(xTex.Floats(), outer, inner, lo, dst)
		})
		return nil
	})

	// AdamMoments: (mv [2, ...shape], g [...shape]) → mv', any value range
	// of the slot, m and v alike.
	b.register("AdamMoments", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		a, err := kernels.ResolveAdamMoments(inputs, attrs, res)
		if err != nil {
			return err
		}
		_, mvTex := b.input(inputs[0])
		_, gTex := b.input(inputs[1])
		out, err := b.output(res.Shape, res.DType, res)
		if err != nil {
			return err
		}
		b.run("AdamMoments", out, adamMomentsWork(out.size/2), func(lo, hi int, dst []float32) {
			a.Fill(mvTex.Floats(), gTex.Floats(), lo, dst)
		})
		return nil
	})

	// ApplyAdam: (x [...shape], mv [2, ...shape]) → x'.
	b.register("ApplyAdam", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		a, err := kernels.ResolveApplyAdam(inputs, attrs, res)
		if err != nil {
			return err
		}
		_, xTex := b.input(inputs[0])
		_, mvTex := b.input(inputs[1])
		out, err := b.output(res.Shape, res.DType, res)
		if err != nil {
			return err
		}
		b.run("ApplyAdam", out, perValue(out.size, 3, aluAdamStep), func(lo, hi int, dst []float32) {
			a.Fill(xTex.Floats(), mvTex.Floats(), lo, dst)
		})
		return nil
	})
}
