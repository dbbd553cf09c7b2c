package webgl

import (
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// registerTrain installs the programs a training step's tail dispatches:
// the bias gradient's leading-axes sum and Adam's two fused kernels
// (internal/kernels/adam.go). Each runs its internal/vec row over the
// program's value range, so a webgl Fit keeps its gradients and optimizer
// state on the device and reads back only what the caller asks for (the
// loss and the metrics; Section 4.1.1).
func (b *Backend) registerTrain() {
	// BiasAddGrad: [outer, inner] → [inner], one output value per column.
	b.register("BiasAddGrad", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 1 {
			return errf("BiasAddGrad: got %d inputs, want 1", len(inputs))
		}
		x := inputs[0]
		if len(x.Shape) != 2 {
			return errf("BiasAddGrad: input must be rank 2 [outer, inner], got %v", x.Shape)
		}
		outer, inner := x.Shape[0], x.Shape[1]
		_, xTex := b.input(x)
		out, err := b.output([]int{inner}, x.DType, res)
		if err != nil {
			return err
		}
		b.run("BiasAddGrad", out, perValue(inner, outer, outer), func(lo, hi int, dst []float32) {
			var xs []float32
			if outer > 0 {
				xs = xTex.Floats()[lo:]
			}
			vec.SumRows(dst, xs, inner, outer)
		})
		return nil
	})

	// AdamMoments: (mv [2, ...shape], g [...shape]) → mv', any value range
	// of the slot, m and v alike.
	b.register("AdamMoments", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 2 {
			return errf("AdamMoments: got %d inputs, want 2", len(inputs))
		}
		if err := kernels.CheckAdamSlot("AdamMoments", inputs[0].Shape, inputs[1].Shape); err != nil {
			return err
		}
		_, mvTex := b.input(inputs[0])
		_, gTex := b.input(inputs[1])
		out, err := b.output(inputs[0].Shape, tensor.Float32, res)
		if err != nil {
			return err
		}
		n := tensor.ShapeSize(inputs[1].Shape)
		beta1, c1, beta2, c2 := kernels.AdamMomentsAttrs(attrs)
		b.run("AdamMoments", out, adamMomentsWork(n), func(lo, hi int, dst []float32) {
			vec.AdamMoments(dst, mvTex.Floats(), gTex.Floats()[:n], lo, beta1, c1, beta2, c2)
		})
		return nil
	})

	// ApplyAdam: (x [...shape], mv [2, ...shape]) → x'.
	b.register("ApplyAdam", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 2 {
			return errf("ApplyAdam: got %d inputs, want 2", len(inputs))
		}
		if err := kernels.CheckAdamSlot("ApplyAdam", inputs[1].Shape, inputs[0].Shape); err != nil {
			return err
		}
		_, xTex := b.input(inputs[0])
		_, mvTex := b.input(inputs[1])
		out, err := b.output(inputs[0].Shape, tensor.Float32, res)
		if err != nil {
			return err
		}
		n := out.size
		lr, corr1, corr2, eps := kernels.ApplyAdamAttrs(attrs)
		b.run("ApplyAdam", out, perValue(n, 3, aluAdamStep), func(lo, hi int, dst []float32) {
			mv := mvTex.Floats()
			vec.AdamStep(dst, xTex.Floats()[lo:hi], mv[lo:hi], mv[n+lo:n+hi], lr, corr1, corr2, eps)
		})
		return nil
	})
}
