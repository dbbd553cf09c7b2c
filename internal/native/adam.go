package native

import (
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// registerAdam installs Adam's two fused kernels (internal/kernels/adam.go)
// on vec.AdamMoments and vec.AdamStep, bit-equal to the reference kernels
// and so to the eager op chain they replace. A malformed call is declined
// for the reference kernel to reject.
func (b *Backend) registerAdam() {
	// AdamMoments: inputs (mv [2, ...shape], g [...shape]). Chunks are any
	// range of the slot's 2n values.
	b.register("AdamMoments", func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		if len(inputs) != 2 || kernels.CheckAdamSlot("AdamMoments", inputs[0].Shape, inputs[1].Shape) != nil {
			return kernels.ErrFallback
		}
		mv, g := b.in(inputs[0]), b.in(inputs[1])
		beta1, c1, beta2, c2 := kernels.AdamMomentsAttrs(attrs)
		out.Shape = append(out.Shape[:0], inputs[0].Shape...)
		dst := b.outOver(out, tensor.Float32)
		b.parallelFor(len(dst), 4, func(lo, hi int) {
			vec.AdamMoments(dst[lo:hi], mv, g, lo, beta1, c1, beta2, c2)
		})
		return nil
	})
	// ApplyAdam: inputs (x [...shape], mv [2, ...shape]).
	b.register("ApplyAdam", func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		if len(inputs) != 2 || kernels.CheckAdamSlot("ApplyAdam", inputs[1].Shape, inputs[0].Shape) != nil {
			return kernels.ErrFallback
		}
		x, mv := b.in(inputs[0]), b.in(inputs[1])
		lr, corr1, corr2, eps := kernels.ApplyAdamAttrs(attrs)
		out.Shape = append(out.Shape[:0], inputs[0].Shape...)
		dst := b.outOver(out, tensor.Float32)
		n := len(dst)
		b.parallelFor(n, 7, func(lo, hi int) {
			vec.AdamStep(dst[lo:hi], x[lo:hi], mv[lo:hi], mv[n+lo:n+hi], lr, corr1, corr2, eps)
		})
		return nil
	})
}
