package native

import (
	"repro/internal/kernels"
)

// registerAdam installs Adam's two fused kernels on their range bodies
// (internal/kernels/adam.go), bit-equal to the reference kernels and so to
// the eager op chain they replace. Chunks are any range of the output.
func (b *Backend) registerAdam() {
	// AdamMoments: inputs (mv [2, ...shape], g [...shape]).
	b.register("AdamMoments", func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		a, err := kernels.ResolveAdamMoments(inputs, attrs, out)
		if err != nil {
			return err
		}
		mv, g, dst := b.in(inputs[0]), b.in(inputs[1]), b.outOver(out, out.DType)
		b.parallelFor(len(dst), 4, func(lo, hi int) {
			a.Fill(mv, g, lo, dst[lo:hi])
		})
		return nil
	})
	// ApplyAdam: inputs (x [...shape], mv [2, ...shape]).
	b.register("ApplyAdam", func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		a, err := kernels.ResolveApplyAdam(inputs, attrs, out)
		if err != nil {
			return err
		}
		x, mv, dst := b.in(inputs[0]), b.in(inputs[1]), b.outOver(out, out.DType)
		b.parallelFor(len(dst), 7, func(lo, hi int) {
			a.Fill(x, mv, lo, dst[lo:hi])
		})
		return nil
	})
}
