package ops

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// MatMul multiplies two rank-2 matrices, optionally transposing either
// operand (Listing 2 of the paper shows the WebGL shader this dispatches to
// on the webgl backend).
func MatMul(a, b *tensor.Tensor, transposeA, transposeB bool) *tensor.Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(&core.OpError{Kernel: "MatMul", Err: fmt.Errorf("inputs must be rank 2, got %v and %v", a.Shape, b.Shape)})
	}
	a3 := Reshape(a, 1, a.Shape[0], a.Shape[1])
	b3 := Reshape(b, 1, b.Shape[0], b.Shape[1])
	out := BatchMatMul(a3, b3, transposeA, transposeB)
	return Reshape(out, out.Shape[1], out.Shape[2])
}

// BatchMatMul multiplies two rank-3 tensors batch-wise with broadcasting of
// a batch dimension of 1.
func BatchMatMul(a, b *tensor.Tensor, transposeA, transposeB bool) *tensor.Tensor {
	return run1("BatchMatMul", []*tensor.Tensor{a, b},
		kernels.Attrs{"transposeA": transposeA, "transposeB": transposeB})
}

// Dot computes the vector dot product of two rank-1 tensors.
func Dot(a, b *tensor.Tensor) *tensor.Tensor {
	if a.Rank() != 1 || b.Rank() != 1 {
		panic(&core.OpError{Kernel: "Dot", Err: fmt.Errorf("inputs must be rank 1, got %v and %v", a.Shape, b.Shape)})
	}
	m := MatMul(Reshape(a, 1, a.Shape[0]), Reshape(b, b.Shape[0], 1), false, false)
	return Reshape(m)
}

func init() {
	core.RegisterWatchedGradient("BatchMatMul", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs, watched []bool) []*tensor.Tensor {
		dy := dys[0]
		a, b := inputs[0], inputs[1]
		tA := attrs.Bool("transposeA", false)
		tB := attrs.Bool("transposeB", false)
		// One product per operand, skipped when the tape does not watch it
		// (the first dense layer's input is the data batch). sumToShape
		// reverses batch broadcasting if the operand had batch 1.
		grads := make([]*tensor.Tensor, 2)
		if watched[0] {
			var da *tensor.Tensor
			switch {
			case !tA && !tB:
				da = BatchMatMul(dy, b, false, true)
			case !tA && tB:
				da = BatchMatMul(dy, b, false, false)
			case tA && !tB:
				da = BatchMatMul(b, dy, false, true)
			default: // tA && tB
				da = BatchMatMul(b, dy, true, true)
			}
			grads[0] = sumToShape(e, da, a.Shape)
		}
		if watched[1] {
			var db *tensor.Tensor
			switch {
			case !tA && !tB:
				db = BatchMatMul(a, dy, true, false)
			case !tA && tB:
				db = BatchMatMul(dy, a, true, false)
			case tA && !tB:
				db = BatchMatMul(a, dy, false, false)
			default: // tA && tB
				db = BatchMatMul(dy, a, true, true)
			}
			grads[1] = sumToShape(e, db, b.Shape)
		}
		return grads
	})
}
