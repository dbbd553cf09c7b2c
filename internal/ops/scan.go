package ops

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// CumSum computes the cumulative sum along axis. exclusive shifts the
// window so each output excludes its own element; reverse accumulates from
// the end.
func CumSum(t *tensor.Tensor, axis int, exclusive, reverse bool) *tensor.Tensor {
	rank := t.Rank()
	if axis < 0 {
		axis += rank
	}
	if axis < 0 || axis >= rank {
		panic(&core.OpError{Kernel: "CumSum", Err: fmt.Errorf("axis out of range for rank %d", rank)})
	}
	work := t
	var perm []int
	if axis != rank-1 {
		// Move the scan axis innermost; the kernel scans the inner dim.
		perm = make([]int, 0, rank)
		for i := 0; i < rank; i++ {
			if i != axis {
				perm = append(perm, i)
			}
		}
		perm = append(perm, axis)
		work = Transpose(t, perm...)
	}
	inner := work.Shape[work.Rank()-1]
	outer := work.Size() / inner
	flat := Reshape(work, outer, inner)
	scanned := run1("CumSum", []*tensor.Tensor{flat}, kernels.Attrs{"exclusive": exclusive, "reverse": reverse})
	res := Reshape(scanned, work.Shape...)
	if perm == nil {
		return res
	}
	inverse := make([]int, rank)
	for i, p := range perm {
		inverse[p] = i
	}
	return Transpose(res, inverse...)
}

// Mod computes the element-wise floored modulus.
func Atan2(a, b *tensor.Tensor) *tensor.Tensor { return binary("Atan2", a, b) }

// Expm1 computes e^x - 1 element-wise with small-x accuracy.
func Expm1(t *tensor.Tensor) *tensor.Tensor { return unary("Expm1", t) }

// Tan computes tan(x) element-wise.
func Tan(t *tensor.Tensor) *tensor.Tensor { return unary("Tan", t) }

func init() {
	// d cumsum(x) / dx: each input element contributes to all outputs at
	// or after it (or strictly after, if exclusive), so the gradient is
	// the cumulative sum of dy in the opposite direction.
	core.RegisterGradient("CumSum", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		exclusive := attrs.Bool("exclusive", false)
		reverse := attrs.Bool("reverse", false)
		g := e.RunKernel("CumSum", []*tensor.Tensor{dys[0]},
			kernels.Attrs{"exclusive": exclusive, "reverse": !reverse})
		return []*tensor.Tensor{g}
	})
	core.RegisterGradient("Expm1", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		return []*tensor.Tensor{Mul(dys[0], Exp(inputs[0]))}
	})
	core.RegisterGradient("Tan", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		c := Cos(inputs[0])
		return []*tensor.Tensor{Div(dys[0], Mul(c, c))}
	})
}
