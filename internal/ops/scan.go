package ops

import (
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// CumSum computes the cumulative sum along axis. exclusive shifts the
// window so each output excludes its own element; reverse accumulates from
// the end.
func CumSum(t *tensor.Tensor, axis int, exclusive, reverse bool) *tensor.Tensor {
	return run1("CumSum", []*tensor.Tensor{t}, kernels.Attrs{Axis: axis, Exclusive: exclusive, Reverse: reverse})
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
	// the cumulative sum of dy along the same axis in the opposite
	// direction.
	core.RegisterGradient("CumSum", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		attrs.Reverse = !attrs.Reverse
		return []*tensor.Tensor{e.RunKernel("CumSum", []*tensor.Tensor{dys[0]}, attrs)}
	})
	core.RegisterGradient("Expm1", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		return []*tensor.Tensor{Mul(dys[0], Exp(inputs[0]))}
	})
	core.RegisterGradient("Tan", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		c := Cos(inputs[0])
		return []*tensor.Tensor{Div(dys[0], Mul(c, c))}
	})
}
