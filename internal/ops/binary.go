package ops

import (
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

func binary(name string, a, b *tensor.Tensor) *tensor.Tensor {
	return run1(name, []*tensor.Tensor{a, b}, kernels.Attrs{})
}

// Add returns a + b with broadcasting.
func Add(a, b *tensor.Tensor) *tensor.Tensor { return binary("Add", a, b) }

// Sub returns a - b with broadcasting.
func Sub(a, b *tensor.Tensor) *tensor.Tensor { return binary("Sub", a, b) }

// Mul returns a * b element-wise with broadcasting.
func Mul(a, b *tensor.Tensor) *tensor.Tensor { return binary("Mul", a, b) }

// Div returns a / b element-wise with broadcasting.
func Div(a, b *tensor.Tensor) *tensor.Tensor { return binary("RealDiv", a, b) }

// Mod returns the element-wise floored modulus.
func Mod(a, b *tensor.Tensor) *tensor.Tensor { return binary("Mod", a, b) }

// Maximum returns the element-wise maximum.
func Maximum(a, b *tensor.Tensor) *tensor.Tensor { return binary("Maximum", a, b) }

// Minimum returns the element-wise minimum.
func Minimum(a, b *tensor.Tensor) *tensor.Tensor { return binary("Minimum", a, b) }

// Pow returns a ** b element-wise.
func Pow(a, b *tensor.Tensor) *tensor.Tensor { return binary("Pow", a, b) }

// SquaredDifference returns (a-b)² element-wise.
func SquaredDifference(a, b *tensor.Tensor) *tensor.Tensor {
	return binary("SquaredDifference", a, b)
}

// AddScalar returns t + v.
func AddScalar(t *tensor.Tensor, v float32) *tensor.Tensor { return Add(t, Scalar(v)) }

// MulScalar returns t * v.
func MulScalar(t *tensor.Tensor, v float32) *tensor.Tensor { return Mul(t, Scalar(v)) }

// SubScalar returns t - v.
func SubScalar(t *tensor.Tensor, v float32) *tensor.Tensor { return Sub(t, Scalar(v)) }

// DivScalar returns t / v.
func DivScalar(t *tensor.Tensor, v float32) *tensor.Tensor { return Div(t, Scalar(v)) }

// Greater returns a > b element-wise as a bool tensor.
func Greater(a, b *tensor.Tensor) *tensor.Tensor { return binary("Greater", a, b) }

// GreaterEqual returns a >= b element-wise as a bool tensor.
func GreaterEqual(a, b *tensor.Tensor) *tensor.Tensor { return binary("GreaterEqual", a, b) }

// Less returns a < b element-wise as a bool tensor.
func Less(a, b *tensor.Tensor) *tensor.Tensor { return binary("Less", a, b) }

// LessEqual returns a <= b element-wise as a bool tensor.
func LessEqual(a, b *tensor.Tensor) *tensor.Tensor { return binary("LessEqual", a, b) }

// Equal returns a == b element-wise as a bool tensor.
func Equal(a, b *tensor.Tensor) *tensor.Tensor { return binary("Equal", a, b) }

// NotEqual returns a != b element-wise as a bool tensor.
func NotEqual(a, b *tensor.Tensor) *tensor.Tensor { return binary("NotEqual", a, b) }

// LogicalAnd returns a && b element-wise.
func LogicalAnd(a, b *tensor.Tensor) *tensor.Tensor { return binary("LogicalAnd", a, b) }

// LogicalOr returns a || b element-wise.
func LogicalOr(a, b *tensor.Tensor) *tensor.Tensor { return binary("LogicalOr", a, b) }

// Where selects t where cond is true and f elsewhere, with broadcasting.
func Where(cond, t, f *tensor.Tensor) *tensor.Tensor {
	return run1("Select", []*tensor.Tensor{cond, t, f}, kernels.Attrs{})
}

func init() {
	core.RegisterGradient("Add", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		dy := dys[0]
		return []*tensor.Tensor{
			sumToShape(e, dy, inputs[0].Shape),
			sumToShape(e, dy, inputs[1].Shape),
		}
	})
	core.RegisterGradient("Sub", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		dy := dys[0]
		return []*tensor.Tensor{
			sumToShape(e, dy, inputs[0].Shape),
			sumToShape(e, Neg(dy), inputs[1].Shape),
		}
	})
	core.RegisterGradient("Mul", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		dy := dys[0]
		a, b := inputs[0], inputs[1]
		return []*tensor.Tensor{
			sumToShape(e, Mul(dy, b), a.Shape),
			sumToShape(e, Mul(dy, a), b.Shape),
		}
	})
	core.RegisterGradient("RealDiv", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		dy := dys[0]
		a, b := inputs[0], inputs[1]
		da := Div(dy, b)
		db := Neg(Div(Mul(dy, a), Mul(b, b)))
		return []*tensor.Tensor{
			sumToShape(e, da, a.Shape),
			sumToShape(e, db, b.Shape),
		}
	})
	core.RegisterGradient("Maximum", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		dy := dys[0]
		a, b := inputs[0], inputs[1]
		mask := Cast(GreaterEqual(a, b), tensor.Float32)
		da := Mul(dy, mask)
		db := Mul(dy, Sub(OnesLike(mask), mask))
		return []*tensor.Tensor{
			sumToShape(e, da, a.Shape),
			sumToShape(e, db, b.Shape),
		}
	})
	core.RegisterGradient("Minimum", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		dy := dys[0]
		a, b := inputs[0], inputs[1]
		mask := Cast(LessEqual(a, b), tensor.Float32)
		da := Mul(dy, mask)
		db := Mul(dy, Sub(OnesLike(mask), mask))
		return []*tensor.Tensor{
			sumToShape(e, da, a.Shape),
			sumToShape(e, db, b.Shape),
		}
	})
	core.RegisterGradient("Pow", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		dy := dys[0]
		a, b := inputs[0], inputs[1]
		y := outputs[0]
		// d/da a^b = b * a^(b-1); d/db a^b = a^b * ln(a).
		da := Mul(dy, Mul(b, Pow(a, Sub(b, OnesLike(b)))))
		db := Mul(dy, Mul(y, Log(a)))
		return []*tensor.Tensor{
			sumToShape(e, da, a.Shape),
			sumToShape(e, db, b.Shape),
		}
	})
	core.RegisterGradient("SquaredDifference", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		dy := dys[0]
		a, b := inputs[0], inputs[1]
		two := Scalar(2)
		d := Mul(dy, Mul(two, Sub(a, b)))
		return []*tensor.Tensor{
			sumToShape(e, d, a.Shape),
			sumToShape(e, Neg(d), b.Shape),
		}
	})
	core.RegisterGradient("Select", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		dy := dys[0]
		cond := inputs[0]
		mask := Cast(cond, tensor.Float32)
		dt := Mul(dy, mask)
		df := Mul(dy, Sub(OnesLike(mask), mask))
		return []*tensor.Tensor{
			nil,
			sumToShape(e, dt, inputs[1].Shape),
			sumToShape(e, df, inputs[2].Shape),
		}
	})
}
