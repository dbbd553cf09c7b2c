package ops

import (
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

func unary(name string, t *tensor.Tensor) *tensor.Tensor {
	return run1(name, []*tensor.Tensor{t}, kernels.Attrs{})
}

// Neg returns -t.
func Neg(t *tensor.Tensor) *tensor.Tensor { return unary("Neg", t) }

// Abs returns |t|.
func Abs(t *tensor.Tensor) *tensor.Tensor { return unary("Abs", t) }

// Exp returns e^t element-wise.
func Exp(t *tensor.Tensor) *tensor.Tensor { return unary("Exp", t) }

// Log returns the natural logarithm element-wise.
func Log(t *tensor.Tensor) *tensor.Tensor { return unary("Log", t) }

// Log1p returns log(1+t) element-wise.
func Log1p(t *tensor.Tensor) *tensor.Tensor { return unary("Log1p", t) }

// Sqrt returns the square root element-wise.
func Sqrt(t *tensor.Tensor) *tensor.Tensor { return unary("Sqrt", t) }

// Rsqrt returns 1/sqrt(t) element-wise.
func Rsqrt(t *tensor.Tensor) *tensor.Tensor { return unary("Rsqrt", t) }

// Square returns t² element-wise.
func Square(t *tensor.Tensor) *tensor.Tensor { return unary("Square", t) }

// Reciprocal returns 1/t element-wise.
func Reciprocal(t *tensor.Tensor) *tensor.Tensor { return unary("Reciprocal", t) }

// Floor rounds down element-wise.
func Floor(t *tensor.Tensor) *tensor.Tensor { return unary("Floor", t) }

// Ceil rounds up element-wise.
func Ceil(t *tensor.Tensor) *tensor.Tensor { return unary("Ceil", t) }

// Round rounds to even element-wise.
func Round(t *tensor.Tensor) *tensor.Tensor { return unary("Round", t) }

// Sign returns -1, 0 or 1 element-wise.
func Sign(t *tensor.Tensor) *tensor.Tensor { return unary("Sign", t) }

// Sin returns sin(t) element-wise.
func Sin(t *tensor.Tensor) *tensor.Tensor { return unary("Sin", t) }

// Cos returns cos(t) element-wise.
func Cos(t *tensor.Tensor) *tensor.Tensor { return unary("Cos", t) }

// Tanh returns tanh(t) element-wise.
func Tanh(t *tensor.Tensor) *tensor.Tensor { return unary("Tanh", t) }

// Sigmoid returns 1/(1+e^-t) element-wise.
func Sigmoid(t *tensor.Tensor) *tensor.Tensor { return unary("Sigmoid", t) }

// Softplus returns log(1+e^t) element-wise.
func Softplus(t *tensor.Tensor) *tensor.Tensor { return unary("Softplus", t) }

// Relu returns max(t, 0) element-wise.
func Relu(t *tensor.Tensor) *tensor.Tensor { return unary("Relu", t) }

// Relu6 returns min(max(t, 0), 6) element-wise — the activation used
// throughout MobileNet.
func Relu6(t *tensor.Tensor) *tensor.Tensor { return unary("Relu6", t) }

// Elu returns the exponential linear unit element-wise.
func Elu(t *tensor.Tensor) *tensor.Tensor { return unary("Elu", t) }

// LeakyRelu returns x for x>=0 and alpha*x otherwise.
func LeakyRelu(t *tensor.Tensor, alpha float64) *tensor.Tensor {
	return run1("LeakyRelu", []*tensor.Tensor{t}, kernels.Attrs{Alpha: alpha})
}

// ClipByValue clamps t into [lo, hi].
func ClipByValue(t *tensor.Tensor, lo, hi float64) *tensor.Tensor {
	return run1("ClipByValue", []*tensor.Tensor{t}, kernels.Attrs{ClipMin: lo, ClipMax: hi})
}

// Step returns 1 where t > 0, alpha elsewhere.
func Step(t *tensor.Tensor, alpha float64) *tensor.Tensor {
	return run1("Step", []*tensor.Tensor{t}, kernels.Attrs{Alpha: alpha})
}

// IsNaN returns a bool tensor marking NaN elements.
func IsNaN(t *tensor.Tensor) *tensor.Tensor { return unary("IsNaN", t) }

// LogicalNot inverts a bool tensor.
func LogicalNot(t *tensor.Tensor) *tensor.Tensor { return unary("LogicalNot", t) }

func init() {
	g1 := func(fn func(e *core.Engine, dy *tensor.Tensor, x, y *tensor.Tensor) *tensor.Tensor) core.GradFunc {
		return func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
			return []*tensor.Tensor{fn(e, dys[0], inputs[0], outputs[0])}
		}
	}
	core.RegisterGradient("Neg", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		return Neg(dy)
	}))
	core.RegisterGradient("Abs", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		return Mul(dy, Sign(x))
	}))
	core.RegisterGradient("Exp", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		return Mul(dy, y)
	}))
	core.RegisterGradient("Log", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		return Div(dy, x)
	}))
	core.RegisterGradient("Log1p", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		return Div(dy, AddScalar(x, 1))
	}))
	core.RegisterGradient("Sqrt", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		return Div(dy, MulScalar(y, 2))
	}))
	core.RegisterGradient("Rsqrt", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		// d/dx x^-1/2 = -1/2 x^-3/2 = -y³/2.
		return Mul(dy, MulScalar(Mul(Mul(y, y), y), -0.5))
	}))
	core.RegisterGradient("Square", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		return Mul(dy, MulScalar(x, 2))
	}))
	core.RegisterGradient("Reciprocal", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		return Neg(Div(dy, Mul(x, x)))
	}))
	core.RegisterGradient("Sin", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		return Mul(dy, Cos(x))
	}))
	core.RegisterGradient("Cos", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		return Neg(Mul(dy, Sin(x)))
	}))
	core.RegisterGradient("Tanh", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		return Mul(dy, Sub(OnesLike(y), Mul(y, y)))
	}))
	core.RegisterGradient("Sigmoid", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		return Mul(dy, Mul(y, Sub(OnesLike(y), y)))
	}))
	core.RegisterGradient("Softplus", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		return Mul(dy, Sigmoid(x))
	}))
	core.RegisterGradient("Relu", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		return Mul(dy, Step(x, 0))
	}))
	core.RegisterGradient("Relu6", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		inRange := LogicalAnd(Greater(x, ZerosLike(x)), Less(x, Fill(x.Shape, 6)))
		return Mul(dy, Cast(inRange, tensor.Float32))
	}))
	core.RegisterGradient("Elu", g1(func(e *core.Engine, dy, x, y *tensor.Tensor) *tensor.Tensor {
		pos := Step(x, 0)
		neg := Mul(Sub(OnesLike(pos), pos), AddScalar(y, 1)) // e^x = y+1 for x<0
		return Mul(dy, Add(pos, neg))
	}))
	core.RegisterGradient("LeakyRelu", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		return []*tensor.Tensor{Mul(dys[0], Step(inputs[0], attrs.Alpha))}
	})
	core.RegisterGradient("ClipByValue", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		lo, hi, x := attrs.ClipMin, attrs.ClipMax, inputs[0]
		inRange := LogicalAnd(GreaterEqual(x, Fill(x.Shape, float32(lo))), LessEqual(x, Fill(x.Shape, float32(hi))))
		return []*tensor.Tensor{Mul(dys[0], Cast(inRange, tensor.Float32))}
	})
}
