package kernels

import (
	"math"

	"repro/internal/tensor"
)

// unaryKernel builds an element-wise unary reference kernel. If dtype is
// non-nil it overrides the output dtype.
func unaryKernel(name string, f func(x float32) float32, dtype *tensor.DataType) RefKernel {
	return func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs(name, inputs, 1); err != nil {
			return Buffer{}, err
		}
		in := inputs[0]
		dt := in.DType
		if dtype != nil {
			dt = *dtype
		}
		out := NewBuffer(in.Shape, dt)
		for i, v := range in.Data {
			out.Data[i] = f(v)
		}
		return out, nil
	}
}

func init() {
	boolT := tensor.Bool

	RegisterRef("Neg", unaryKernel("Neg", func(x float32) float32 { return -x }, nil))
	RegisterRef("Abs", unaryKernel("Abs", func(x float32) float32 {
		if x < 0 {
			return -x
		}
		return x
	}, nil))
	RegisterRef("Exp", unaryKernel("Exp", func(x float32) float32 { return float32(math.Exp(float64(x))) }, nil))
	RegisterRef("Expm1", unaryKernel("Expm1", func(x float32) float32 { return float32(math.Expm1(float64(x))) }, nil))
	RegisterRef("Log", unaryKernel("Log", func(x float32) float32 { return float32(math.Log(float64(x))) }, nil))
	RegisterRef("Log1p", unaryKernel("Log1p", func(x float32) float32 { return float32(math.Log1p(float64(x))) }, nil))
	RegisterRef("Sqrt", unaryKernel("Sqrt", func(x float32) float32 { return float32(math.Sqrt(float64(x))) }, nil))
	RegisterRef("Rsqrt", unaryKernel("Rsqrt", func(x float32) float32 { return float32(1 / math.Sqrt(float64(x))) }, nil))
	RegisterRef("Square", unaryKernel("Square", func(x float32) float32 { return x * x }, nil))
	RegisterRef("Reciprocal", unaryKernel("Reciprocal", func(x float32) float32 { return 1 / x }, nil))
	RegisterRef("Floor", unaryKernel("Floor", func(x float32) float32 { return float32(math.Floor(float64(x))) }, nil))
	RegisterRef("Ceil", unaryKernel("Ceil", func(x float32) float32 { return float32(math.Ceil(float64(x))) }, nil))
	RegisterRef("Round", unaryKernel("Round", func(x float32) float32 { return float32(math.RoundToEven(float64(x))) }, nil))
	RegisterRef("Sign", unaryKernel("Sign", func(x float32) float32 {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		default:
			return 0
		}
	}, nil))
	RegisterRef("Sin", unaryKernel("Sin", func(x float32) float32 { return float32(math.Sin(float64(x))) }, nil))
	RegisterRef("Cos", unaryKernel("Cos", func(x float32) float32 { return float32(math.Cos(float64(x))) }, nil))
	RegisterRef("Tan", unaryKernel("Tan", func(x float32) float32 { return float32(math.Tan(float64(x))) }, nil))
	RegisterRef("Tanh", unaryKernel("Tanh", func(x float32) float32 { return float32(math.Tanh(float64(x))) }, nil))
	RegisterRef("Sigmoid", unaryKernel("Sigmoid", func(x float32) float32 {
		return float32(1 / (1 + math.Exp(-float64(x))))
	}, nil))
	RegisterRef("Softplus", unaryKernel("Softplus", func(x float32) float32 {
		return float32(math.Log1p(math.Exp(float64(x))))
	}, nil))
	RegisterRef("Relu", unaryKernel("Relu", func(x float32) float32 {
		if x > 0 {
			return x
		}
		return 0
	}, nil))
	RegisterRef("Relu6", unaryKernel("Relu6", func(x float32) float32 {
		if x < 0 {
			return 0
		}
		if x > 6 {
			return 6
		}
		return x
	}, nil))
	RegisterRef("Elu", unaryKernel("Elu", func(x float32) float32 {
		if x >= 0 {
			return x
		}
		return float32(math.Expm1(float64(x)))
	}, nil))
	RegisterRef("IsNaN", unaryKernel("IsNaN", func(x float32) float32 {
		return toBool(math.IsNaN(float64(x)))
	}, &boolT))
	RegisterRef("IsInf", unaryKernel("IsInf", func(x float32) float32 {
		return toBool(math.IsInf(float64(x), 0))
	}, &boolT))
	RegisterRef("LogicalNot", unaryKernel("LogicalNot", func(x float32) float32 { return toBool(x == 0) }, &boolT))

	// LeakyRelu takes its negative slope as an attribute.
	RegisterRef("LeakyRelu", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("LeakyRelu", inputs, 1); err != nil {
			return Buffer{}, err
		}
		alpha := float32(attrs.Float("alpha", 0.2))
		in := inputs[0]
		out := NewBuffer(in.Shape, in.DType)
		for i, v := range in.Data {
			if v >= 0 {
				out.Data[i] = v
			} else {
				out.Data[i] = alpha * v
			}
		}
		return out, nil
	})

	// ClipByValue takes min/max as attributes.
	RegisterRef("ClipByValue", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("ClipByValue", inputs, 1); err != nil {
			return Buffer{}, err
		}
		lo := float32(attrs.Float("clipValueMin", math.Inf(-1)))
		hi := float32(attrs.Float("clipValueMax", math.Inf(1)))
		if lo > hi {
			return Buffer{}, errIn("ClipByValue", "clipValueMin %g > clipValueMax %g", lo, hi)
		}
		in := inputs[0]
		out := NewBuffer(in.Shape, in.DType)
		for i, v := range in.Data {
			switch {
			case v < lo:
				out.Data[i] = lo
			case v > hi:
				out.Data[i] = hi
			default:
				out.Data[i] = v
			}
		}
		return out, nil
	})

	// Step(x) = 0 if x <= 0 else 1, used by Abs/Relu gradients.
	RegisterRef("Step", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("Step", inputs, 1); err != nil {
			return Buffer{}, err
		}
		alpha := float32(attrs.Float("alpha", 0))
		in := inputs[0]
		out := NewBuffer(in.Shape, in.DType)
		for i, v := range in.Data {
			switch {
			case math.IsNaN(float64(v)):
				out.Data[i] = v
			case v > 0:
				out.Data[i] = 1
			default:
				out.Data[i] = alpha
			}
		}
		return out, nil
	})

	// Prelu is binary (x, alpha) but element-wise with broadcasting.
	RegisterRef("Prelu", binaryKernel("Prelu", func(x, alpha float32) float32 {
		if x >= 0 {
			return x
		}
		return alpha * x
	}, nil))
}
