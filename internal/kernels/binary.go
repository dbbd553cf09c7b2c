package kernels

import (
	"math"

	"repro/internal/tensor"
)

// binaryKernel builds a broadcasting element-wise binary reference kernel.
// outDType selects the result dtype; nil keeps the first input's dtype.
func binaryKernel(name string, f func(a, b float32) float32, outDType func(a, b tensor.DataType) tensor.DataType) RefKernel {
	return func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs(name, inputs, 2); err != nil {
			return Buffer{}, err
		}
		a, b := inputs[0], inputs[1]
		outShape, err := tensor.BroadcastShapes(a.Shape, b.Shape)
		if err != nil {
			return Buffer{}, errIn(name, "%v", err)
		}
		dtype := a.DType
		if outDType != nil {
			dtype = outDType(a.DType, b.DType)
		}
		out := NewBuffer(outShape, dtype)
		if tensor.ShapesEqual(a.Shape, b.Shape) {
			// Fast path: no broadcasting.
			for i := range out.Data {
				out.Data[i] = f(a.Data[i], b.Data[i])
			}
			return out, nil
		}
		as := broadcastStrides(a.Shape, outShape)
		bs := broadcastStrides(b.Shape, outShape)
		odometer(outShape, as, bs, func(oi, ai, bi int) {
			out.Data[oi] = f(a.Data[ai], b.Data[bi])
		})
		return out, nil
	}
}

func boolDType(tensor.DataType, tensor.DataType) tensor.DataType { return tensor.Bool }

func toBool(cond bool) float32 {
	if cond {
		return 1
	}
	return 0
}

func init() {
	RegisterRef("Add", binaryKernel("Add", func(a, b float32) float32 { return a + b }, nil))
	RegisterRef("Sub", binaryKernel("Sub", func(a, b float32) float32 { return a - b }, nil))
	RegisterRef("Mul", binaryKernel("Mul", func(a, b float32) float32 { return a * b }, nil))
	RegisterRef("RealDiv", binaryKernel("RealDiv", func(a, b float32) float32 { return a / b }, nil))
	RegisterRef("FloorDiv", binaryKernel("FloorDiv", func(a, b float32) float32 {
		return float32(math.Floor(float64(a) / float64(b)))
	}, nil))
	RegisterRef("Mod", binaryKernel("Mod", func(a, b float32) float32 {
		m := float32(math.Mod(float64(a), float64(b)))
		if m != 0 && (m < 0) != (b < 0) {
			m += b
		}
		return m
	}, nil))
	RegisterRef("Maximum", binaryKernel("Maximum", func(a, b float32) float32 {
		if a > b {
			return a
		}
		return b
	}, nil))
	RegisterRef("Minimum", binaryKernel("Minimum", func(a, b float32) float32 {
		if a < b {
			return a
		}
		return b
	}, nil))
	RegisterRef("Pow", binaryKernel("Pow", func(a, b float32) float32 {
		return float32(math.Pow(float64(a), float64(b)))
	}, nil))
	RegisterRef("SquaredDifference", binaryKernel("SquaredDifference", func(a, b float32) float32 {
		d := a - b
		return d * d
	}, nil))
	RegisterRef("Atan2", binaryKernel("Atan2", func(a, b float32) float32 {
		return float32(math.Atan2(float64(a), float64(b)))
	}, nil))

	RegisterRef("Greater", binaryKernel("Greater", func(a, b float32) float32 { return toBool(a > b) }, boolDType))
	RegisterRef("GreaterEqual", binaryKernel("GreaterEqual", func(a, b float32) float32 { return toBool(a >= b) }, boolDType))
	RegisterRef("Less", binaryKernel("Less", func(a, b float32) float32 { return toBool(a < b) }, boolDType))
	RegisterRef("LessEqual", binaryKernel("LessEqual", func(a, b float32) float32 { return toBool(a <= b) }, boolDType))
	RegisterRef("Equal", binaryKernel("Equal", func(a, b float32) float32 { return toBool(a == b) }, boolDType))
	RegisterRef("NotEqual", binaryKernel("NotEqual", func(a, b float32) float32 { return toBool(a != b) }, boolDType))
	RegisterRef("LogicalAnd", binaryKernel("LogicalAnd", func(a, b float32) float32 { return toBool(a != 0 && b != 0) }, boolDType))
	RegisterRef("LogicalOr", binaryKernel("LogicalOr", func(a, b float32) float32 { return toBool(a != 0 || b != 0) }, boolDType))
}
