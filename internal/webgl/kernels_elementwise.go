package webgl

import (
	"fmt"
	"math"

	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// registerElementwise installs the element-wise binary and unary shader
// programs. The binary programs come in two forms: a channel-suffix path
// for operands whose shape is the output's trailing dimensions (the
// output's own shape, a bias or batch-norm vector, a scalar), which walks
// each operand with a wrapping counter, and a broadcast path that routes
// through the compiler-generated samplers.
func (b *Backend) registerElementwise() {
	type binOp struct {
		name  string
		f     func(a, x float32) float32
		boolO bool
	}
	binOps := []binOp{
		{"Add", func(a, x float32) float32 { return a + x }, false},
		{"Sub", func(a, x float32) float32 { return a - x }, false},
		{"Mul", func(a, x float32) float32 { return a * x }, false},
		{"RealDiv", func(a, x float32) float32 { return a / x }, false},
		{"Maximum", func(a, x float32) float32 {
			if a > x {
				return a
			}
			return x
		}, false},
		{"Minimum", func(a, x float32) float32 {
			if a < x {
				return a
			}
			return x
		}, false},
		{"Pow", func(a, x float32) float32 { return float32(math.Pow(float64(a), float64(x))) }, false},
		{"SquaredDifference", func(a, x float32) float32 { d := a - x; return d * d }, false},
		{"Greater", func(a, x float32) float32 { return b2f(a > x) }, true},
		{"GreaterEqual", func(a, x float32) float32 { return b2f(a >= x) }, true},
		{"Less", func(a, x float32) float32 { return b2f(a < x) }, true},
		{"LessEqual", func(a, x float32) float32 { return b2f(a <= x) }, true},
		{"Equal", func(a, x float32) float32 { return b2f(a == x) }, true},
		{"NotEqual", func(a, x float32) float32 { return b2f(a != x) }, true},
		{"LogicalAnd", func(a, x float32) float32 { return b2f(a != 0 && x != 0) }, true},
		{"LogicalOr", func(a, x float32) float32 { return b2f(a != 0 || x != 0) }, true},
		{"Prelu", func(a, x float32) float32 {
			if a >= 0 {
				return a
			}
			return x * a
		}, false},
	}
	for _, op := range binOps {
		op := op
		b.register(op.name, func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
			return b.binaryProgram(op.name, inputs, op.f, op.boolO, res)
		})
	}

	type unOp struct {
		name string
		f    func(x float32) float32
	}
	unOps := []unOp{
		{"Neg", func(x float32) float32 { return -x }},
		{"Abs", func(x float32) float32 { return float32(math.Abs(float64(x))) }},
		{"Exp", func(x float32) float32 { return float32(math.Exp(float64(x))) }},
		{"Expm1", func(x float32) float32 { return float32(math.Expm1(float64(x))) }},
		{"Log", func(x float32) float32 { return float32(math.Log(float64(x))) }},
		{"Log1p", func(x float32) float32 { return float32(math.Log1p(float64(x))) }},
		{"Sqrt", func(x float32) float32 { return float32(math.Sqrt(float64(x))) }},
		{"Rsqrt", func(x float32) float32 { return float32(1 / math.Sqrt(float64(x))) }},
		{"Square", func(x float32) float32 { return x * x }},
		{"Reciprocal", func(x float32) float32 { return 1 / x }},
		{"Floor", func(x float32) float32 { return float32(math.Floor(float64(x))) }},
		{"Ceil", func(x float32) float32 { return float32(math.Ceil(float64(x))) }},
		{"Round", func(x float32) float32 { return float32(math.RoundToEven(float64(x))) }},
		{"Sign", func(x float32) float32 {
			switch {
			case x > 0:
				return 1
			case x < 0:
				return -1
			default:
				return 0
			}
		}},
		{"Sin", func(x float32) float32 { return float32(math.Sin(float64(x))) }},
		{"Cos", func(x float32) float32 { return float32(math.Cos(float64(x))) }},
		{"Tan", func(x float32) float32 { return float32(math.Tan(float64(x))) }},
		{"Tanh", func(x float32) float32 { return float32(math.Tanh(float64(x))) }},
		{"Sigmoid", func(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }},
		{"Softplus", func(x float32) float32 { return float32(math.Log1p(math.Exp(float64(x)))) }},
		{"Relu", func(x float32) float32 {
			if x > 0 {
				return x
			}
			return 0
		}},
		{"Relu6", func(x float32) float32 {
			if x < 0 {
				return 0
			}
			if x > 6 {
				return 6
			}
			return x
		}},
		{"Elu", func(x float32) float32 {
			if x >= 0 {
				return x
			}
			return float32(math.Expm1(float64(x)))
		}},
	}
	for _, op := range unOps {
		op := op
		b.register(op.name, func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
			return b.unaryProgram(op.name, inputs, op.f, res)
		})
	}

	// Attribute-parameterized unary programs.
	b.register("ClipByValue", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		lo := float32(attrs.Float("clipValueMin", math.Inf(-1)))
		hi := float32(attrs.Float("clipValueMax", math.Inf(1)))
		return b.unaryProgram("ClipByValue", inputs, func(x float32) float32 {
			if x < lo {
				return lo
			}
			if x > hi {
				return hi
			}
			return x
		}, res)
	})
	b.register("LeakyRelu", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		alpha := float32(attrs.Float("alpha", 0.2))
		return b.unaryProgram("LeakyRelu", inputs, func(x float32) float32 {
			if x >= 0 {
				return x
			}
			return alpha * x
		}, res)
	})
	b.register("Step", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		alpha := float32(attrs.Float("alpha", 0))
		return b.unaryProgram("Step", inputs, func(x float32) float32 {
			switch {
			case math.IsNaN(float64(x)):
				return x
			case x > 0:
				return 1
			default:
				return alpha
			}
		}, res)
	})

	// Fill is a zero-input program: every texel computes the constant.
	b.register("Fill", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		shape := attrs.Ints("shape", nil)
		value := float32(attrs.Float("value", 0))
		dt, err := tensor.ParseDataType(attrs.String("dtype", "float32"))
		if err != nil {
			return err
		}
		out, err := b.output(shape, dt, res)
		if err != nil {
			return err
		}
		b.runFlat("Fill", out, glsim.Work{}, func(int) float32 { return value })
		return nil
	})

	// Select: three-input broadcast program.
	b.register("Select", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 3 {
			return errf("Select: got %d inputs, want 3", len(inputs))
		}
		_, condTex := b.input(inputs[0])
		_, tTex := b.input(inputs[1])
		_, fTex := b.input(inputs[2])
		outShape, err := tensor.BroadcastShapes(inputs[1].Shape, inputs[2].Shape)
		if err != nil {
			return err
		}
		outShape, err = tensor.BroadcastShapes(outShape, inputs[0].Shape)
		if err != nil {
			return err
		}
		out, err := b.output(outShape, inputs[1].DType, res)
		if err != nil {
			return err
		}
		maps := b.broadcastSamplers(outShape, [][]int{inputs[0].Shape, inputs[1].Shape, inputs[2].Shape})
		// The condition and the chosen branch are fetched; one compare.
		work := perValue(out.size, 2, 1+aluTerm*b.termCount(outShape, inputs[0].Shape, inputs[1].Shape, inputs[2].Shape))
		b.runFlat("Select", out, work, func(i int) float32 {
			if condTex.FetchFlat(maps[0](i)) != 0 {
				return tTex.FetchFlat(maps[1](i))
			}
			return fTex.FetchFlat(maps[2](i))
		})
		return nil
	})

	// FusedBatchNorm: five-input broadcast program (x, mean, variance,
	// offset, scale).
	b.register("FusedBatchNorm", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 5 {
			return errf("FusedBatchNorm: got %d inputs, want 5", len(inputs))
		}
		eps := float32(attrs.Float("varianceEpsilon", 1e-3))
		texes := make([]*glsim.Texture, 5)
		shapes := make([][]int, 5)
		for i := range inputs {
			_, texes[i] = b.input(inputs[i])
			shapes[i] = inputs[i].Shape
		}
		out, err := b.output(inputs[0].Shape, tensor.Float32, res)
		if err != nil {
			return err
		}
		// Five fetches; subtract, add ε, rsqrt, multiply, scale, offset;
		// x is read at the output's own index, the four parameters
		// through their samplers.
		work := perValue(out.size, 5, 6+aluTerm*b.termCount(inputs[0].Shape, shapes[1:]...))
		x, mean, variance, offset, scale := texes[0], texes[1], texes[2], texes[3], texes[4]
		if periods, ok := suffixPeriods(inputs[0].Shape, shapes[1:]...); ok {
			b.run("FusedBatchNorm", out, work, func(lo, hi int, dst []float32) {
				xs := x.Floats()[lo:hi]
				ms, vs, os, ss := mean.Floats(), variance.Floats(), offset.Floats(), scale.Floats()
				im, iv, io, is := lo%periods[0], lo%periods[1], lo%periods[2], lo%periods[3]
				for j, xv := range xs {
					dst[j] = batchNorm(xv, ms[im], vs[iv], os[io], ss[is], eps)
					im, iv, io, is = next(im, periods[0]), next(iv, periods[1]), next(io, periods[2]), next(is, periods[3])
				}
			})
			return nil
		}
		maps := b.broadcastSamplers(inputs[0].Shape, shapes)
		b.runFlat("FusedBatchNorm", out, work, func(i int) float32 {
			return batchNorm(x.FetchFlat(i), mean.FetchFlat(maps[1](i)), variance.FetchFlat(maps[2](i)),
				offset.FetchFlat(maps[3](i)), scale.FetchFlat(maps[4](i)), eps)
		})
		return nil
	})
}

// batchNorm is FusedBatchNorm's value: (x − mean)/√(variance + ε) · scale +
// offset, each step rounded to float32.
func batchNorm(x, mean, variance, offset, scale, eps float32) float32 {
	return (x-mean)/float32(math.Sqrt(float64(variance+eps)))*scale + offset
}

func b2f(c bool) float32 {
	if c {
		return 1
	}
	return 0
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// suffixPeriods reports whether every operand shape, leading 1s dropped, is
// the trailing dimensions of outShape — BatchNorm's [C] vectors, a bias [C]
// onto [..., C], a scalar, the output's own shape — and returns each
// operand's element count. Such an operand repeats with that period along
// the output's flat order, so a program reads it at flat%period and needs
// no compiled sampler. An empty output has no suffix path: nothing runs.
func suffixPeriods(outShape []int, inShapes ...[]int) ([]int, bool) {
	if tensor.ShapeSize(outShape) == 0 {
		return nil, false
	}
	periods := make([]int, len(inShapes))
	for k, shape := range inShapes {
		for len(shape) > 0 && shape[0] == 1 {
			shape = shape[1:]
		}
		if len(shape) > len(outShape) || !tensor.ShapesEqual(shape, outShape[len(outShape)-len(shape):]) {
			return nil, false
		}
		periods[k] = tensor.ShapeSize(shape)
	}
	return periods, true
}

// next advances a suffix operand's index, wrapping at its period.
func next(i, period int) int {
	if i++; i == period {
		return 0
	}
	return i
}

// binaryProgram assembles an element-wise binary shader: out = f(a, x),
// operands in that order whichever of them broadcasts.
func (b *Backend) binaryProgram(name string, inputs []kernels.Input, f func(a, x float32) float32, boolOut bool, res *kernels.TensorInfo) error {
	if len(inputs) != 2 {
		return errf("%s: got %d inputs, want 2", name, len(inputs))
	}
	_, aTex := b.input(inputs[0])
	_, xTex := b.input(inputs[1])
	outShape, err := tensor.BroadcastShapes(inputs[0].Shape, inputs[1].Shape)
	if err != nil {
		return err
	}
	dt := inputs[0].DType
	if boolOut {
		dt = tensor.Bool
	}
	out, err := b.output(outShape, dt, res)
	if err != nil {
		return err
	}
	// Two fetches and the operation; operands of the output's own shape
	// are read at its flat index, anything else through sampler terms.
	work := perValue(out.size, 2, 1)
	if !sameShape(outShape, [][]int{inputs[0].Shape, inputs[1].Shape}) {
		work.ALU += int64(out.size) * int64(aluTerm*b.termCount(outShape, inputs[0].Shape, inputs[1].Shape))
	}
	if periods, ok := suffixPeriods(outShape, inputs[0].Shape, inputs[1].Shape); ok {
		b.run(name, out, work, func(lo, hi int, dst []float32) {
			as, xs := aTex.Floats(), xTex.Floats()
			ia, ix := lo%periods[0], lo%periods[1]
			for j := range dst {
				dst[j] = f(as[ia], xs[ix])
				ia, ix = next(ia, periods[0]), next(ix, periods[1])
			}
		})
		return nil
	}
	maps := b.broadcastSamplers(outShape, [][]int{inputs[0].Shape, inputs[1].Shape})
	b.runFlat(name, out, work, func(i int) float32 {
		return f(aTex.FetchFlat(maps[0](i)), xTex.FetchFlat(maps[1](i)))
	})
	return nil
}

// unaryProgram assembles an element-wise unary shader.
func (b *Backend) unaryProgram(name string, inputs []kernels.Input, f func(x float32) float32, res *kernels.TensorInfo) error {
	if len(inputs) != 1 {
		return errf("%s: got %d inputs, want 1", name, len(inputs))
	}
	_, xTex := b.input(inputs[0])
	out, err := b.output(inputs[0].Shape, inputs[0].DType, res)
	if err != nil {
		return err
	}
	b.run(name, out, perValue(out.size, 1, 1), func(lo, hi int, dst []float32) {
		for j, v := range xTex.Floats()[lo:hi] {
			dst[j] = f(v)
		}
	})
	return nil
}
