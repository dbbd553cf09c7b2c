package webgl

import (
	"fmt"
	"math"

	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
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
		{"Elu", func(x float32) float32 {
			if x >= 0 {
				return x
			}
			return float32(math.Expm1(float64(x)))
		}},
	}
	// A unary program's body is a row loop. The ReLU family has branch-free
	// ones in internal/vec (a sign test on activations is a coin flip to the
	// branch predictor); the rest pay an indirect call per element for
	// their math.
	unary := func(name string, row func(dst, x []float32)) {
		b.register(name, func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
			return b.unaryProgram(name, inputs, row, res)
		})
	}
	for _, op := range unOps {
		unary(op.name, perElement(op.f))
	}
	unary("Relu", vec.Relu)
	unary("Relu6", vec.Relu6)

	// Attribute-parameterized unary programs.
	b.register("ClipByValue", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		lo := float32(attrs.Float("clipValueMin", math.Inf(-1)))
		hi := float32(attrs.Float("clipValueMax", math.Inf(1)))
		return b.unaryProgram("ClipByValue", inputs, perElement(func(x float32) float32 {
			if x < lo {
				return lo
			}
			if x > hi {
				return hi
			}
			return x
		}), res)
	})
	b.register("LeakyRelu", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		alpha := float32(attrs.Float("alpha", 0.2))
		return b.unaryProgram("LeakyRelu", inputs, perElement(func(x float32) float32 {
			if x >= 0 {
				return x
			}
			return alpha * x
		}), res)
	})
	b.register("Step", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		alpha := float32(attrs.Float("alpha", 0))
		return b.unaryProgram("Step", inputs, func(dst, x []float32) { vec.Step(dst, x, alpha) }, res)
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
		if c, ok := channelPeriod(inputs[0].Shape, shapes[1:]...); ok {
			b.run("FusedBatchNorm", out, work, func(lo, hi int, dst []float32) {
				xs := x.Floats()
				ms, vs, os, ss := mean.Floats(), variance.Floats(), offset.Floats(), scale.Floats()
				// √(variance+ε) is a channel's, not a value's: it is taken once
				// per channel into sd, bnTile channels at a time, and each pixel
				// the range touches runs its part of the tile as a row — the
				// same five roundings per value, in the same order, as
				// batchNorm. Nothing is kept from one range to the next.
				var sd [bnTile]float32
				for c0 := 0; c0 < c; c0 += bnTile {
					c1 := min(c0+bnTile, c)
					for j, v := range vs[c0:c1] {
						sd[j] = float32(math.Sqrt(float64(v + eps)))
					}
					for pixel := lo - lo%c; pixel < hi; pixel += c {
						from, to := max(lo, pixel+c0), min(hi, pixel+c1)
						if from >= to {
							continue
						}
						ch := from - pixel
						row, m, d, s, o := dst[from-lo:to-lo], ms[ch:], sd[ch-c0:], ss[ch:], os[ch:]
						for j, xv := range xs[from:to] {
							row[j] = float32((xv-m[j])/d[j]*s[j]) + o[j]
						}
					}
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
	return float32((x-mean)/float32(math.Sqrt(float64(variance+eps)))*scale) + offset
}

// bnTile is how many channels' √(variance+ε) the batch-norm program keeps
// on its stack at a time.
const bnTile = 256

// channelPeriod reports whether every operand is a channel-suffix operand
// (suffixPeriods) of one and the same period c — batch norm's four [C]
// vectors against [..., C] — so that the output is rows of c values, each
// row reading the operands at 0…c-1.
func channelPeriod(outShape []int, inShapes ...[]int) (c int, ok bool) {
	periods, ok := suffixPeriods(outShape, inShapes...)
	if !ok {
		return 0, false
	}
	for _, p := range periods {
		if p != periods[0] {
			return 0, false
		}
	}
	return periods[0], true
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

// perElement is the row body of a unary program that computes f per value.
func perElement(f func(x float32) float32) func(dst, x []float32) {
	return func(dst, x []float32) {
		for j, v := range x {
			dst[j] = f(v)
		}
	}
}

// unaryProgram assembles an element-wise unary shader: row maps a range of
// the input's values to the same range of the output's.
func (b *Backend) unaryProgram(name string, inputs []kernels.Input, row func(dst, x []float32), res *kernels.TensorInfo) error {
	if len(inputs) != 1 {
		return errf("%s: got %d inputs, want 1", name, len(inputs))
	}
	_, xTex := b.input(inputs[0])
	out, err := b.output(inputs[0].Shape, inputs[0].DType, res)
	if err != nil {
		return err
	}
	b.run(name, out, perValue(out.size, 1, 1), func(lo, hi int, dst []float32) {
		row(dst, xTex.Floats()[lo:hi])
	})
	return nil
}
