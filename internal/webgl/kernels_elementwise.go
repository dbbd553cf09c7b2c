package webgl

import (
	"fmt"

	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// registerElementwise installs a program for every op of the element-wise
// table (kernels.ElementwiseOps), whose function — or, for the ReLU family
// and Step, internal/vec's branch-free row — is the program's body, so each
// computes the reference kernel's function value for value. The binary
// programs come in two forms: a channel-suffix path for operands whose
// shape is the output's trailing dimensions (the output's own shape, a bias
// or batch-norm vector, a scalar), which walks each operand with a wrapping
// counter, and a broadcast path that routes through the compiler-generated
// samplers.
func (b *Backend) registerElementwise() {
	for _, op := range kernels.ElementwiseOps() {
		if op.Binary != nil {
			b.register(op.Name, func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
				return b.binaryProgram(op, inputs, res)
			})
		} else {
			b.register(op.Name, func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
				return b.unaryProgram(op, inputs, attrs, res)
			})
		}
	}

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
				// The range may begin and end mid-pixel: channel lo%c first.
				vec.BatchNorm(dst, x.Floats()[lo:hi], mean.Floats()[:c], variance.Floats(), scale.Floats(), offset.Floats(), eps, lo%c)
			})
			return nil
		}
		maps := b.broadcastSamplers(inputs[0].Shape, shapes)
		b.runFlat("FusedBatchNorm", out, work, func(i int) float32 {
			return kernels.BatchNormValue(x.FetchFlat(i), mean.FetchFlat(maps[1](i)), variance.FetchFlat(maps[2](i)),
				offset.FetchFlat(maps[3](i)), scale.FetchFlat(maps[4](i)), eps)
		})
		return nil
	})
}

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
func (b *Backend) binaryProgram(op *kernels.ElementwiseOp, inputs []kernels.Input, res *kernels.TensorInfo) error {
	name, f := op.Name, op.Binary
	if len(inputs) != 2 {
		return errf("%s: got %d inputs, want 2", name, len(inputs))
	}
	_, aTex := b.input(inputs[0])
	_, xTex := b.input(inputs[1])
	outShape, err := tensor.BroadcastShapes(inputs[0].Shape, inputs[1].Shape)
	if err != nil {
		return err
	}
	out, err := b.output(outShape, op.DType(inputs[0].DType), res)
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

// unaryProgram assembles an element-wise unary shader: the op's row maps a
// range of the input's values to the same range of the output's.
func (b *Backend) unaryProgram(op *kernels.ElementwiseOp, inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
	if len(inputs) != 1 {
		return errf("%s: got %d inputs, want 1", op.Name, len(inputs))
	}
	row, err := op.UnaryRow(attrs)
	if err != nil {
		return err
	}
	_, xTex := b.input(inputs[0])
	out, err := b.output(inputs[0].Shape, op.DType(inputs[0].DType), res)
	if err != nil {
		return err
	}
	b.run(op.Name, out, perValue(out.size, 1, 1), func(lo, hi int, dst []float32) {
		row(dst, xTex.Floats()[lo:hi])
	})
	return nil
}
