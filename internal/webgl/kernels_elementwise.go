package webgl

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// registerElementwise installs a program for every op of the element-wise
// table (kernels.ElementwiseOps), whose function — or, for the ReLU family
// and Step, internal/vec's branch-free row — is the program's body, so each
// computes the reference kernel's function value for value. The binary
// programs come in two forms: a channel-suffix path for operands whose
// shape is the output's trailing dimensions (the output's own shape, a bias
// or batch-norm vector, a scalar), which walks each operand with a wrapping
// counter, and a broadcast path on the body native's broadcasts run
// (kernels.Broadcast), charged as the compiler-generated samplers' decode.
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

	// Select and FusedBatchNorm run the bodies native runs
	// (kernels.Operands.Select; kernels.BatchNorm, vec's normalise row when
	// the four parameters are x's channel vectors, the range beginning and
	// ending mid-pixel). They declare the per-value shader's work: the
	// condition and the chosen branch fetched and one compare; five fetches
	// and six operations (subtract, add ε, rsqrt, multiply, scale, offset),
	// x read at the output's own index. Either reads the operands it does
	// not have in the output's shape through compiled-sampler terms.
	b.register("Select", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		o, err := kernels.ResolveSelect(inputs, res)
		if err != nil {
			return err
		}
		_, condTex := b.input(inputs[0])
		_, tTex := b.input(inputs[1])
		_, fTex := b.input(inputs[2])
		out, err := b.output(res.Shape, res.DType, res)
		if err != nil {
			return err
		}
		work := perValue(out.size, 2, 1+aluTerm*b.termCount(res.Shape, inputs[0].Shape, inputs[1].Shape, inputs[2].Shape))
		b.run("Select", out, work, func(lo, hi int, dst []float32) {
			o.Select(condTex.Floats(), tTex.Floats(), fTex.Floats(), lo, dst)
		})
		return nil
	})
	b.register("FusedBatchNorm", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		n, err := kernels.ResolveBatchNorm(inputs, attrs, res)
		if err != nil {
			return err
		}
		_, x := b.input(inputs[0])
		_, mean := b.input(inputs[1])
		_, variance := b.input(inputs[2])
		_, offset := b.input(inputs[3])
		_, scale := b.input(inputs[4])
		out, err := b.output(res.Shape, tensor.Float32, res)
		if err != nil {
			return err
		}
		work := perValue(out.size, 5, 6+aluTerm*b.termCount(inputs[0].Shape, inputs[1].Shape, inputs[2].Shape, inputs[3].Shape, inputs[4].Shape))
		b.run("FusedBatchNorm", out, work, func(lo, hi int, dst []float32) {
			n.Fill(x.Floats(), mean.Floats(), variance.Floats(), offset.Floats(), scale.Floats(), lo, dst)
		})
		return nil
	})
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// suffixPeriods reports whether every operand repeats along the output's
// flat order (kernels.SuffixPeriod), and returns each one's period: a
// program reads it at flat%period and needs no compiled sampler. An empty
// output has no suffix path: nothing runs.
func suffixPeriods(outShape []int, inShapes ...[]int) ([]int, bool) {
	if tensor.ShapeSize(outShape) == 0 {
		return nil, false
	}
	periods := make([]int, len(inShapes))
	for k, shape := range inShapes {
		if periods[k] = kernels.SuffixPeriod(shape, outShape); periods[k] == 0 {
			return nil, false
		}
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
	g, ok := kernels.NewBroadcast(inputs[0].Shape, inputs[1].Shape, outShape)
	if !ok {
		return kernels.ErrFallback
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
	b.run(name, out, work, func(lo, hi int, dst []float32) {
		g.Fill(f, aTex.Floats(), xTex.Floats(), lo, dst)
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
