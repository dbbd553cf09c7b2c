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
// Select and batch norm, which read any number of broadcast operands, are
// range kernels (kernels.RangeKernels).
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
	outShape, err := tensor.BroadcastShapes(inputs[0].Shape, inputs[1].Shape)
	if err != nil {
		return err
	}
	g, ok := kernels.NewBroadcast(inputs[0].Shape, inputs[1].Shape, outShape)
	if !ok {
		return kernels.ErrFallback
	}
	tex := b.textures(inputs)
	out, err := b.output(outShape, op.DType(inputs[0].DType), res)
	if err != nil {
		return err
	}
	// Two fetches and the operation; operands of the output's own shape
	// are read at its flat index, anything else through sampler terms.
	r := kernels.Range{Work: kernels.PerValue(out.size, 2, 1)}
	if !sameShape(outShape, [][]int{inputs[0].Shape, inputs[1].Shape}) {
		r.Work.ALU += int64(out.size) * int64(kernels.ALUTerm*b.termCount(outShape, inputs[0].Shape, inputs[1].Shape))
	}
	if periods, ok := suffixPeriods(outShape, inputs[0].Shape, inputs[1].Shape); ok {
		pa, px := periods[0], periods[1]
		r.Fill = func(in [][]float32, lo int, dst []float32) {
			as, xs := in[0], in[1]
			ia, ix := lo%pa, lo%px
			for j := range dst {
				dst[j] = f(as[ia], xs[ix])
				ia, ix = next(ia, pa), next(ix, px)
			}
		}
	} else {
		r.Fill = func(in [][]float32, lo int, dst []float32) { g.Fill(f, in[0], in[1], lo, dst) }
	}
	b.run(name, out, r, tex)
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
	tex := b.textures(inputs)
	out, err := b.output(inputs[0].Shape, op.DType(inputs[0].DType), res)
	if err != nil {
		return err
	}
	b.run(op.Name, out, kernels.Range{Fill: func(in [][]float32, lo int, dst []float32) {
		row(dst, in[0][lo:lo+len(dst)])
	}, Work: kernels.PerValue(out.size, 1, 1)}, tex)
	return nil
}
