package kernels

import (
	"fmt"

	"repro/internal/tensor"
)

// Attrs is the attributes of one kernel invocation: one typed field per
// meaning a kernel reads, passed by value. Its writers — the ops, the plan
// compile (through savedmodel.DecodeAttrs), the optimizers and the tape —
// give every value a kernel needs; a field left zero means its natural
// empty value and nothing else: unit strides and dilations, "valid"
// padding, float32, no activation, and for Axes every axis. No kernel
// applies a default of its own.
type Attrs struct {
	// Shape is the shape a kernel's output takes: Reshape's and Fill's
	// target (one Reshape dim may be -1), Slice's size (a -1 runs to the
	// end of its dim), and a gradient kernel's input or filter shape.
	Shape []int
	// FilterSize is a pool's window [h, w]; Strides and Dilations are a
	// window kernel's steps [h, w].
	FilterSize, Strides, Dilations []int
	// Axes are a reduction's or Reverse's axes, negative ones counting from
	// the end; Perm is Transpose's permutation, Begin Slice's start,
	// Paddings PadV2's [before, after] pair per dim and Reps Tile's
	// multiples.
	Axes, Perm, Begin, Paddings, Reps []int
	// Pad is a window kernel's padding, "same" or "valid"; Activation a
	// fused kernel's epilogue, an element-wise table activation name.
	Pad, Activation string
	// Axis is Concat's, GatherV2's and CumSum's axis (CumSum's negative
	// one counting from the end), Depth OneHot's.
	Axis, Depth int
	// DType is Cast's, Fill's and Range's output dtype.
	DType tensor.DataType
	// Alpha is LeakyRelu's slope and Step's value at x ≤ 0; ClipMin and
	// ClipMax are ClipByValue's bounds; Value is Fill's value and PadV2's
	// padding; OnValue and OffValue are OneHot's; Start, Stop and Step are
	// Range's; Epsilon is FusedBatchNorm's variance epsilon and ApplyAdam's.
	Alpha, ClipMin, ClipMax, Value, OnValue, OffValue, Start, Stop, Step, Epsilon float64
	// Beta1 and Beta2 are AdamMoments' decay rates, LearningRate
	// ApplyAdam's. A value that changes every step (Adam's bias
	// corrections) is an operand, not an attribute: an attribute is part
	// of a call's key (Memo), and a new key every step resolves every step.
	LearningRate, Beta1, Beta2 float64
	// TransposeA and TransposeB transpose a matmul's operands; KeepDims
	// keeps a reduction's reduced dims as 1; Exclusive and Reverse are
	// CumSum's.
	TransposeA, TransposeB, KeepDims, Exclusive, Reverse bool
}

// Buffer is a host-memory tensor view consumed and produced by reference
// kernels: raw values plus logical shape.
type Buffer struct {
	Data  []float32
	Shape []int
	DType tensor.DataType
}

// NewBuffer allocates a zero-filled buffer of the given shape.
func NewBuffer(shape []int, dtype tensor.DataType) Buffer {
	return Buffer{
		Data:  make([]float32, tensor.ShapeSize(shape)),
		Shape: tensor.CopyShape(shape),
		DType: dtype,
	}
}

// Size returns the element count of the buffer.
func (b Buffer) Size() int { return tensor.ShapeSize(b.Shape) }

// Rank returns the number of dimensions.
func (b Buffer) Rank() int { return len(b.Shape) }

// RefKernel is a reference kernel: a pure host-memory implementation of an
// operation, the Ref of its entry of the range table. Reference kernels are
// the single source of truth for kernel semantics: the cpu tier runs them
// as its own kernels, and every device tier's kernel of the same name is
// held to them. Like every kernel, a reference kernel has one output.
type RefKernel func(inputs []Buffer, attrs Attrs) (Buffer, error)

// errIn builds a consistent kernel input validation error.
func errIn(kernel, format string, args ...any) error {
	return fmt.Errorf("kernel %s: %s", kernel, fmt.Sprintf(format, args...))
}

// wantInputs validates the arity of a kernel invocation.
func wantInputs[T Buffer | Input](kernel string, inputs []T, n int) error {
	if len(inputs) != n {
		return errIn(kernel, "got %d inputs, want %d", len(inputs), n)
	}
	return nil
}

// inputsOf views a reference kernel's operands as the Inputs the checks it
// shares with the backends (Resolve*) read.
func inputsOf(bufs []Buffer) []Input {
	ins := make([]Input, len(bufs))
	for i, b := range bufs {
		ins[i] = Input{Shape: b.Shape, DType: b.DType}
	}
	return ins
}
