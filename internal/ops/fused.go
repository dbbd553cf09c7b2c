package ops

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// The fused ops dispatch the Grappler-style fused kernels the graph
// optimizer rewrites converted models onto: convolution/matmul + bias +
// activation in one kernel dispatch. They are inference-only — no gradients
// are registered, mirroring TensorFlow, where fusion runs on frozen
// inference graphs. Valid activations: "" / "linear" and the activations
// of the element-wise table (kernels.Activation).

// fusedInputs assembles the kernel operand list; a nil bias means the
// kernel runs without a bias term.
func fusedInputs(x, filter, bias *tensor.Tensor) []*tensor.Tensor {
	ins := []*tensor.Tensor{x, filter}
	if bias != nil {
		ins = append(ins, bias)
	}
	return ins
}

// FusedConv2D convolves NHWC input x with filter [fh, fw, inC, outC], adds
// bias (shape [outC], may be nil) and applies the activation, all in one
// kernel dispatch.
func FusedConv2D(x, filter, bias *tensor.Tensor, opts ConvOpts, activation string) *tensor.Tensor {
	a := opts.attrs()
	a.Activation = activation
	return run1("FusedConv2D", fusedInputs(x, filter, bias), a)
}

// FusedDepthwiseConv2D is the depthwise counterpart: filter
// [fh, fw, inC, mult], bias shape [inC*mult].
func FusedDepthwiseConv2D(x, filter, bias *tensor.Tensor, opts ConvOpts, activation string) *tensor.Tensor {
	a := opts.attrs()
	a.Activation = activation
	return run1("FusedDepthwiseConv2dNative", fusedInputs(x, filter, bias), a)
}

// FusedMatMul multiplies rank-2 a and b, adds bias (shape [n], may be nil)
// and applies the activation in one dispatch (TensorFlow's _FusedMatMul).
func FusedMatMul(a, b, bias *tensor.Tensor, transposeA, transposeB bool, activation string) *tensor.Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(&core.OpError{Kernel: "_FusedMatMul", Err: fmt.Errorf("inputs must be rank 2, got %v and %v", a.Shape, b.Shape)})
	}
	return run1("_FusedMatMul", fusedInputs(a, b, bias), kernels.Attrs{
		TransposeA: transposeA, TransposeB: transposeB, Activation: activation})
}
