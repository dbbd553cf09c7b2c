package webgl

import (
	"repro/internal/glsim"
	"repro/internal/kernels"
)

// registerFused installs the fused conv/matmul shader programs. Each is the
// unfused program's body plus an epilogue that samples the bias texture and
// applies the activation inline — one shader dispatch and one output
// texture where the unfused graph needed three of each. This is the WebGL
// analogue of TensorFlow's Grappler fused ops: the activation is the
// element-wise table's (kernels.Activation), so the fused program agrees
// bit-for-bit with the op sequence it replaces.
func (b *Backend) registerFused() {
	b.register("FusedConv2D", b.convolution("FusedConv2D", true, false))
	b.register("FusedDepthwiseConv2dNative", b.convolution("FusedDepthwiseConv2dNative", true, true))

	b.register("_FusedMatMul", b.matMul("_FusedMatMul", 2, true))
}

// fusedTail resolves the epilogue of a kernel with outC output channels:
// the activation and the optional bias texture (inputs[2]), whose values
// withBias sets once the program runs. An unfused kernel has neither.
func (b *Backend) fusedTail(name string, inputs []kernels.Input, attrs kernels.Attrs, outC int) (ep kernels.Epilogue, bias *glsim.Texture, err error) {
	if ep, err = kernels.FusedTail(name, inputs, attrs, outC, nil); err == nil && len(inputs) == 3 {
		_, bias = b.input(inputs[2])
	}
	return ep, bias, err
}

// withBias is ep with the bias texture's values: a texture's host slice
// exists once the device queue reaches it, so a program body reads it.
func withBias(ep kernels.Epilogue, bias *glsim.Texture) kernels.Epilogue {
	if bias != nil {
		ep.Bias = bias.Floats()
	}
	return ep
}
