package webgl

import (
	"repro/internal/glsim"
	"repro/internal/kernels"
)

// registerFused installs the fused conv/matmul shader programs. Each is the
// unfused program's body plus an epilogue that samples the bias texture and
// applies the activation inline — one shader dispatch and one output
// texture where the unfused graph needed three of each. This is the WebGL
// analogue of TensorFlow's Grappler fused ops: the activation formulas come
// from kernels.FusedActivation, so the fused program agrees bit-for-bit
// with the op sequence it replaces.
func (b *Backend) registerFused() {
	b.register("FusedConv2D", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 2 && len(inputs) != 3 {
			return errf("FusedConv2D: got %d inputs, want 2 or 3", len(inputs))
		}
		return b.conv2D("FusedConv2D", inputs, attrs, true, res)
	})

	b.register("FusedDepthwiseConv2dNative", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 2 && len(inputs) != 3 {
			return errf("FusedDepthwiseConv2dNative: got %d inputs, want 2 or 3", len(inputs))
		}
		return b.depthwiseConv2D("FusedDepthwiseConv2dNative", inputs, attrs, true, res)
	})

	b.register("_FusedMatMul", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 2 && len(inputs) != 3 {
			return errf("_FusedMatMul: got %d inputs, want 2 or 3", len(inputs))
		}
		if len(inputs[0].Shape) != 2 || len(inputs[1].Shape) != 2 {
			return errf("_FusedMatMul: inputs must be rank 2, got %v and %v", inputs[0].Shape, inputs[1].Shape)
		}
		return b.matMul("_FusedMatMul", inputs, attrs, true, res)
	})
}

// fusedTail resolves the epilogue of a kernel with outC output channels:
// for a fused kernel, the optional bias texture (inputs[2]) and the
// activation; for its unfused twin, nothing.
func (b *Backend) fusedTail(name string, inputs []kernels.Input, attrs kernels.Attrs, outC int, fused bool) (*glsim.Texture, func(float32) float32, error) {
	if !fused {
		return nil, nil, nil
	}
	var biasTex *glsim.Texture
	if len(inputs) == 3 {
		bi := inputs[2]
		if len(bi.Shape) != 1 || bi.Shape[0] != outC {
			return nil, nil, errf("%s: bias must have shape [%d], got %v", name, outC, bi.Shape)
		}
		_, biasTex = b.input(bi)
	}
	actName := attrs.String("activation", "")
	act, ok := kernels.FusedActivation(actName)
	if !ok {
		return nil, nil, errf("%s: unknown activation %q", name, actName)
	}
	return biasTex, act, nil
}
