package webgl

import (
	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/vec"
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

// epilogue is a fused kernel's tail: the optional bias texture, one value
// per output channel, and the activation. The zero value does nothing.
type epilogue struct {
	bias *glsim.Texture
	act  func(float32) float32 // nil: none
	kind vec.Act               // act again, when it is one the vector core applies itself
}

// apply adds the bias and applies the activation to the output channels
// [cLo, cLo+len(acc)) of one pixel or row.
func (e epilogue) apply(acc []float32, cLo int) {
	var bias []float32
	if e.bias != nil {
		bias = e.bias.Floats()[cLo : cLo+len(acc)]
	}
	vec.BiasAct(acc, bias, e.kind)
	if e.kind == vec.ActNone && e.act != nil {
		for j, v := range acc {
			acc[j] = e.act(v)
		}
	}
}

// fusedTail resolves the epilogue of a kernel with outC output channels:
// for a fused kernel, the optional bias texture (inputs[2]) and the
// activation; for its unfused twin, nothing.
func (b *Backend) fusedTail(name string, inputs []kernels.Input, attrs kernels.Attrs, outC int, fused bool) (ep epilogue, err error) {
	if !fused {
		return ep, nil
	}
	if len(inputs) == 3 {
		bi := inputs[2]
		if len(bi.Shape) != 1 || bi.Shape[0] != outC {
			return ep, errf("%s: bias must have shape [%d], got %v", name, outC, bi.Shape)
		}
		_, ep.bias = b.input(bi)
	}
	actName := attrs.String("activation", "")
	act, ok := kernels.FusedActivation(actName)
	if !ok {
		return ep, errf("%s: unknown activation %q", name, actName)
	}
	ep.act = act
	switch actName {
	case "relu":
		ep.kind = vec.ActRelu
	case "relu6":
		ep.kind = vec.ActRelu6
	}
	return ep, nil
}
