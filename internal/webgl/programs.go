package webgl

import (
	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// The program cache: TensorFlow.js compiles a shader once per program key
// and reuses the binary for every later dispatch with the same key (§4.1).
// Here the key and the cache are the range table's memo (kernels.Memo: the
// kernel, its inputs' shapes and dtypes and every attribute), and what this
// backend keeps under a key is what it builds from the resolved call: its
// program and the output it describes. So a warmed dispatch resolves
// nothing and builds nothing. The backend's own settings (packing,
// squeezing, half floats) are fixed for the memo's life, which is the
// backend's.

// compiled is one cached program and the output it describes.
type compiled struct {
	prog  *glsim.Program
	shape []int
	dtype tensor.DataType
}

// compile builds the program of a resolved call of k: k's body over the
// texel range the device hands it, its inputs read from their textures
// inside the program. It declares k's work plus what only this backend's
// shaders cost: the compiled samplers' terms, which squeezing cuts, and a
// packed matmul's shared A samples.
func (b *Backend) compile(k kernels.RangeKernel, res kernels.Resolved, inputs []kernels.Input, attrs kernels.Attrs) compiled {
	r := res.Range
	size := tensor.ShapeSize(res.Shape)
	terms, squeeze := 0, b.cfg.SqueezeLogicalShapes
	if k.Sampled == kernels.SamplesOutput {
		terms = samplerTerms(res.Shape, res.Shape, squeeze)
	}
	for _, in := range k.Sampled.Inputs(inputs, res.Shape) {
		terms += samplerTerms(in.Shape, res.Shape, squeeze)
	}
	r.Work.ALU += int64(size) * int64(kernels.ALUTerm*terms)
	name := k.Name
	if name == "BatchMatMul" && b.cfg.Packed && !attrs.TransposeA && !attrs.TransposeB {
		// Packed matmul: a texel's four consecutive output columns share
		// their A row samples — the vec4 dot-product trick of the paper's
		// packed shaders, which the device's clock sees as fewer fetches.
		rank := len(res.Shape)
		name, r.Work = name+"(packed)", packedMatMulWork(r.Work, size, res.Shape[rank-1], inputs[0].Shape[rank-1])
	}
	return compiled{prog: b.shader(name, size, r), shape: res.Shape, dtype: res.DType}
}
