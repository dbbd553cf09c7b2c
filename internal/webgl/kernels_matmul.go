package webgl

import (
	"repro/internal/glsim"
	"repro/internal/kernels"
)

// registerMatMul installs the matrix-multiplication shader — the Go
// counterpart of Listing 2 in the paper: each output value decodes its
// (row, col) coordinates with getOutputCoords(), samples a row of A and a
// column of B through compiler-generated getters, and accumulates a dot
// product.
func (b *Backend) registerMatMul() {
	b.register("BatchMatMul", b.matMulProgram("BatchMatMul"))
}

// matMulProgram is the BatchMatMul (rank 3, batch-broadcasting) and
// _FusedMatMul (rank 2, with the fused epilogue) program, on the matmul
// body native runs over its output rows (kernels.MatMul), here over the
// texel range.
func (b *Backend) matMulProgram(name string) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		g, err := kernels.ResolveMatMul(name, inputs, attrs, res)
		if err != nil {
			return err
		}
		ep, bias, err := b.fusedTail(name, inputs, attrs, g.N())
		if err != nil {
			return err
		}
		_, aTex := b.input(inputs[0])
		_, bTex := b.input(inputs[1])
		out, err := b.output(res.Shape, res.DType, res)
		if err != nil {
			return err
		}
		program, work := name, addEpilogue(macWork(out.size, int64(out.size)*int64(g.K()), len(res.Shape)-1), out.size, bias != nil, ep.Act != nil)
		transposeA, transposeB := attrs.Bool("transposeA", false), attrs.Bool("transposeB", false)
		if name == "BatchMatMul" && !transposeA && !transposeB && out.tex.Format == glsim.RGBA32F {
			// Packed matmul: a texel's four consecutive output columns share
			// their A row samples — the vec4 dot-product trick of the paper's
			// packed shaders, which the device's clock sees as fewer fetches.
			program, work = name+"(packed)", packedMatMulWork(out.size, g.N(), g.K())
		}
		b.run(program, out, work, func(lo, hi int, dst []float32) {
			g.Fill(aTex.Floats(), bTex.Floats(), withBias(ep, bias), lo, dst)
		})
		return nil
	}
}
