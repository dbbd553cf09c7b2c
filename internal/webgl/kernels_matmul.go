package webgl

import (
	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// registerMatMul installs the matrix-multiplication shader — the Go
// counterpart of Listing 2 in the paper: each output value decodes its
// (row, col) coordinates with getOutputCoords(), samples a row of A and a
// column of B through compiler-generated getters, and accumulates a dot
// product.
func (b *Backend) registerMatMul() {
	b.register("BatchMatMul", b.matMul("BatchMatMul", 3, false))
}

// matMul is the BatchMatMul (rank 3, batch-broadcasting) and _FusedMatMul
// (rank 2, with the fused epilogue) program. Every output value is the sum
// over kk, in order, of A[i,kk]·B[kk,j], a zero A[i,kk] left out as on
// every tier. Unless B is transposed its rows are contiguous along j, so a
// row of outputs accumulates at once on vec.GemmRow — acc[j] += a·b[j] —
// which keeps each value's own order of additions; a transposed B takes
// the per-value loop.
func (b *Backend) matMul(name string, rank int, fused bool) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if err := kernels.FusedInputs(name, inputs, fused); err != nil {
			return err
		}
		if len(inputs[0].Shape) != rank || len(inputs[1].Shape) != rank {
			return errf("%s: inputs must be rank %d, got %v and %v", name, rank, inputs[0].Shape, inputs[1].Shape)
		}
		a, x := inputs[0], inputs[1]
		transposeA := attrs.Bool("transposeA", false)
		transposeB := attrs.Bool("transposeB", false)
		// The trailing two dimensions are the matrices; a rank-3 input leads
		// with a batch dimension that may broadcast.
		batchA, batchB := 1, 1
		if rank == 3 {
			batchA, batchB = a.Shape[0], x.Shape[0]
		}
		batch := max(batchA, batchB)
		if batchA != batchB && batchA != 1 && batchB != 1 {
			return errf("%s: incompatible batch dims %d and %d", name, batchA, batchB)
		}
		m, k := a.Shape[rank-2], a.Shape[rank-1]
		if transposeA {
			m, k = k, m
		}
		kB, n := x.Shape[rank-2], x.Shape[rank-1]
		if transposeB {
			kB, n = n, kB
		}
		if k != kB {
			return errf("%s: inner dims mismatch %v x %v", name, a.Shape, x.Shape)
		}
		ep, bias, err := b.fusedTail(name, inputs, attrs, n)
		if err != nil {
			return err
		}
		_, aTex := b.input(a)
		_, bTex := b.input(x)
		outShape := []int{batch, m, n}[3-rank:]
		out, err := b.output(outShape, tensor.Float32, res)
		if err != nil {
			return err
		}
		program, work := name, addEpilogue(macWork(out.size, int64(out.size)*int64(k), rank-1), out.size, bias != nil, ep.Act != nil)
		if !fused && !transposeA && !transposeB && out.tex.Format == glsim.RGBA32F {
			// Packed matmul: a texel's four consecutive output columns share
			// their A row samples — the vec4 dot-product trick of the paper's
			// packed shaders, which the device's clock sees as fewer fetches.
			program, work = name+"(packed)", packedMatMulWork(out.size, n, k)
		}
		b.run(program, out, work, func(lo, hi int, dst []float32) {
			as, bs := aTex.Floats(), bTex.Floats()
			ep := withBias(ep, bias)
			// The sampler getA(p, i, kk) in flat index form, the transpose
			// folded into its strides.
			aRowStride, aColStride := k, 1
			if transposeA {
				aRowStride, aColStride = 1, m
			}
			var nz vec.NZList
			for at := lo; at < hi; {
				row, jLo := at/n, at%n
				acc := dst[at-lo : at-lo+min(n-jLo, hi-at)]
				i, p := row%m, row/m
				aRow, bMatrix := as[(p%batchA)*m*k+i*aRowStride:], bs[(p%batchB)*k*n:]
				if transposeB {
					for j := range acc {
						var sum float32
						for kk := 0; kk < k; kk++ {
							if av := aRow[kk*aColStride]; av != 0 {
								sum += float32(av * bMatrix[(jLo+j)*k+kk])
							}
						}
						acc[j] = sum
					}
				} else {
					clear(acc)
					if k > 0 {
						vec.GemmRow(acc, aRow[:(k-1)*aColStride+1], aColStride, bMatrix[jLo:], n, &nz)
					}
				}
				ep.Apply(acc, jLo)
				at += len(acc)
			}
		})
		return nil
	}
}
