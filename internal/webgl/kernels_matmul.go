package webgl

import (
	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// registerMatMul installs the matrix-multiplication shader — the Go
// counterpart of Listing 2 in the paper: each output value decodes its
// (row, col) coordinates with getOutputCoords(), samples a row of A and a
// column of B through compiler-generated getters, and accumulates a dot
// product.
func (b *Backend) registerMatMul() {
	b.register("BatchMatMul", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if len(inputs) != 2 {
			return errf("BatchMatMul: got %d inputs, want 2", len(inputs))
		}
		if len(inputs[0].Shape) != 3 || len(inputs[1].Shape) != 3 {
			return errf("BatchMatMul: inputs must be rank 3, got %v and %v", inputs[0].Shape, inputs[1].Shape)
		}
		return b.matMul("BatchMatMul", inputs, attrs, false, res)
	})
}

// matMul is the BatchMatMul (rank 3, batch-broadcasting) and _FusedMatMul
// (rank 2, with the fused epilogue) program. Every output value is the sum
// over kk, in order, of A[i,kk]·B[kk,j]. Without transposes a B row is
// contiguous along j, so a row of outputs accumulates at once —
// acc[j] += a·b[j] — which keeps each value's own order of additions;
// transposed operands take the per-value shader.
func (b *Backend) matMul(name string, inputs []kernels.Input, attrs kernels.Attrs, fused bool, res *kernels.TensorInfo) error {
	a, x := inputs[0], inputs[1]
	transposeA := attrs.Bool("transposeA", false)
	transposeB := attrs.Bool("transposeB", false)
	rank := len(a.Shape)
	// The trailing two dimensions are the matrices; a rank-3 input leads
	// with a batch dimension that may broadcast.
	aRows, aCols := a.Shape[rank-2], a.Shape[rank-1]
	bRows, bCols := x.Shape[rank-2], x.Shape[rank-1]
	batchA, batchB := 1, 1
	if rank == 3 {
		batchA, batchB = a.Shape[0], x.Shape[0]
	}
	batch := max(batchA, batchB)
	if batchA != batchB && batchA != 1 && batchB != 1 {
		return errf("%s: incompatible batch dims %d and %d", name, batchA, batchB)
	}
	m, kA := aRows, aCols
	if transposeA {
		m, kA = kA, m
	}
	kB, n := bRows, bCols
	if transposeB {
		kB, n = n, kB
	}
	if kA != kB {
		return errf("%s: inner dims mismatch %v x %v", name, a.Shape, x.Shape)
	}
	k := kA
	ep, err := b.fusedTail(name, inputs, attrs, n, fused)
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
	aMat, bMat := aRows*aCols, bRows*bCols

	work := addEpilogue(macWork(out.size, int64(out.size)*int64(k), rank-1), out.size, ep.bias != nil, ep.act != nil)
	if transposeA || transposeB {
		// Compiler-generated samplers: getA(p, i, kk) and getB(p, kk, j)
		// in flat index form, with the transpose folded into strides.
		aRowStride, aColStride := aCols, 1
		if transposeA {
			aRowStride, aColStride = 1, aCols
		}
		bRowStride, bColStride := bCols, 1
		if transposeB {
			bRowStride, bColStride = 1, bCols
		}
		b.runFlat(name, out, work, func(flat int) float32 {
			// getOutputCoords()
			j := flat % n
			rest := flat / n
			i := rest % m
			p := rest / m
			aOff := (p % batchA) * aMat
			bOff := (p % batchB) * bMat
			var sum float32
			for kk := 0; kk < k; kk++ {
				sum += aTex.FetchFlat(aOff+i*aRowStride+kk*aColStride) *
					bTex.FetchFlat(bOff+kk*bRowStride+j*bColStride)
			}
			if ep.bias != nil {
				sum += ep.bias.FetchFlat(j)
			}
			if ep.act != nil {
				sum = ep.act(sum)
			}
			return sum
		})
		return nil
	}

	if !fused && out.tex.Format == glsim.RGBA32F {
		// Packed matmul: a texel's four consecutive output columns share
		// their A row samples — the vec4 dot-product trick of the paper's
		// packed shaders, which the device's clock sees as fewer fetches.
		name, work = name+"(packed)", packedMatMulWork(out.size, n, k)
	}
	b.run(name, out, work, func(lo, hi int, dst []float32) {
		as, bs := aTex.Floats(), bTex.Floats()
		steps := newDenseSteps(n)
		for at := lo; at < hi; {
			row, jLo := at/n, at%n
			acc := dst[at-lo : at-lo+min(n-jLo, hi-at)]
			i, p := row%m, row/m
			clear(acc)
			if k > 0 {
				steps.accumulate(acc, as[(p%batchA)*aMat+i*k:][:k], bs[(p%batchB)*bMat+jLo:])
			}
			ep.apply(acc, jLo)
			at += len(acc)
		}
	})
	return nil
}
