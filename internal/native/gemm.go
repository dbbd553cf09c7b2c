package native

import (
	"repro/internal/kernels"
	"repro/internal/vec"
)

// The matmul core shared by BatchMatMul and _FusedMatMul: row-streaming,
// k-outer j-inner. Each output row is built as row += a[i,k]·B[k,:] over k
// (vec.GemmRow), so B is read with unit stride and the row stays in L1
// across the whole k loop; a zero lhs element (half of them after a
// relu-family epilogue) is left out, as on every tier. An m=1 product is a
// GEMV with no special case.
//
// Determinism: each output element accumulates over k in one sequential
// loop, in one chunk — the k loop is never split across chunks or
// workers — so results are bit-identical for every worker count.

// matmul accumulates op(A)·op(B) into out[m×n] (zeroed by the caller's
// allocation), rows sharded across the worker pool, then applies ep to
// each finished row. op transposes its operand when the flag is set: A is
// then stored k×m and B n×k.
func (b *Backend) matmul(m, n, k int, aBuf, bBuf []float32, transposeA, transposeB bool, out []float32, ep kernels.Epilogue) {
	b.parallelFor(m, 2*k*n, func(lo, hi int) {
		var nz vec.NZList
		for i := lo; i < hi; i++ {
			row := out[i*n : (i+1)*n]
			aOff, aStride := i*k, 1
			if transposeA {
				aOff, aStride = i, m
			}
			if transposeB {
				// B has no row to stream: a strided scalar loop, same k
				// order and zero-skip as GemmRow.
				for kk := 0; kk < k; kk++ {
					av := aBuf[aOff+kk*aStride]
					if av == 0 {
						continue
					}
					for j := range row {
						row[j] += float32(av * bBuf[j*k+kk])
					}
				}
			} else if k > 0 {
				vec.GemmRow(row, aBuf[aOff:aOff+(k-1)*aStride+1], aStride, bBuf, n, &nz)
			}
			ep.Apply(row, 0)
		}
	})
}
