package native

// The matmul core shared by BatchMatMul, _FusedMatMul and the 1×1-pointwise
// conv fast path: row-streaming, k-outer j-inner. Each output row is
// built as row += a[i,k]·B[k,:] over k (gemmRow in vec.go), so B is read
// with unit stride and the row stays in L1 across the whole k loop; a
// zero lhs element (half of them after a relu-family epilogue) is skipped
// outright. An m=1 product is a GEMV with no special case.
//
// Determinism: each output element accumulates over k in one sequential
// loop, in one chunk — the k loop is never split across chunks or
// workers — so results are bit-identical for every worker count.

// epilogue is the optional fused tail applied to each finished,
// channel-aligned output slice: bias add and activation. Passed by value
// so the per-call construction stays off the heap; the zero value is a
// no-op.
type epilogue struct {
	bias []float32 // nil, or one value per output channel
	kind actKind
	act  func(float32) float32 // kind == actFunc only
}

// apply reproduces kernels.FusedActivation exactly (including NaN
// behavior), so the parity suite holds bit-for-bit.
func (e epilogue) apply(dst []float32) {
	if e.kind != actFunc {
		biasAct(dst, e.bias, e.kind)
		return
	}
	biasAct(dst, e.bias, actNone)
	for i, v := range dst {
		dst[i] = e.act(v)
	}
}

// matmul accumulates op(A)·op(B) into out[m×n] (zeroed by the caller's
// allocation), rows sharded across the worker pool, then applies ep to
// each finished row. op transposes its operand when the flag is set: A is
// then stored k×m and B n×k.
func (b *Backend) matmul(m, n, k int, aBuf, bBuf []float32, transposeA, transposeB bool, out []float32, ep epilogue) {
	b.parallelFor(m, 2*k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := out[i*n : (i+1)*n]
			aOff, aStride := i*k, 1
			if transposeA {
				aOff, aStride = i, m
			}
			if transposeB {
				// B has no row to stream: a strided scalar loop, same k
				// order and zero-skip as gemmRow.
				for kk := 0; kk < k; kk++ {
					av := aBuf[aOff+kk*aStride]
					if av == 0 {
						continue
					}
					for j := range row {
						row[j] += av * bBuf[j*k+kk]
					}
				}
			} else if k > 0 {
				gemmRow(row, aBuf[aOff:aOff+(k-1)*aStride+1], aStride, bBuf)
			}
			ep.apply(row)
		}
	})
}
