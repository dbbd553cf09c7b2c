package native

import (
	"math"

	"repro/internal/vec"
)

// The matmul core shared by BatchMatMul, _FusedMatMul and the 1×1-pointwise
// conv fast path: row-streaming, k-outer j-inner. Each output row is
// built as row += a[i,k]·B[k,:] over k (gemmRow), so B is read with unit
// stride and the row stays in L1 across the whole k loop; a zero lhs
// element (half of them after a relu-family epilogue) is skipped outright.
// An m=1 product is a GEMV with no special case.
//
// Determinism: each output element accumulates over k in one sequential
// loop, in one chunk — the k loop is never split across chunks or
// workers — so results are bit-identical for every worker count.

// epilogue is the optional fused tail applied to each finished,
// channel-aligned output slice: bias add and activation. Passed by value
// so the per-call construction stays off the heap; the zero value is a
// no-op.
type epilogue struct {
	bias []float32             // nil, or one value per output channel
	kind vec.Act               // relu and relu6 run in the vector core's own loop
	act  func(float32) float32 // any other activation: a scalar function per element
}

// apply reproduces kernels.FusedActivation exactly (including NaN
// behavior), so the parity suite holds bit-for-bit.
func (e epilogue) apply(dst []float32) {
	vec.BiasAct(dst, e.bias, e.kind)
	if e.act != nil {
		for i, v := range dst {
			dst[i] = e.act(v)
		}
	}
}

// nzCap is how many nonzero lhs elements gemmRow gathers before handing
// them to the vector core: a multiple of its four-wide step, and a power
// of two.
const nzCap = 32

// nzList is gemmRow's scratch: the nonzero lhs elements of one output row,
// each with the offset of the rhs row it multiplies. A chunk body declares
// one and passes it down, so it is zeroed once per chunk, not once per
// output row.
type nzList struct {
	vals [nzCap]float32
	offs [nzCap]int
}

// narrowRow reports whether an output row of n floats is one or two vector
// steps. Such a row's arithmetic is a handful of instructions per lhs
// element, less than listing that element costs, so the convolutions whose
// rows are narrow hand vec.AxpyRows the lhs as it lies — it skips the zeros
// itself, by selection, and advances several rows' add chains together —
// where wide rows go through gemmRow, which spares them the work of a zero
// element altogether.
func narrowRow(n int) bool { return n == 8 || n == 16 }

// gemmRow accumulates one output row of a matrix product:
// row[j] += a[kk*aStride] * b[kk*len(row)+j], kk ascending over the
// ⌈len(a)/aStride⌉ lhs elements, skipping those that are zero (half of
// them after a relu-family epilogue; a skipped 0·Inf also stays out of
// the sum, as it always has on this backend — the dense vec.AxpyN under
// it multiplies whatever it is handed).
//
// The nonzero elements are compacted into nz and handed to the vector core
// nzCap at a time. The compaction is branch-free — ±0 is the one value
// whose bits, shifted clear of the sign, are zero, and the test compiles to
// a conditional move — so a random sparsity pattern costs no
// mispredictions; p stays under nzCap, so the index masks change nothing
// but spare the loop its two bounds checks.
func gemmRow(row, a []float32, aStride int, b []float32, nz *nzList) {
	n := len(row)
	vals, offs := &nz.vals, &nz.offs
	p := 0
	for ai, off := 0, 0; ai < len(a); ai, off = ai+aStride, off+n {
		av := a[ai]
		vals[p&(nzCap-1)], offs[p&(nzCap-1)] = av, off
		if math.Float32bits(av)<<1 != 0 {
			p++
		}
		if p == nzCap {
			vec.AxpyN(row, vals[:], offs[:], b)
			p = 0
		}
	}
	vec.AxpyN(row, vals[:p], offs[:p], b)
}

// matmul accumulates op(A)·op(B) into out[m×n] (zeroed by the caller's
// allocation), rows sharded across the worker pool, then applies ep to
// each finished row. op transposes its operand when the flag is set: A is
// then stored k×m and B n×k.
func (b *Backend) matmul(m, n, k int, aBuf, bBuf []float32, transposeA, transposeB bool, out []float32, ep epilogue) {
	b.parallelFor(m, 2*k*n, func(lo, hi int) {
		var nz nzList
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
						row[j] += float32(av * bBuf[j*k+kk])
					}
				}
			} else if k > 0 {
				gemmRow(row, aBuf[aOff:aOff+(k-1)*aStride+1], aStride, bBuf, &nz)
			}
			ep.apply(row)
		}
	})
}
