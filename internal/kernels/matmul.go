package kernels

import (
	"repro/internal/tensor"
	"repro/internal/vec"
)

// MatMul is a resolved BatchMatMul or _FusedMatMul: op(A)[m×k]·op(B)[k×n]
// for each of batch batch elements (a rank-2 _FusedMatMul is one), a
// batch dim of 1 broadcasting. op transposes its operand when the flag is
// set: A is then stored k×m and B n×k. Its fields are 32-bit for Walk's
// reason: a closure holds one per dispatch.
type MatMul struct {
	batch, m, n, k, batchA, batchB int32
	transposeA, transposeB         bool
}

// Rows is the output's rows of n values, batch·m.
func (g MatMul) Rows() int { return int(g.batch) * int(g.m) }

// N is an output row's length, the bias's.
func (g MatMul) N() int { return int(g.n) }

// K is the length of each value's sum.
func (g MatMul) K() int { return int(g.k) }

// ResolveMatMul checks a matrix product — BatchMatMul's two rank-3
// operands, whose batch dims agree or one of them is 1, or _FusedMatMul's
// two rank-2 operands and optional bias — and describes its output in out.
func ResolveMatMul(name string, inputs []Input, attrs Attrs, out *TensorInfo) (MatMul, error) {
	fused := name == "_FusedMatMul"
	rank := 3
	if fused {
		rank = 2
	}
	if err := FusedInputs(name, inputs, fused); err != nil {
		return MatMul{}, err
	}
	a, b := inputs[0].Shape, inputs[1].Shape
	if len(a) != rank || len(b) != rank {
		return MatMul{}, errIn(name, "inputs must be rank %d, got %v and %v", rank, a, b)
	}
	batchA, batchB := 1, 1
	if rank == 3 {
		batchA, batchB = a[0], b[0]
		if batchA != batchB && batchA != 1 && batchB != 1 {
			return MatMul{}, errIn(name, "incompatible batch dims %d and %d", batchA, batchB)
		}
	}
	transposeA, transposeB := attrs.Bool("transposeA", false), attrs.Bool("transposeB", false)
	m, k := a[rank-2], a[rank-1]
	if transposeA {
		m, k = k, m
	}
	kB, n := b[rank-2], b[rank-1]
	if transposeB {
		kB, n = n, kB
	}
	if k != kB {
		return MatMul{}, errIn(name, "inner dims mismatch: %v x %v (transposeA=%v transposeB=%v)", a, b, transposeA, transposeB)
	}
	batch := max(batchA, batchB)
	out.Shape, out.DType = append(out.Shape[:0], batch, m, n), tensor.Float32
	if rank == 2 {
		out.Shape = append(out.Shape[:0], m, n)
	}
	g := MatMul{int32(batch), int32(m), int32(n), int32(k), int32(batchA), int32(batchB), transposeA, transposeB}
	return g, nil
}

// Fill computes the output values [lo, lo+len(dst)) of the product into
// dst — whole rows or a range cut anywhere — and applies ep to them. Every
// value is the sum over kk, in order, of A[i,kk]·B[kk,j], a zero A[i,kk]
// left out as on every tier. Unless B is transposed its rows are
// contiguous along j, so a row's values accumulate at once on vec.GemmRow,
// which keeps each value's own order of additions; a transposed B has a
// contiguous column per value instead, a dot product in the same order.
func (g MatMul) Fill(a, b []float32, ep Epilogue, lo int, dst []float32) {
	m, n, k := int(g.m), int(g.n), int(g.k)
	batchA, batchB := int(g.batchA), int(g.batchB)
	aRowStride, aColStride := k, 1 // getA(p, i, kk), the transpose folded in
	if g.transposeA {
		aRowStride, aColStride = 1, m
	}
	var nz vec.NZList
	for at, hi := lo, lo+len(dst); at < hi; {
		row, jLo := at/n, at%n
		acc := dst[at-lo : at-lo+min(n-jLo, hi-at)]
		p, i := row/m, row%m
		aOff, bMat := (p%batchA)*m*k+i*aRowStride, b[(p%batchB)*k*n:]
		switch {
		case k == 0:
			clear(acc)
		case g.transposeB:
			// Four values at a time: four independent sums share each A
			// load and its zero test.
			j := 0
			for ; j+4 <= len(acc); j += 4 {
				b0 := bMat[(jLo+j)*k:][:k]
				b1, b2, b3 := bMat[(jLo+j+1)*k:][:len(b0)], bMat[(jLo+j+2)*k:][:len(b0)], bMat[(jLo+j+3)*k:][:len(b0)]
				var s0, s1, s2, s3 float32
				for kk := range b0 {
					if av := a[aOff+kk*aColStride]; av != 0 {
						s0, s1 = s0+float32(av*b0[kk]), s1+float32(av*b1[kk])
						s2, s3 = s2+float32(av*b2[kk]), s3+float32(av*b3[kk])
					}
				}
				acc[j], acc[j+1], acc[j+2], acc[j+3] = s0, s1, s2, s3
			}
			for ; j < len(acc); j++ {
				var sum float32
				for kk, bv := range bMat[(jLo+j)*k:][:k] {
					if av := a[aOff+kk*aColStride]; av != 0 {
						sum += float32(av * bv)
					}
				}
				acc[j] = sum
			}
		default:
			clear(acc)
			vec.GemmRow(acc, a[aOff:aOff+(k-1)*aColStride+1], aColStride, bMat[jLo:], n, &nz)
		}
		ep.Apply(acc, jLo)
		at += len(acc)
	}
}

func init() {
	// BatchMatMul multiplies two 3-D tensors [batch, m, k] x [batch, k, n]
	// with optional transposition of the inner matrices and batch
	// broadcasting (batch of 1 broadcasts). The ops layer reshapes 2-D
	// matmuls into batch 1.
	RegisterRef("BatchMatMul", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		var res TensorInfo
		g, err := ResolveMatMul("BatchMatMul", inputsOf(inputs), attrs, &res)
		if err != nil {
			return Buffer{}, err
		}
		a, b := inputs[0], inputs[1]
		batchA, batchB, m, k, n := a.Shape[0], b.Shape[0], int(g.m), g.K(), g.N()
		out := NewBuffer(res.Shape, res.DType)
		aMat := a.Shape[1] * a.Shape[2]
		bMat := b.Shape[1] * b.Shape[2]
		// The transpose flags are resolved once per batch into one of four
		// specialized loop nests (matmul2D) instead of branching on them
		// per element — this kernel is the fallback for every backend and
		// was branch-bound in its innermost loop.
		for p := 0; p < int(g.batch); p++ {
			aOff := (p % batchA) * aMat
			bOff := (p % batchB) * bMat
			oOff := p * m * n
			matmul2D(out.Data[oOff:oOff+m*n], a.Data[aOff:aOff+aMat], b.Data[bOff:bOff+bMat],
				m, k, n, g.transposeA, g.transposeB)
		}
		return out, nil
	})
}
