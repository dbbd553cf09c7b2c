package kernels

import "repro/internal/tensor"

func init() {
	// BatchMatMul multiplies two 3-D tensors [batch, m, k] x [batch, k, n]
	// with optional transposition of the inner matrices and batch
	// broadcasting (batch of 1 broadcasts). The ops layer reshapes 2-D
	// matmuls into batch 1.
	RegisterRef("BatchMatMul", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("BatchMatMul", inputs, 2); err != nil {
			return Buffer{}, err
		}
		a, b := inputs[0], inputs[1]
		transposeA := attrs.Bool("transposeA", false)
		transposeB := attrs.Bool("transposeB", false)
		if a.Rank() != 3 || b.Rank() != 3 {
			return Buffer{}, errIn("BatchMatMul", "inputs must be rank 3, got %v and %v", a.Shape, b.Shape)
		}
		batchA, batchB := a.Shape[0], b.Shape[0]
		batch := batchA
		if batchB > batch {
			batch = batchB
		}
		if batchA != batchB && batchA != 1 && batchB != 1 {
			return Buffer{}, errIn("BatchMatMul", "incompatible batch dims %d and %d", batchA, batchB)
		}
		m, kA := a.Shape[1], a.Shape[2]
		if transposeA {
			m, kA = kA, m
		}
		kB, n := b.Shape[1], b.Shape[2]
		if transposeB {
			kB, n = n, kB
		}
		if kA != kB {
			return Buffer{}, errIn("BatchMatMul", "inner dims mismatch: %v x %v (transposeA=%v transposeB=%v)",
				a.Shape, b.Shape, transposeA, transposeB)
		}
		k := kA
		out := NewBuffer([]int{batch, m, n}, tensor.Float32)
		aMat := a.Shape[1] * a.Shape[2]
		bMat := b.Shape[1] * b.Shape[2]
		// The transpose flags are resolved once per batch into one of four
		// specialized loop nests (matmul2D) instead of branching on them
		// per element — this kernel is the fallback for every backend and
		// was branch-bound in its innermost loop.
		for p := 0; p < batch; p++ {
			aOff := (p % batchA) * aMat
			bOff := (p % batchB) * bMat
			oOff := p * m * n
			matmul2D(out.Data[oOff:oOff+m*n], a.Data[aOff:aOff+aMat], b.Data[bOff:bOff+bMat],
				m, k, n, transposeA, transposeB)
		}
		return out, nil
	})
}
