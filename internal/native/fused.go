package native

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// The convolution and matmul kernels, each registered twice: plain, and
// fused with a bias + activation epilogue applied in the same pass over
// the output. The plain form is the fused one with an empty epilogue, so
// the two agree bit for bit by construction, and saves two kernel
// dispatches and two full feature-map traversals per fused pair.

// defaultConvStride is the shared [1, 1] default for the strides/dilations
// attributes. A package-level slice instead of a literal at each call site:
// the attribute getters only read it, and the per-call literal was one of
// the last steady-state allocations on the pooled inference path.
var defaultConvStride = []int{1, 1}

// registerConvMatMul installs the convolution and matmul kernels.
func (b *Backend) registerConvMatMul() {
	b.register("Conv2D", b.convolution("Conv2D", false, false))
	b.register("FusedConv2D", b.convolution("FusedConv2D", true, false))
	b.register("DepthwiseConv2dNative", b.convolution("DepthwiseConv2dNative", false, true))
	b.register("FusedDepthwiseConv2dNative", b.convolution("FusedDepthwiseConv2dNative", true, true))
	b.register("BatchMatMul", b.batchMatMul)
	b.register("_FusedMatMul", b.fusedMatMul)
}

// convolution is Conv2D and, with depthwise set, DepthwiseConv2dNative,
// fused or not: the output rows (batch × outY) sharded across the worker
// pool, each chunk computed by the walk both host backends share
// (kernels.Walk), which hands the pixels of a row that padding clips alike
// to the vector cores together. A 1×1 stride-1 convolution is the same
// walk, its pixels one run.
func (b *Backend) convolution(name string, fused, depthwise bool) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		if err := kernels.FusedInputs(name, inputs, fused); err != nil {
			return err
		}
		x, w := inputs[0], inputs[1]
		info, err := kernels.ComputeConv2DInfo(x.Shape, w.Shape,
			attrs.Ints("strides", defaultConvStride), attrs.Ints("dilations", defaultConvStride),
			attrs.String("pad", "valid"), depthwise)
		if err != nil {
			return err
		}
		ep, err := kernels.FusedTail(name, inputs, attrs, info.OutChannels, b.in)
		if err != nil {
			return err
		}
		xBuf, wBuf := b.in(x), b.in(w)
		out.Shape = append(out.Shape[:0], info.BatchSize, info.OutHeight, info.OutWidth, info.OutChannels)
		dstBuf := b.outOver(out, tensor.Float32)
		// Each output value is len(w)/outC multiply-adds: fH·fW·inC, or
		// fH·fW for a depthwise convolution.
		outRow, walk := info.OutWidth*info.OutChannels, kernels.NewWalk(info)
		b.parallelFor(info.BatchSize*info.OutHeight, outRow*b.costPerElem(2*len(wBuf)/max(info.OutChannels, 1)), func(lo, hi int) {
			if depthwise {
				walk.Depthwise(xBuf, wBuf, ep, lo*outRow, dstBuf[lo*outRow:hi*outRow])
			} else {
				walk.Conv2D(xBuf, wBuf, ep, lo*outRow, dstBuf[lo*outRow:hi*outRow])
			}
		})
		return nil
	}
}

// matmulDims resolves op(A)[m×k]·op(B)[k×n] from the trailing two dims of
// two rank-`rank` operands.
func matmulDims(name string, rank int, a, x []int, transposeA, transposeB bool) (m, n, k int, err error) {
	if len(a) != rank || len(x) != rank {
		return 0, 0, 0, fmt.Errorf("%s: inputs must be rank %d, got %v and %v", name, rank, a, x)
	}
	m, k = a[rank-2], a[rank-1]
	if transposeA {
		m, k = k, m
	}
	kB, n := x[rank-2], x[rank-1]
	if transposeB {
		kB, n = n, kB
	}
	if k != kB {
		return 0, 0, 0, fmt.Errorf("%s: inner dims mismatch %v x %v", name, a, x)
	}
	return m, n, k, nil
}

func (b *Backend) fusedMatMul(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
	if err := kernels.FusedInputs("_FusedMatMul", inputs, true); err != nil {
		return err
	}
	a, x := inputs[0], inputs[1]
	transposeA := attrs.Bool("transposeA", false)
	transposeB := attrs.Bool("transposeB", false)
	m, n, k, err := matmulDims("_FusedMatMul", 2, a.Shape, x.Shape, transposeA, transposeB)
	if err != nil {
		return err
	}
	ep, err := kernels.FusedTail("_FusedMatMul", inputs, attrs, n, b.in)
	if err != nil {
		return err
	}
	aBuf, bBuf := b.in(a), b.in(x)
	out.Shape = append(out.Shape[:0], m, n)
	dstBuf := b.outInto(out, tensor.Float32)

	b.matmul(m, n, k, aBuf, bBuf, transposeA, transposeB, dstBuf, ep)
	return nil
}

func (b *Backend) batchMatMul(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
	if len(inputs) != 2 {
		return fmt.Errorf("BatchMatMul: got %d inputs, want 2", len(inputs))
	}
	a, x := inputs[0], inputs[1]
	transposeA := attrs.Bool("transposeA", false)
	transposeB := attrs.Bool("transposeB", false)
	m, n, k, err := matmulDims("BatchMatMul", 3, a.Shape, x.Shape, transposeA, transposeB)
	if err != nil {
		return err
	}
	batchA, batchB := a.Shape[0], x.Shape[0]
	batch := max(batchA, batchB)
	if batchA != batchB && batchA != 1 && batchB != 1 {
		return fmt.Errorf("BatchMatMul: incompatible batch dims %d and %d", batchA, batchB)
	}
	aBuf, bBuf := b.in(a), b.in(x)
	out.Shape = append(out.Shape[:0], batch, m, n)
	dst := b.outInto(out, tensor.Float32)
	aMat, bMat := m*k, k*n
	// One matmul per batch element; a size-1 batch dim broadcasts.
	for p := 0; p < batch; p++ {
		aOff := (p % batchA) * aMat
		bOff := (p % batchB) * bMat
		b.matmul(m, n, k, aBuf[aOff:aOff+aMat], bBuf[bOff:bOff+bMat], transposeA, transposeB,
			dst[p*m*n:(p+1)*m*n], kernels.Epilogue{})
	}
	return nil
}
