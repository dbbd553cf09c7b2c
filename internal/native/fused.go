package native

import (
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
	b.register("BatchMatMul", b.matMulKernel("BatchMatMul"))
	b.register("_FusedMatMul", b.matMulKernel("_FusedMatMul"))
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
		b.parallelFor(info.BatchSize*info.OutHeight, outRow*max(2*len(wBuf)/max(info.OutChannels, 1), 1), func(lo, hi int) {
			if depthwise {
				walk.Depthwise(xBuf, wBuf, ep, lo*outRow, dstBuf[lo*outRow:hi*outRow])
			} else {
				walk.Conv2D(xBuf, wBuf, ep, lo*outRow, dstBuf[lo*outRow:hi*outRow])
			}
		})
		return nil
	}
}

// matMulKernel is BatchMatMul and _FusedMatMul on the matmul body both host
// backends share (kernels.MatMul): the output rows of every batch element
// sharded across the worker pool at once. A chunk is whole rows, so each
// value's accumulation over k is one loop in one chunk, bit-identical for
// every worker count.
func (b *Backend) matMulKernel(name string) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		g, err := kernels.ResolveMatMul(name, inputs, attrs, out)
		if err != nil {
			return err
		}
		ep, err := kernels.FusedTail(name, inputs, attrs, g.N(), b.in)
		if err != nil {
			return err
		}
		aBuf, bBuf := b.in(inputs[0]), b.in(inputs[1])
		dst := b.outOver(out, tensor.Float32)
		b.parallelFor(g.Rows(), 2*g.K()*g.N(), func(lo, hi int) {
			g.Fill(aBuf, bBuf, ep, lo*g.N(), dst[lo*g.N():hi*g.N()])
		})
		return nil
	}
}
