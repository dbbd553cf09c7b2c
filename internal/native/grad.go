package native

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// The backward kernels model.fit spends its time in, on the convolution
// walk (kernels.Walk): the filter gradient on the range body webgl's
// program runs too, and the input gradient and MaxPoolGrad, which scatter
// over ranges of dy while webgl's programs gather per value — which of the
// two forms both should run is open until the gather is timed on a
// training step.
//
// Each is Float32bits-equal to its reference kernel in internal/kernels,
// not merely close, because every output element receives the same
// contributions in the same order, each one a separately rounded multiply
// then add: the reference scatters in (b, oy, ox, fy, fx) order and skips
// zero x / dy elements; these kernels shard over outputs that share no
// accumulator (filter rows, images), walk (b, oy, ox, fy, fx) in that
// order inside a shard, and get the zero-skip and the rounding from
// vec.GemmRow, vec.AxpyRows and vec.AxpyN. So a model trained on node
// reproduces, bit for bit, the loss history it has with every gradient on
// the reference tier, for every worker count and with the AVX2 cores on or
// off.

func (b *Backend) registerGrad() {
	b.register("Conv2DBackpropFilter", b.conv2DBackpropFilter)
	b.register("Conv2DBackpropInput", b.conv2DBackpropInput)
	b.register("MaxPoolGrad", b.maxPoolGrad)
}

// conv2DBackpropFilter: inputs (x, dy), attr filterShape, on the walk's
// filter-gradient body (kernels.Walk.FilterGrad). Chunks are filter rows:
// no two touch the same accumulator.
func (b *Backend) conv2DBackpropFilter(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
	info, err := kernels.ResolveConvBackprop("Conv2DBackpropFilter", inputs, attrs, out)
	if err != nil {
		return err
	}
	xBuf, dyBuf, outC, batch := b.in(inputs[0]), b.in(inputs[1]), info.OutChannels, info.BatchSize
	dw, walk := b.outOver(out, tensor.Float32), kernels.NewWalk(info)
	b.parallelFor(info.FilterHeight*info.FilterWidth*info.InChannels, 2*batch*info.OutHeight*info.OutWidth*outC, func(lo, hi int) {
		walk.FilterGrad(xBuf, dyBuf, batch, lo*outC, dw[lo*outC:hi*outC])
	})
	return nil
}

// conv2DBackpropInput: inputs (dy, filter), attr inputShape. Each output
// position's dy scatters through the filter into dx on the shared walk
// (kernels.Walk.InputGrad), the filter transposed once per call to
// [fy][oc][fx][ic] so that a filter row's run of taps is contiguous in it
// as it is in dx. A position whose dy is all zero (most of them, behind a
// ReLU and a max pool) costs a gather and nothing else. Images are sharded
// across workers.
func (b *Backend) conv2DBackpropInput(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
	info, err := kernels.ResolveConvBackprop("Conv2DBackpropInput", inputs, attrs, out)
	if err != nil {
		return err
	}
	dyBuf, wBuf := b.in(inputs[0]), b.in(inputs[1])
	dx := b.outInto(out, tensor.Float32)

	inC, outC := info.InChannels, info.OutChannels
	fH, fW := info.FilterHeight, info.FilterWidth
	ocStride := fW * inC // one oc's taps of one filter row
	wT := b.scratchF32.Get(len(wBuf))
	for fy := 0; fy < fH; fy++ {
		for fx := 0; fx < fW; fx++ {
			for ic := 0; ic < inC; ic++ {
				src := ((fy*fW+fx)*inC + ic) * outC
				dst := fy*outC*ocStride + fx*inC + ic
				for oc := 0; oc < outC; oc++ {
					wT[dst+oc*ocStride] = wBuf[src+oc]
				}
			}
		}
	}
	outImg, walk := info.OutHeight*info.OutWidth*outC, kernels.NewWalk(info)
	b.parallelFor(info.BatchSize, 2*outImg*fH*fW*inC, func(lo, hi int) {
		walk.InputGrad(wT, dx, lo*outImg, dyBuf[lo*outImg:hi*outImg])
	})
	b.scratchF32.Put(wT)
	return nil
}

// maxPoolGrad: inputs (dy, x). Each output cell routes its dy to the
// first maximum of its window (none when nothing in the window exceeds
// -Inf, as in the reference): kernels.Walk.PoolGrad. Overlapping windows add
// into the same input cell in (oy, ox) order, so images, not rows, are
// sharded across workers.
func (b *Backend) maxPoolGrad(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
	if len(inputs) != 2 {
		return fmt.Errorf("MaxPoolGrad: got %d inputs, want 2", len(inputs))
	}
	dy, x := inputs[0], inputs[1]
	info, err := poolInfo(x.Shape, attrs)
	if err != nil {
		return fmt.Errorf("MaxPoolGrad: %v", err)
	}
	if !tensor.ShapesEqual(dy.Shape, info.OutShape()) {
		return fmt.Errorf("MaxPoolGrad: dy shape %v != pool output shape %v", dy.Shape, info.OutShape())
	}
	dyBuf, xBuf := b.in(dy), b.in(x)
	out.Shape = append(out.Shape[:0], x.Shape...)
	dx := b.outInto(out, tensor.Float32)

	outImg, walk := info.OutHeight*info.OutWidth*info.OutChannels, kernels.NewWalk(info)
	b.parallelFor(info.BatchSize, outImg*info.FilterHeight*info.FilterWidth, func(lo, hi int) {
		walk.PoolGrad(xBuf, dx, lo*outImg, dyBuf[lo*outImg:hi*outImg])
	})
	return nil
}
