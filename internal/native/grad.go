package native

import (
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// The backward window kernels model.fit spends its time in, each on the
// range body webgl's program runs too (internal/kernels, on kernels.Walk):
// the filter gradients fill rows of the filter, and the input gradients —
// the convolution's, the depthwise convolution's and the two pools' — fill
// whole images of dx, where the reference kernel's scatter restricted to a
// range is the scatter itself.
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
	b.register("DepthwiseConv2dNativeBackpropFilter", b.depthwiseBackpropFilter)
	b.register("DepthwiseConv2dNativeBackpropInput", b.depthwiseBackpropInput)
	b.register("MaxPoolGrad", b.poolGrad("MaxPoolGrad"))
	b.register("AvgPoolGrad", b.poolGrad("AvgPoolGrad"))
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

// conv2DBackpropInput: inputs (dy, filter), attr inputShape, on the walk's
// input-gradient body (kernels.Walk.InputGrad) over whole images, the
// filter transposed once per call (Walk.TransposeFilter). A position whose
// dy is all zero (most of them, behind a ReLU and a max pool) costs a
// gather and nothing else.
func (b *Backend) conv2DBackpropInput(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
	info, err := kernels.ResolveConvBackprop("Conv2DBackpropInput", inputs, attrs, out)
	if err != nil {
		return err
	}
	dyBuf, wBuf := b.in(inputs[0]), b.in(inputs[1])
	dx, walk := b.outOver(out, tensor.Float32), kernels.NewWalk(info)
	wT := b.scratchF32.Get(len(wBuf))
	walk.TransposeFilter(wBuf, wT)
	inImg, outImg := info.InHeight*info.InWidth*info.InChannels, info.OutHeight*info.OutWidth*info.OutChannels
	b.parallelFor(info.BatchSize, 2*outImg*info.FilterHeight*info.FilterWidth*info.InChannels, func(lo, hi int) {
		walk.InputGrad(dyBuf, wT, lo*inImg, dx[lo*inImg:hi*inImg])
	})
	b.scratchF32.Put(wT)
	return nil
}

// depthwiseBackpropFilter: inputs (x, dy), attr filterShape
// (kernels.Walk.DepthwiseFilterGrad). Chunks are one tap's input channel,
// the channel's multipliers.
func (b *Backend) depthwiseBackpropFilter(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
	info, err := kernels.ResolveConvBackprop("DepthwiseConv2dNativeBackpropFilter", inputs, attrs, out)
	if err != nil {
		return err
	}
	xBuf, dyBuf, mult, batch := b.in(inputs[0]), b.in(inputs[1]), info.ChannelMultiplier, info.BatchSize
	dw, walk := b.outOver(out, tensor.Float32), kernels.NewWalk(info)
	b.parallelFor(info.FilterHeight*info.FilterWidth*info.InChannels, 2*batch*info.OutHeight*info.OutWidth*mult, func(lo, hi int) {
		walk.DepthwiseFilterGrad(xBuf, dyBuf, batch, lo*mult, dw[lo*mult:hi*mult])
	})
	return nil
}

// depthwiseBackpropInput: inputs (dy, filter), attr inputShape
// (kernels.Walk.DepthwiseInputGrad), over whole images.
func (b *Backend) depthwiseBackpropInput(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
	info, err := kernels.ResolveConvBackprop("DepthwiseConv2dNativeBackpropInput", inputs, attrs, out)
	if err != nil {
		return err
	}
	dyBuf, wBuf := b.in(inputs[0]), b.in(inputs[1])
	dx, walk := b.outOver(out, tensor.Float32), kernels.NewWalk(info)
	inImg, outImg := info.InHeight*info.InWidth*info.InChannels, info.OutHeight*info.OutWidth*info.OutChannels
	b.parallelFor(info.BatchSize, 2*outImg*info.FilterHeight*info.FilterWidth, func(lo, hi int) {
		walk.DepthwiseInputGrad(dyBuf, wBuf, lo*inImg, dx[lo*inImg:hi*inImg])
	})
	return nil
}

// poolGrad is MaxPoolGrad — inputs (dy, x) — and AvgPoolGrad — dy, attr
// inputShape — over whole images of dx (kernels.Walk.MaxPoolGrad,
// Walk.AvgPoolGrad): overlapping windows add into the same input cell in
// (oy, ox) order, as in the reference kernels.
func (b *Backend) poolGrad(name string) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
		info, err := kernels.ResolvePoolGrad(name, inputs, attrs, out)
		if err != nil {
			return err
		}
		dyBuf := b.in(inputs[0])
		dx, walk := b.outOver(out, tensor.Float32), kernels.NewWalk(info)
		inImg := info.InHeight * info.InWidth * info.InChannels
		cost := info.OutHeight * info.OutWidth * info.OutChannels * info.FilterHeight * info.FilterWidth
		if name == "AvgPoolGrad" {
			b.parallelFor(info.BatchSize, cost, func(lo, hi int) {
				walk.AvgPoolGrad(dyBuf, lo*inImg, dx[lo*inImg:hi*inImg])
			})
			return nil
		}
		xBuf := b.in(inputs[1])
		b.parallelFor(info.BatchSize, cost, func(lo, hi int) {
			walk.MaxPoolGrad(xBuf, dyBuf, lo*inImg, dx[lo*inImg:hi*inImg])
		})
		return nil
	}
}
