package native

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// The backward kernels model.fit spends its time in: the filter gradient
// on vec.GemmRow and vec.AxpyRows, and the input gradient and MaxPoolGrad
// on the convolution walk (kernels.Walk).
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

// backpropInfo resolves the geometry of the forward convolution a
// Conv2DBackprop kernel differentiates and checks dy against its output.
func backpropInfo(name string, xShape, wShape, dyShape []int, attrs kernels.Attrs) (kernels.Conv2DInfo, error) {
	info, err := kernels.ComputeConv2DInfo(xShape, wShape,
		attrs.Ints("strides", defaultConvStride), attrs.Ints("dilations", defaultConvStride),
		attrs.String("pad", "valid"), false)
	if err != nil {
		return info, fmt.Errorf("%s: %v", name, err)
	}
	if !tensor.ShapesEqual(dyShape, info.OutShape()) {
		return info, fmt.Errorf("%s: dy shape %v != conv output shape %v", name, dyShape, info.OutShape())
	}
	return info, nil
}

// outRange returns the output positions [lo, hi) whose input coordinate
// o*stride + offset lies inside [0, size): the transpose of
// kernels.TapRange, for a fixed filter tap instead of a fixed output
// position.
func outRange(offset, stride, outSize, size int) (lo, hi int) {
	if offset < 0 {
		lo = (-offset + stride - 1) / stride
	}
	if size > offset {
		hi = min(outSize, (size-offset+stride-1)/stride)
	}
	return lo, max(lo, hi)
}

// conv2DBackpropFilter: inputs (x, dy), attr filterShape. The filter
// gradient is fh·fw·inC rows of outC; row (fy, fx, ic) accumulates
// x[b, iy, ix, ic]·dy[b, oy, ox, :] over every output position whose tap
// (fy, fx) lands inside the input. Along one output row those x elements
// sit strideW·inC apart and the dy rows are contiguous, so the row's share
// of (b, oy) is one vec.GemmRow with the x elements as the strided lhs — or,
// when a row is one or two vector steps, one vec.AxpyRows for all the input
// channels of the tap, which share that run of dy. Rows are sharded across
// workers: no two chunks touch the same accumulator.
func (b *Backend) conv2DBackpropFilter(inputs []kernels.Input, attrs kernels.Attrs, out *kernels.TensorInfo) error {
	if len(inputs) != 2 {
		return fmt.Errorf("Conv2DBackpropFilter: got %d inputs, want 2", len(inputs))
	}
	x, dy := inputs[0], inputs[1]
	filterShape := attrs.Ints("filterShape", nil)
	info, err := backpropInfo("Conv2DBackpropFilter", x.Shape, filterShape, dy.Shape, attrs)
	if err != nil {
		return err
	}
	xBuf, dyBuf := b.in(x), b.in(dy)
	out.Shape = append(out.Shape[:0], filterShape...)
	dw := b.outInto(out, tensor.Float32)

	inC, outC := info.InChannels, info.OutChannels
	inRow := info.InWidth * inC
	inImg := info.InHeight * inRow
	outRow := info.OutWidth * outC
	outImg := info.OutHeight * outRow
	// Scalar geometry copies keep the Conv2DInfo struct out of the closure
	// (see conv2D).
	batch, inH, inW, outH, outW := info.BatchSize, info.InHeight, info.InWidth, info.OutHeight, info.OutWidth
	fH, fW := info.FilterHeight, info.FilterWidth
	sH, sW := info.StrideHeight, info.StrideWidth
	dH, dW := info.DilationHeight, info.DilationWidth
	padT, padL := info.PadTop, info.PadLeft
	aStride := sW * inC
	narrow := vec.NarrowRow(outC)
	b.parallelFor(fH*fW*inC, 2*batch*outH*outW*outC, func(lo, hi int) {
		var nz vec.NZList
		// (b, oy) outermost keeps one dy row and the chunk's dw rows in L1
		// while every filter row takes its share of them; each dw row
		// still sees its contributions in (b, oy, ox) order.
		for bb := 0; bb < batch; bb++ {
			for oy := 0; oy < outH; oy++ {
				yCorner := oy*sH - padT
				fyLo, fyHi := kernels.TapRange(yCorner, dH, fH, inH)
				for fy := fyLo; fy < fyHi; fy++ {
					xRow := bb*inImg + (yCorner+fy*dH)*inRow
					for fx := 0; fx < fW; fx++ {
						tapRow := (fy*fW + fx) * inC
						icLo, icHi := max(lo-tapRow, 0), min(hi-tapRow, inC)
						if icLo >= icHi {
							continue
						}
						xOff := fx*dW - padL
						oxLo, oxHi := outRange(xOff, sW, outW, inW)
						if oxLo == oxHi {
							continue
						}
						span := (oxHi-oxLo-1)*aStride + 1
						xBase := xRow + (oxLo*sW+xOff)*inC
						dyBase := bb*outImg + oy*outRow + oxLo*outC
						dyRun := dyBuf[dyBase : dyBase+(oxHi-oxLo)*outC]
						if narrow {
							vec.AxpyRows(dw[(tapRow+icLo)*outC:(tapRow+icHi)*outC], outC, xBuf[xBase+icLo:], 1, aStride, oxHi-oxLo, dyRun)
							continue
						}
						for ic := icLo; ic < icHi; ic++ {
							r := tapRow + ic
							vec.GemmRow(dw[r*outC:(r+1)*outC], xBuf[xBase+ic:xBase+ic+span], aStride, dyRun, outC, &nz)
						}
					}
				}
			}
		}
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
	if len(inputs) != 2 {
		return fmt.Errorf("Conv2DBackpropInput: got %d inputs, want 2", len(inputs))
	}
	dy, w := inputs[0], inputs[1]
	inShape := attrs.Ints("inputShape", nil)
	info, err := backpropInfo("Conv2DBackpropInput", inShape, w.Shape, dy.Shape, attrs)
	if err != nil {
		return err
	}
	dyBuf, wBuf := b.in(dy), b.in(w)
	out.Shape = append(out.Shape[:0], inShape...)
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
