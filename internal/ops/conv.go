package ops

import (
	"cmp"
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// ConvOpts configures Conv2D-family operations.
type ConvOpts struct {
	// Strides is [strideH, strideW]; nil means [1, 1].
	Strides []int
	// Pad is "same" or "valid"; empty means "valid".
	Pad string
	// Dilations is [dilationH, dilationW]; nil means [1, 1].
	Dilations []int
}

// attrs sets only the fields given: an absent key is the kernels' own
// default, and a default built here would be an allocation per call.
func (o ConvOpts) attrs() kernels.Attrs {
	a := kernels.Attrs{"pad": cmp.Or(o.Pad, "valid")}
	if o.Strides != nil {
		a["strides"] = o.Strides
	}
	if o.Dilations != nil {
		a["dilations"] = o.Dilations
	}
	return a
}

// Conv2D convolves NHWC input x with filter [fh, fw, inC, outC].
func Conv2D(x, filter *tensor.Tensor, opts ConvOpts) *tensor.Tensor {
	return run1("Conv2D", []*tensor.Tensor{x, filter}, opts.attrs())
}

// DepthwiseConv2D convolves each input channel with its own filters:
// filter is [fh, fw, inC, channelMultiplier].
func DepthwiseConv2D(x, filter *tensor.Tensor, opts ConvOpts) *tensor.Tensor {
	return run1("DepthwiseConv2dNative", []*tensor.Tensor{x, filter}, opts.attrs())
}

// SeparableConv2D is a depthwise convolution followed by a 1x1 pointwise
// convolution, the factorization MobileNet is built from.
func SeparableConv2D(x, depthwiseFilter, pointwiseFilter *tensor.Tensor, opts ConvOpts) *tensor.Tensor {
	dw := DepthwiseConv2D(x, depthwiseFilter, opts)
	return Conv2D(dw, pointwiseFilter, ConvOpts{Strides: []int{1, 1}, Pad: "same"})
}

// PoolOpts configures pooling operations.
type PoolOpts struct {
	// FilterSize is [h, w]; nil means [2, 2].
	FilterSize []int
	// Strides is [h, w]; nil defaults to FilterSize.
	Strides []int
	// Pad is "same" or "valid"; empty means "valid".
	Pad string
}

// attrs sets only the fields given, as ConvOpts.attrs does.
func (o PoolOpts) attrs() kernels.Attrs {
	a := kernels.Attrs{"pad": cmp.Or(o.Pad, "valid")}
	if o.FilterSize != nil {
		a["filterSize"] = o.FilterSize
	}
	if o.Strides != nil {
		a["strides"] = o.Strides
	}
	return a
}

// MaxPool computes 2-D max pooling over NHWC input.
func MaxPool(x *tensor.Tensor, opts PoolOpts) *tensor.Tensor {
	return run1("MaxPool", []*tensor.Tensor{x}, opts.attrs())
}

// AvgPool computes 2-D average pooling over NHWC input.
func AvgPool(x *tensor.Tensor, opts PoolOpts) *tensor.Tensor {
	return run1("AvgPool", []*tensor.Tensor{x}, opts.attrs())
}

// GlobalAvgPool averages over the spatial dimensions of NHWC input,
// returning [batch, channels].
func GlobalAvgPool(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(&core.OpError{Kernel: "GlobalAvgPool", Err: fmt.Errorf("input must be rank 4 NHWC, got %v", x.Shape)})
	}
	return Mean(x, []int{1, 2}, false)
}

// BatchNorm normalizes x with the given statistics:
// (x - mean) / sqrt(variance + epsilon) * scale + offset. mean, variance,
// offset and scale broadcast against x (typically shape [C]). A nil offset
// or scale defaults to 0 and 1 respectively.
func BatchNorm(x, mean, variance, offset, scale *tensor.Tensor, epsilon float64) *tensor.Tensor {
	if offset == nil {
		offset = Zeros(mean.Shape...)
	}
	if scale == nil {
		scale = Ones(mean.Shape...)
	}
	return run1("FusedBatchNorm", []*tensor.Tensor{x, mean, variance, offset, scale},
		kernels.Attrs{"varianceEpsilon": epsilon})
}

// convGrad is the gradient of a Conv2D-family kernel: one backward kernel
// per operand, each run only when the tape watches that operand — a
// model's first convolution never needs the gradient w.r.t. the data batch.
func convGrad(inputKernel, filterKernel string) core.WatchedGradFunc {
	return func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs, watched []bool) []*tensor.Tensor {
		dy := dys[0]
		x, filter := inputs[0], inputs[1]
		grads := make([]*tensor.Tensor, 2)
		if watched[0] {
			grads[0] = run1(inputKernel, []*tensor.Tensor{dy, filter}, backAttrs(attrs, "inputShape", x.Shape))
		}
		if watched[1] {
			grads[1] = run1(filterKernel, []*tensor.Tensor{x, dy}, backAttrs(attrs, "filterShape", filter.Shape))
		}
		return grads
	}
}

// backAttrs is a backward window kernel's attributes: its forward kernel's,
// and under key the shape of the operand it differentiates.
func backAttrs(forward kernels.Attrs, key string, shape []int) kernels.Attrs {
	back := kernels.Attrs{key: shape}
	for k, v := range forward {
		back[k] = v
	}
	return back
}

func init() {
	core.RegisterWatchedGradient("Conv2D", convGrad("Conv2DBackpropInput", "Conv2DBackpropFilter"))
	core.RegisterWatchedGradient("DepthwiseConv2dNative",
		convGrad("DepthwiseConv2dNativeBackpropInput", "DepthwiseConv2dNativeBackpropFilter"))
	core.RegisterGradient("MaxPool", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		dx := run1("MaxPoolGrad", []*tensor.Tensor{dys[0], inputs[0]}, attrs)
		return []*tensor.Tensor{dx}
	})
	core.RegisterGradient("AvgPool", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		dx := run1("AvgPoolGrad", []*tensor.Tensor{dys[0]}, backAttrs(attrs, "inputShape", inputs[0].Shape))
		return []*tensor.Tensor{dx}
	})
	core.RegisterGradient("FusedBatchNorm", func(e *core.Engine, dys []*tensor.Tensor, inputs, outputs []*tensor.Tensor, attrs kernels.Attrs) []*tensor.Tensor {
		dy := dys[0]
		x, mean, variance, _, scale := inputs[0], inputs[1], inputs[2], inputs[3], inputs[4]
		eps := attrs.Float("varianceEpsilon", 1e-3)
		invStd := Rsqrt(AddScalar(variance, float32(eps)))
		xCentered := Sub(x, mean)
		// d/dx = dy * scale * invStd
		dx := Mul(dy, Mul(scale, invStd))
		// d/dmean = -sum(dy * scale * invStd)
		dMean := sumToShape(e, Neg(Mul(dy, Mul(scale, invStd))), mean.Shape)
		// d/dvar = sum(dy * scale * (x-mean)) * -0.5 * invStd³
		invStd3 := Mul(Mul(invStd, invStd), invStd)
		dVar := sumToShape(e, Mul(Mul(dy, Mul(scale, xCentered)), MulScalar(invStd3, -0.5)), variance.Shape)
		// d/doffset = sum(dy)
		dOffset := sumToShape(e, dy, inputs[3].Shape)
		// d/dscale = sum(dy * (x-mean) * invStd)
		dScale := sumToShape(e, Mul(dy, Mul(xCentered, invStd)), scale.Shape)
		return []*tensor.Tensor{dx, dMean, dVar, dOffset, dScale}
	})
}
