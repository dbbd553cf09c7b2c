package kernels

import (
	"fmt"
	"slices"
)

// Conv2DInfo describes a resolved 2-D convolution or pooling: input and
// output spatial geometry plus padding amounts. It is shared by the
// reference kernels, the native backend's fast kernels, and the WebGL
// backend's shader programs, the same way TensorFlow.js shares a conv_util
// module across backends.
type Conv2DInfo struct {
	BatchSize  int
	InHeight   int
	InWidth    int
	InChannels int

	OutHeight   int
	OutWidth    int
	OutChannels int

	FilterHeight int
	FilterWidth  int

	StrideHeight int
	StrideWidth  int

	DilationHeight int
	DilationWidth  int

	PadTop    int
	PadLeft   int
	PadBottom int
	PadRight  int

	// ChannelMultiplier is set for depthwise convolutions.
	ChannelMultiplier int
}

// effectiveFilterSize accounts for dilation.
func effectiveFilterSize(filter, dilation int) int {
	return dilation*(filter-1) + 1
}

// ComputeConv2DInfo resolves a convolution configuration. inShape is NHWC;
// filterShape is [fh, fw, inC, outC] for regular convolutions or
// [fh, fw, inC, channelMultiplier] when depthwise is true. pad is "same" or
// "valid". strides and dilations are [h, w].
func ComputeConv2DInfo(inShape, filterShape []int, strides, dilations []int, pad string, depthwise bool) (Conv2DInfo, error) {
	var info Conv2DInfo
	if len(inShape) != 4 {
		return info, fmt.Errorf("conv2d: input must be rank 4 NHWC, got %v", inShape)
	}
	if len(filterShape) != 4 {
		// A copy, so that filterShape does not escape: a pool's is a
		// literal on its caller's stack.
		return info, fmt.Errorf("conv2d: filter must be rank 4, got %v", slices.Clone(filterShape))
	}
	if len(strides) != 2 || len(dilations) != 2 {
		return info, fmt.Errorf("conv2d: strides and dilations must have 2 entries, got %v and %v", strides, dilations)
	}
	for _, s := range [...]int{strides[0], strides[1], dilations[0], dilations[1]} {
		if s < 1 {
			return info, fmt.Errorf("conv2d: strides and dilations must be at least 1, got %v and %v", strides, dilations)
		}
	}
	if pad != "same" && pad != "valid" {
		return info, fmt.Errorf("conv2d: padding must be \"same\" or \"valid\", got %q", pad)
	}
	info.BatchSize, info.InHeight, info.InWidth, info.InChannels = inShape[0], inShape[1], inShape[2], inShape[3]
	info.FilterHeight, info.FilterWidth = filterShape[0], filterShape[1]
	info.StrideHeight, info.StrideWidth = strides[0], strides[1]
	info.DilationHeight, info.DilationWidth = dilations[0], dilations[1]
	if filterShape[2] != info.InChannels {
		return info, fmt.Errorf("conv2d: filter in-channels %d != input channels %d", filterShape[2], info.InChannels)
	}
	if depthwise {
		info.ChannelMultiplier = filterShape[3]
		info.OutChannels = info.InChannels * info.ChannelMultiplier
	} else {
		info.OutChannels = filterShape[3]
	}

	effH := effectiveFilterSize(info.FilterHeight, info.DilationHeight)
	effW := effectiveFilterSize(info.FilterWidth, info.DilationWidth)
	info.OutHeight = outExtent(info.InHeight, effH, info.StrideHeight, pad)
	info.OutWidth = outExtent(info.InWidth, effW, info.StrideWidth, pad)
	if info.OutHeight <= 0 || info.OutWidth <= 0 {
		return info, fmt.Errorf("conv2d: filter %dx%d larger than input %dx%d with %s padding",
			info.FilterHeight, info.FilterWidth, info.InHeight, info.InWidth, pad)
	}
	if pad == "same" {
		padH := max0((info.OutHeight-1)*info.StrideHeight + effH - info.InHeight)
		padW := max0((info.OutWidth-1)*info.StrideWidth + effW - info.InWidth)
		info.PadTop = padH / 2
		info.PadBottom = padH - info.PadTop
		info.PadLeft = padW / 2
		info.PadRight = padW - info.PadLeft
	}
	return info, nil
}

// outExtent is one spatial axis's output extent for a window of eff input
// values (its dilation included) moved stride ≥ 1 values at a time over in
// values: ceil(in/stride) positions with "same" padding, with "valid" the
// positions where the whole window lies inside the input — none, 0, when
// the window is larger than the input.
func outExtent(in, eff, stride int, pad string) int {
	switch {
	case pad == "same":
		return ceilDiv(in, stride)
	case in < eff:
		return 0
	}
	return (in-eff)/stride + 1
}

// ComputePool2DInfo resolves a pooling configuration; filterSize is [h, w].
func ComputePool2DInfo(inShape, filterSize, strides []int, pad string) (Conv2DInfo, error) {
	if len(inShape) != 4 {
		return Conv2DInfo{}, fmt.Errorf("pool2d: input must be rank 4 NHWC, got %v", inShape)
	}
	if len(filterSize) != 2 {
		return Conv2DInfo{}, fmt.Errorf("pool2d: filterSize must have 2 entries, got %v", filterSize)
	}
	// An empty window would pass the conv check below (its filter has no
	// taps) and pool nothing: -Inf from MaxPool, zeros from AvgPool.
	if filterSize[0] < 1 || filterSize[1] < 1 {
		return Conv2DInfo{}, fmt.Errorf("pool2d: filterSize must be at least 1, got %v", slices.Clone(filterSize))
	}
	// Pooling is a depthwise window op: model it as a conv whose filter
	// preserves channels.
	filterShape := []int{filterSize[0], filterSize[1], inShape[3], 1}
	info, err := ComputeConv2DInfo(inShape, filterShape, strides, unitStrides, pad, true)
	if err != nil {
		return Conv2DInfo{}, err
	}
	info.OutChannels = inShape[3]
	info.ChannelMultiplier = 0
	return info, nil
}

// OutShape returns the NHWC output shape of the resolved convolution.
func (c Conv2DInfo) OutShape() []int {
	return []int{c.BatchSize, c.OutHeight, c.OutWidth, c.OutChannels}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func max0(x int) int {
	if x < 0 {
		return 0
	}
	return x
}

// TapRange returns the filter taps [lo, hi) of one axis whose input
// coordinate corner + t*dilation lies inside [0, size): padding clips a
// filter to a contiguous run of taps along each axis.
func TapRange(corner, dilation, taps, size int) (lo, hi int) {
	if corner < 0 {
		lo = (-corner + dilation - 1) / dilation
	}
	hi = min(taps, (size-corner+dilation-1)/dilation)
	return lo, max(lo, hi)
}
