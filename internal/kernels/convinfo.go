package kernels

import "fmt"

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
		return info, fmt.Errorf("conv2d: filter must be rank 4, got %v", filterShape)
	}
	if len(strides) != 2 || len(dilations) != 2 {
		return info, fmt.Errorf("conv2d: strides and dilations must have 2 entries, got %v and %v", strides, dilations)
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
	switch pad {
	case "valid":
		info.OutHeight = (info.InHeight-effH)/info.StrideHeight + 1
		info.OutWidth = (info.InWidth-effW)/info.StrideWidth + 1
	case "same":
		info.OutHeight = ceilDiv(info.InHeight, info.StrideHeight)
		info.OutWidth = ceilDiv(info.InWidth, info.StrideWidth)
		padH := max0((info.OutHeight-1)*info.StrideHeight + effH - info.InHeight)
		padW := max0((info.OutWidth-1)*info.StrideWidth + effW - info.InWidth)
		info.PadTop = padH / 2
		info.PadBottom = padH - info.PadTop
		info.PadLeft = padW / 2
		info.PadRight = padW - info.PadLeft
	default:
		return info, fmt.Errorf("conv2d: padding must be \"same\" or \"valid\", got %q", pad)
	}
	if info.OutHeight <= 0 || info.OutWidth <= 0 {
		return info, fmt.Errorf("conv2d: filter %dx%d larger than input %dx%d with valid padding",
			info.FilterHeight, info.FilterWidth, info.InHeight, info.InWidth)
	}
	return info, nil
}

// ComputePool2DInfo resolves a pooling configuration; filterSize is [h, w].
func ComputePool2DInfo(inShape, filterSize, strides []int, pad string) (Conv2DInfo, error) {
	if len(inShape) != 4 {
		return Conv2DInfo{}, fmt.Errorf("pool2d: input must be rank 4 NHWC, got %v", inShape)
	}
	if len(filterSize) != 2 {
		return Conv2DInfo{}, fmt.Errorf("pool2d: filterSize must have 2 entries, got %v", filterSize)
	}
	// Pooling is a depthwise window op: model it as a conv whose filter
	// preserves channels.
	filterShape := []int{filterSize[0], filterSize[1], inShape[3], 1}
	info, err := ComputeConv2DInfo(inShape, filterShape, strides, []int{1, 1}, pad, true)
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
