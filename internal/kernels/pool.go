package kernels

import (
	"math"

	"repro/internal/tensor"
)

// defaultPoolSize is the [2, 2] default of filterSize, package-level: a
// literal at the call site is an allocation per pool-gradient dispatch.
var defaultPoolSize = []int{2, 2}

func poolAttrs(attrs Attrs) (filterSize, strides []int, pad string) {
	filterSize = attrs.Ints("filterSize", defaultPoolSize)
	strides = attrs.Ints("strides", filterSize)
	pad = attrs.String("pad", "valid")
	return filterSize, strides, pad
}

// ResolvePoolGrad checks a pool gradient — MaxPoolGrad's (dy, x), or
// AvgPoolGrad's dy and attr inputShape — and resolves the forward pool it
// differentiates, whose output dy must be; out is the gradient, of the
// input's shape.
func ResolvePoolGrad(name string, inputs []Input, attrs Attrs, out *TensorInfo) (Conv2DInfo, error) {
	n, x := 1, attrs.Ints("inputShape", nil)
	if name == "MaxPoolGrad" {
		n = 2
	}
	if err := wantInputs(name, inputs, n); err != nil {
		return Conv2DInfo{}, err
	}
	if n == 2 {
		x = inputs[1].Shape
	}
	filterSize, strides, pad := poolAttrs(attrs)
	info, err := ComputePool2DInfo(x, filterSize, strides, pad)
	if err != nil {
		return info, errIn(name, "%v", err)
	}
	if dy := inputs[0].Shape; !tensor.ShapesEqual(dy, info.OutShape()) {
		return info, errIn(name, "dy shape %v != pool output shape %v", dy, info.OutShape())
	}
	out.Shape, out.DType = append(out.Shape[:0], x...), tensor.Float32
	return info, nil
}

func init() {
	// MaxPool computes 2-D max pooling over NHWC input.
	RegisterRef("MaxPool", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("MaxPool", inputs, 1); err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		filterSize, strides, pad := poolAttrs(attrs)
		info, err := ComputePool2DInfo(x.Shape, filterSize, strides, pad)
		if err != nil {
			return Buffer{}, errIn("MaxPool", "%v", err)
		}
		out := NewBuffer(info.OutShape(), x.DType)
		poolForEach(info, func(outIdx int, w poolWindow) {
			best := float32(math.Inf(-1))
			w.each(func(inIdx int) {
				if v := x.Data[inIdx]; v > best {
					best = v
				}
			})
			out.Data[outIdx] = best
		})
		return out, nil
	})

	// AvgPool computes 2-D average pooling; padding cells are excluded
	// from the average, matching TensorFlow semantics.
	RegisterRef("AvgPool", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("AvgPool", inputs, 1); err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		filterSize, strides, pad := poolAttrs(attrs)
		info, err := ComputePool2DInfo(x.Shape, filterSize, strides, pad)
		if err != nil {
			return Buffer{}, errIn("AvgPool", "%v", err)
		}
		out := NewBuffer(info.OutShape(), tensor.Float32)
		poolForEach(info, func(outIdx int, w poolWindow) {
			var sum float32
			w.each(func(inIdx int) { sum += x.Data[inIdx] })
			if count := w.rows * w.cols; count > 0 {
				out.Data[outIdx] = sum / float32(count)
			}
		})
		return out, nil
	})

	// MaxPoolGrad routes dy to the max position of each window. Inputs
	// are (dy, x).
	RegisterRef("MaxPoolGrad", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		var res TensorInfo
		info, err := ResolvePoolGrad("MaxPoolGrad", inputsOf(inputs), attrs, &res)
		if err != nil {
			return Buffer{}, err
		}
		dy, x := inputs[0], inputs[1]
		dx := NewBuffer(res.Shape, tensor.Float32)
		poolForEach(info, func(outIdx int, w poolWindow) {
			best := float32(math.Inf(-1))
			bestIdx := -1
			w.each(func(inIdx int) {
				if v := x.Data[inIdx]; v > best {
					best = v
					bestIdx = inIdx
				}
			})
			if bestIdx >= 0 {
				dx.Data[bestIdx] += dy.Data[outIdx]
			}
		})
		return dx, nil
	})

	// AvgPoolGrad distributes dy evenly over each window. Input is dy;
	// attr "inputShape" gives the original input shape.
	RegisterRef("AvgPoolGrad", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		var res TensorInfo
		info, err := ResolvePoolGrad("AvgPoolGrad", inputsOf(inputs), attrs, &res)
		if err != nil {
			return Buffer{}, err
		}
		dy := inputs[0]
		dx := NewBuffer(res.Shape, tensor.Float32)
		poolForEach(info, func(outIdx int, w poolWindow) {
			count := w.rows * w.cols
			if count == 0 {
				return
			}
			share := dy.Data[outIdx] / float32(count)
			w.each(func(inIdx int) { dx.Data[inIdx] += share })
		})
		return dx, nil
	})
}

// poolWindow is the part of one output cell's receptive field that lies
// inside the input, for one channel: rows × cols input cells, the first
// at flat index base.
type poolWindow struct {
	base, rows, cols     int
	rowStride, colStride int
}

// each visits the window's input indices, row by row. visit does not
// escape, so a closure passed here lives on the caller's stack.
func (w poolWindow) each(visit func(inIdx int)) {
	for r := 0; r < w.rows; r++ {
		idx := w.base + r*w.rowStride
		for c := 0; c < w.cols; c++ {
			visit(idx)
			idx += w.colStride
		}
	}
}

// poolForEach iterates every (batch, output y, output x, channel) cell of a
// pooling op and hands the body the cell's clipped window — a value, not
// an iterator closure, so a cell costs no heap object.
func poolForEach(info Conv2DInfo, body func(outIdx int, w poolWindow)) {
	c := info.OutChannels
	inRow := info.InWidth * c
	inImg := info.InHeight * inRow
	outIdx := 0
	for b := 0; b < info.BatchSize; b++ {
		for oy := 0; oy < info.OutHeight; oy++ {
			yCorner := oy*info.StrideHeight - info.PadTop
			yLo, yHi := clipWindow(yCorner, info.FilterHeight, info.InHeight)
			for ox := 0; ox < info.OutWidth; ox++ {
				xCorner := ox*info.StrideWidth - info.PadLeft
				xLo, xHi := clipWindow(xCorner, info.FilterWidth, info.InWidth)
				w := poolWindow{
					base: b*inImg + yLo*inRow + xLo*c,
					rows: yHi - yLo, cols: xHi - xLo,
					rowStride: inRow, colStride: c,
				}
				for ch := 0; ch < c; ch++ {
					body(outIdx, w)
					w.base++
					outIdx++
				}
			}
		}
	}
}

// clipWindow clips the input span [corner, corner+size) to [0, limit).
func clipWindow(corner, size, limit int) (lo, hi int) {
	lo, hi = max(corner, 0), min(corner+size, limit)
	return lo, max(lo, hi)
}
