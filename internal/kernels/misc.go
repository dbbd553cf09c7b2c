package kernels

import (
	"math"

	"repro/internal/tensor"
)

func init() {
	// Cast converts between logical dtypes. Because all storage is
	// float32, float->int truncates values and ->bool collapses non-zero
	// to 1.
	RegisterRef("Cast", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("Cast", inputs, 1); err != nil {
			return Buffer{}, err
		}
		x := inputs[0]
		dtypeName := attrs.String("dtype", "float32")
		dt, err := tensor.ParseDataType(dtypeName)
		if err != nil {
			return Buffer{}, errIn("Cast", "%v", err)
		}
		out := NewBuffer(x.Shape, dt)
		switch dt {
		case tensor.Int32:
			for i, v := range x.Data {
				out.Data[i] = float32(math.Trunc(float64(v)))
			}
		case tensor.Bool:
			for i, v := range x.Data {
				out.Data[i] = toBool(v != 0)
			}
		default:
			copy(out.Data, x.Data)
		}
		return out, nil
	})

	// Fill creates a tensor of attr "shape" filled with attr "value".
	RegisterRef("Fill", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("Fill", inputs, 0); err != nil {
			return Buffer{}, err
		}
		shape := attrs.Ints("shape", nil)
		value := float32(attrs.Float("value", 0))
		dt, err := tensor.ParseDataType(attrs.String("dtype", "float32"))
		if err != nil {
			return Buffer{}, errIn("Fill", "%v", err)
		}
		out := NewBuffer(shape, dt)
		if value != 0 {
			for i := range out.Data {
				out.Data[i] = value
			}
		}
		return out, nil
	})

	// Range produces [start, stop) with the given step.
	RegisterRef("Range", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("Range", inputs, 0); err != nil {
			return Buffer{}, err
		}
		start := attrs.Float("start", 0)
		stop := attrs.Float("stop", 0)
		step := attrs.Float("step", 1)
		if step == 0 {
			return Buffer{}, errIn("Range", "step must be non-zero")
		}
		if (stop-start)/step < 0 {
			return Buffer{}, errIn("Range", "step %g has wrong sign for start %g stop %g", step, start, stop)
		}
		n := int(math.Ceil((stop - start) / step))
		if n < 0 {
			n = 0
		}
		dt, err := tensor.ParseDataType(attrs.String("dtype", "float32"))
		if err != nil {
			return Buffer{}, errIn("Range", "%v", err)
		}
		out := NewBuffer([]int{n}, dt)
		for i := 0; i < n; i++ {
			out.Data[i] = float32(start + float64(i)*step)
		}
		return out, nil
	})

	// OneHot expands integer labels into one-hot rows.
	RegisterRef("OneHot", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("OneHot", inputs, 1); err != nil {
			return Buffer{}, err
		}
		indices := inputs[0]
		depth := attrs.Int("depth", 0)
		onValue := float32(attrs.Float("onValue", 1))
		offValue := float32(attrs.Float("offValue", 0))
		if depth <= 0 {
			return Buffer{}, errIn("OneHot", "depth must be positive, got %d", depth)
		}
		outShape := append(tensor.CopyShape(indices.Shape), depth)
		out := NewBuffer(outShape, tensor.Float32)
		if offValue != 0 {
			for i := range out.Data {
				out.Data[i] = offValue
			}
		}
		for i, v := range indices.Data {
			idx := int(v)
			if idx >= 0 && idx < depth {
				out.Data[i*depth+idx] = onValue
			}
		}
		return out, nil
	})

	// Select picks from (t, f) according to a condition tensor, with
	// broadcasting across all three inputs.
	RegisterRef("Select", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("Select", inputs, 3); err != nil {
			return Buffer{}, err
		}
		cond, tVal, fVal := inputs[0], inputs[1], inputs[2]
		shape, err := tensor.BroadcastShapes(tVal.Shape, fVal.Shape)
		if err != nil {
			return Buffer{}, errIn("Select", "%v", err)
		}
		shape, err = tensor.BroadcastShapes(shape, cond.Shape)
		if err != nil {
			return Buffer{}, errIn("Select", "%v", err)
		}
		out := NewBuffer(shape, tVal.DType)
		cs := broadcastStrides(cond.Shape, shape)
		ts := broadcastStrides(tVal.Shape, shape)
		fs := broadcastStrides(fVal.Shape, shape)
		size := out.Size()
		rank := len(shape)
		coords := make([]int, rank)
		ci, ti, fi := 0, 0, 0
		for outIdx := 0; outIdx < size; outIdx++ {
			if cond.Data[ci] != 0 {
				out.Data[outIdx] = tVal.Data[ti]
			} else {
				out.Data[outIdx] = fVal.Data[fi]
			}
			for d := rank - 1; d >= 0; d-- {
				coords[d]++
				ci += cs[d]
				ti += ts[d]
				fi += fs[d]
				if coords[d] < shape[d] {
					break
				}
				coords[d] = 0
				ci -= shape[d] * cs[d]
				ti -= shape[d] * ts[d]
				fi -= shape[d] * fs[d]
			}
		}
		return out, nil
	})

	// FusedBatchNorm normalizes x with running statistics:
	// out = (x - mean) / sqrt(variance + eps) * scale + offset.
	// Inputs: x, mean, variance, offset, scale. mean/variance/offset/
	// scale broadcast against x (typically shape [C]).
	RegisterRef("FusedBatchNorm", func(inputs []Buffer, attrs Attrs) (Buffer, error) {
		if err := wantInputs("FusedBatchNorm", inputs, 5); err != nil {
			return Buffer{}, err
		}
		x, mean, variance, offset, scale := inputs[0], inputs[1], inputs[2], inputs[3], inputs[4]
		eps := float32(attrs.Float("varianceEpsilon", 1e-3))
		out := NewBuffer(x.Shape, tensor.Float32)
		shape := x.Shape
		ms := broadcastStrides(mean.Shape, shape)
		vs := broadcastStrides(variance.Shape, shape)
		os := broadcastStrides(offset.Shape, shape)
		ss := broadcastStrides(scale.Shape, shape)
		rank := len(shape)
		coords := make([]int, rank)
		mi, vi, oi, si := 0, 0, 0, 0
		for idx := 0; idx < x.Size(); idx++ {
			norm := (x.Data[idx] - mean.Data[mi]) / float32(math.Sqrt(float64(variance.Data[vi]+eps)))
			out.Data[idx] = norm*scale.Data[si] + offset.Data[oi]
			for d := rank - 1; d >= 0; d-- {
				coords[d]++
				mi += ms[d]
				vi += vs[d]
				oi += os[d]
				si += ss[d]
				if coords[d] < shape[d] {
					break
				}
				coords[d] = 0
				mi -= shape[d] * ms[d]
				vi -= shape[d] * vs[d]
				oi -= shape[d] * os[d]
				si -= shape[d] * ss[d]
			}
		}
		return out, nil
	})
}
