package webgl

import (
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// registerConvGrad installs the backward convolution and pooling programs,
// so training convolutional models stays entirely device-resident — the
// paper's headline capability of "integrated training and inference on the
// GPU from the browser". Each program body is the range body native runs
// (internal/kernels, on kernels.Walk) over the texel range, behind the
// check the reference kernel runs too: the filter gradients sum over the
// forward pass's taps, and the input gradients are the reference kernel's
// scatter restricted to the range, so every value takes the reference's
// contributions in its order. Each program declares the work of the gather
// the real WebGL backend runs (a fragment shader cannot scatter): per value,
// every (fy, fx) tap that names an output position.
func (b *Backend) registerConvGrad() {
	b.register("Conv2DBackpropInput", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		info, err := kernels.ResolveConvBackprop("Conv2DBackpropInput", inputs, attrs, res)
		if err != nil {
			return err
		}
		_, dyTex := b.input(inputs[0])
		_, wTex := b.input(inputs[1])
		out, err := b.output(res.Shape, res.DType, res)
		if err != nil {
			return err
		}
		pairs, _ := backpropTaps(info)
		work := macWork(out.size, pairs*int64(info.InChannels)*int64(info.OutChannels), 3)
		walk, filter := kernels.NewWalk(info), tensor.ShapeSize(inputs[1].Shape)
		b.run("Conv2DBackpropInput", out, work, func(lo, hi int, dst []float32) {
			wT := make([]float32, filter)
			walk.TransposeFilter(wTex.Floats(), wT)
			walk.InputGrad(dyTex.Floats(), wT, lo, dst)
		})
		return nil
	})

	b.register("Conv2DBackpropFilter", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		info, err := kernels.ResolveConvBackprop("Conv2DBackpropFilter", inputs, attrs, res)
		if err != nil {
			return err
		}
		_, xTex := b.input(inputs[0])
		_, dyTex := b.input(inputs[1])
		out, err := b.output(res.Shape, res.DType, res)
		if err != nil {
			return err
		}
		// Each filter value sums over the forward pass's in-bounds taps.
		work, walk, batch := macWork(out.size, int64(convTaps(info))*int64(info.InChannels)*int64(info.OutChannels), 3), kernels.NewWalk(info), info.BatchSize
		b.run("Conv2DBackpropFilter", out, work, func(lo, hi int, dst []float32) {
			walk.FilterGrad(xTex.Floats(), dyTex.Floats(), batch, lo, dst)
		})
		return nil
	})

	b.register("DepthwiseConv2dNativeBackpropInput", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		info, err := kernels.ResolveConvBackprop("DepthwiseConv2dNativeBackpropInput", inputs, attrs, res)
		if err != nil {
			return err
		}
		_, dyTex := b.input(inputs[0])
		_, wTex := b.input(inputs[1])
		out, err := b.output(res.Shape, res.DType, res)
		if err != nil {
			return err
		}
		pairs, _ := backpropTaps(info)
		work, walk := macWork(out.size, pairs*int64(info.OutChannels), 3), kernels.NewWalk(info)
		b.run("DepthwiseConv2dNativeBackpropInput", out, work, func(lo, hi int, dst []float32) {
			walk.DepthwiseInputGrad(dyTex.Floats(), wTex.Floats(), lo, dst)
		})
		return nil
	})

	b.register("DepthwiseConv2dNativeBackpropFilter", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		info, err := kernels.ResolveConvBackprop("DepthwiseConv2dNativeBackpropFilter", inputs, attrs, res)
		if err != nil {
			return err
		}
		_, xTex := b.input(inputs[0])
		_, dyTex := b.input(inputs[1])
		out, err := b.output(res.Shape, res.DType, res)
		if err != nil {
			return err
		}
		work, walk, batch := macWork(out.size, int64(convTaps(info))*int64(info.OutChannels), 3), kernels.NewWalk(info), info.BatchSize
		b.run("DepthwiseConv2dNativeBackpropFilter", out, work, func(lo, hi int, dst []float32) {
			walk.DepthwiseFilterGrad(xTex.Floats(), dyTex.Floats(), batch, lo, dst)
		})
		return nil
	})

	b.register("MaxPoolGrad", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		info, err := kernels.ResolvePoolGrad("MaxPoolGrad", inputs, attrs, res)
		if err != nil {
			return err
		}
		_, dyTex := b.input(inputs[0])
		_, xTex := b.input(inputs[1])
		out, err := b.output(res.Shape, res.DType, res)
		if err != nil {
			return err
		}
		// Per value: its own x, and per covering window a rescan of the
		// window's cells (fetch + compare) and dy's value (charged as
		// taken: whether this position is the argmax is data).
		c := info.OutChannels
		pairs, cells := backpropTaps(info)
		work := perValue(out.size, 1, 3*aluDecode)
		work.Fetches += int64(c) * (cells + pairs)
		work.ALU += int64(c) * (cells + 2*pairs)
		walk := kernels.NewWalk(info)
		b.run("MaxPoolGrad", out, work, func(lo, hi int, dst []float32) {
			walk.MaxPoolGrad(xTex.Floats(), dyTex.Floats(), lo, dst)
		})
		return nil
	})

	b.register("AvgPoolGrad", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		info, err := kernels.ResolvePoolGrad("AvgPoolGrad", inputs, attrs, res)
		if err != nil {
			return err
		}
		_, dyTex := b.input(inputs[0])
		out, err := b.output(res.Shape, res.DType, res)
		if err != nil {
			return err
		}
		// Per covering window: a recount of its in-bounds cells, one dy
		// fetch, a divide and an add.
		c := info.OutChannels
		pairs, cells := backpropTaps(info)
		work := perValue(out.size, 0, 3*aluDecode)
		work.Fetches += int64(c) * pairs
		work.ALU += int64(c) * (cells + 2*pairs)
		walk := kernels.NewWalk(info)
		b.run("AvgPoolGrad", out, work, func(lo, hi int, dst []float32) {
			walk.AvgPoolGrad(dyTex.Floats(), lo, dst)
		})
		return nil
	})
}
