package webgl

import (
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// registerConv installs the convolution and pooling shader programs. Each
// program body computes the output values of the texel range the device
// hands it with the walk native runs on its output rows (kernels.Walk): a
// range's partial head
// and tail pixels and, between them, runs of whole pixels whose windows
// padding clips alike, each handed to a vector core — the structure of the
// tf.conv2d() fragment shader described in Section 4.1 ("the GLSL
// implementation of tf.conv2d() uses the auto-generated getA(batch, row,
// column, depth) method to sample from a 4D tensor"), with the per-value
// work that every value of a pixel shares done once.
func (b *Backend) registerConv() {
	b.register("Conv2D", b.convolution("Conv2D", false, false))
	b.register("DepthwiseConv2dNative", b.convolution("DepthwiseConv2dNative", false, true))

	pool := func(name string, pixel func(dst, x []float32, rowStride, tapStride, rows, taps int)) kernels.OverrideKernel {
		return func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
			if len(inputs) != 1 {
				return errf("%s: got %d inputs, want 1", name, len(inputs))
			}
			x := inputs[0]
			filterSize := attrs.Ints("filterSize", []int{2, 2})
			strides := attrs.Ints("strides", filterSize)
			pad := attrs.String("pad", "valid")
			info, err := kernels.ComputePool2DInfo(x.Shape, filterSize, strides, pad)
			if err != nil {
				return err
			}
			_, xTex := b.input(x)
			out, err := b.output(info.OutShape(), x.DType, res)
			if err != nil {
				return err
			}
			// One fetch and one compare-or-add per in-bounds tap; the
			// average divides once.
			taps := convTaps(info) * info.OutChannels
			work := perValue(out.size, 0, 3*aluDecode)
			work.Fetches += int64(taps)
			work.ALU += int64(taps)
			if name == "AvgPool" {
				work.ALU += int64(out.size)
			}
			walk := kernels.NewWalk(info)
			b.run(name, out, work, func(lo, hi int, dst []float32) {
				walk.Pool(xTex.Floats(), pixel, lo, dst)
			})
			return nil
		}
	}
	b.register("MaxPool", pool("MaxPool", vec.PoolMax))
	b.register("AvgPool", pool("AvgPool", vec.PoolAvg))
}

// convolution is the Conv2D and FusedConv2D program, and with depthwise
// set the DepthwiseConv2dNative and FusedDepthwiseConv2dNative one: every
// output value is the sum, in (fy, fx[, ic]) order, of input × filter over
// the in-bounds taps, then the epilogue.
func (b *Backend) convolution(name string, fused, depthwise bool) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		if err := kernels.FusedInputs(name, inputs, fused); err != nil {
			return err
		}
		x, w := inputs[0], inputs[1]
		info, err := kernels.ComputeConv2DInfo(x.Shape, w.Shape,
			attrs.Ints("strides", []int{1, 1}), attrs.Ints("dilations", []int{1, 1}),
			attrs.String("pad", "valid"), depthwise)
		if err != nil {
			return err
		}
		ep, bias, err := b.fusedTail(name, inputs, attrs, info.OutChannels)
		if err != nil {
			return err
		}
		_, xTex := b.input(x)
		_, wTex := b.input(w)
		out, err := b.output(info.OutShape(), tensor.Float32, res)
		if err != nil {
			return err
		}
		work, walk := convWork, kernels.NewWalk(info)
		if depthwise {
			work = depthwiseWork
		}
		b.run(name, out, work(info, out.size, bias != nil, ep.Act != nil), func(lo, hi int, dst []float32) {
			if depthwise {
				walk.Depthwise(xTex.Floats(), wTex.Floats(), withBias(ep, bias), lo, dst)
			} else {
				walk.Conv2D(xTex.Floats(), wTex.Floats(), withBias(ep, bias), lo, dst)
			}
		})
		return nil
	}
}
