package webgl

import (
	"repro/internal/glsim"
	"repro/internal/kernels"
)

// registerShape installs the data-movement programs — transpose, slice,
// tile, pad, one-hot, fill, concat and gather, the last three used heavily
// by training loops (minibatch gathers, one-hot labels, broadcast-grad
// tiles), so backpropagation stays device-resident. Each is the range body
// native runs (internal/kernels/shape.go) over the texel range, with the
// work of the per-value coordinate remapping it stands for.
func (b *Backend) registerShape() {
	// Squeezing drops size-1 output dims from the decode, as the sampler
	// compiler does.
	decode := func(size int, shape []int) glsim.Work {
		terms := len(shape)
		for _, d := range shape {
			if b.cfg.SqueezeLogicalShapes && d == 1 {
				terms--
			}
		}
		return perValue(size, 1, aluTerm*terms)
	}
	move("Transpose", b, kernels.ResolveTranspose, decode)
	move("Slice", b, kernels.ResolveSlice, decode)
	// Every dimension decodes and wraps (tile) or bounds-checks (pad); the
	// fetch is charged as taken for padding values too.
	move("Tile", b, kernels.ResolveTile, func(size int, shape []int) glsim.Work { return perValue(size, 1, (aluTerm+1)*len(shape)) })
	move("PadV2", b, kernels.ResolvePad, func(size int, shape []int) glsim.Work { return perValue(size, 1, (aluTerm+2)*len(shape)) })
	move("OneHot", b, kernels.ResolveOneHot, func(size int, _ []int) glsim.Work { return perValue(size, 1, aluDecode+1) })
	move("Fill", b, kernels.ResolveFill, func(int, []int) glsim.Work { return glsim.Work{} }) // a constant: no work

	b.register("Concat", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		c, err := kernels.ResolveConcat(inputs, attrs, res)
		if err != nil {
			return err
		}
		texes := make([]*glsim.Texture, len(inputs))
		for i, in := range inputs {
			_, texes[i] = b.input(in)
		}
		out, err := b.output(res.Shape, res.DType, res)
		if err != nil {
			return err
		}
		// Two div/mod pairs, then a chain of coordinate comparisons.
		b.run("Concat", out, perValue(out.size, 1, 2*aluDecode+len(inputs)), func(lo, hi int, dst []float32) {
			xs := make([][]float32, len(texes))
			for i, t := range texes {
				xs[i] = t.Floats()
			}
			c.Fill(xs, lo, dst)
		})
		return nil
	})

	// GatherV2 writes 0 for an index out of range (kernels.Gather.Fill).
	b.register("GatherV2", func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		g, err := kernels.ResolveGather(inputs, attrs, res)
		if err != nil {
			return err
		}
		_, xTex := b.input(inputs[0])
		_, idxTex := b.input(inputs[1])
		out, err := b.output(res.Shape, res.DType, res)
		if err != nil {
			return err
		}
		b.run("GatherV2", out, perValue(out.size, 2, 2*aluDecode+2), func(lo, hi int, dst []float32) {
			g.Fill(xTex.Floats(), idxTex.Floats(), lo, dst)
		})
		return nil
	})
}

// move registers the shape program name, whose resolve (kernels.Resolve*)
// checks a call and returns the body that fills its output from its one
// input (none, for Fill), and whose work is the program's for an output of
// size values of that shape.
func move[M interface {
	Fill(x []float32, lo int, dst []float32)
}](name string, b *Backend, resolve func([]kernels.Input, kernels.Attrs, *kernels.TensorInfo) (M, error), work func(size int, shape []int) glsim.Work) {
	b.register(name, func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		body, err := resolve(inputs, attrs, res)
		if err != nil {
			return err // ErrFallback for a view of too many dims
		}
		var x *glsim.Texture
		if len(inputs) > 0 {
			_, x = b.input(inputs[0])
		}
		out, err := b.output(res.Shape, res.DType, res)
		if err != nil {
			return err
		}
		b.run(name, out, work(out.size, res.Shape), func(lo, hi int, dst []float32) {
			var xs []float32
			if x != nil {
				xs = x.Floats()
			}
			body.Fill(xs, lo, dst)
		})
		return nil
	})
}
