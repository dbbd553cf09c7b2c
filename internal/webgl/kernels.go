package webgl

import (
	"fmt"

	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// This file holds the kernel-override plumbing. Each override plays the
// role of a compiled GLSL fragment shader (Listing 2 of the paper): a
// function of each output texel's index, run over ranges of texels.

// register installs one kernel override.
func (b *Backend) register(name string, k kernels.OverrideKernel) {
	if _, dup := b.kernelsTable[name]; dup {
		//lint:ignore operr init-time registration invariant (duplicate override); no dispatch in flight to attribute
		panic(fmt.Sprintf("webgl: duplicate kernel %q", name))
	}
	b.kernelsTable[name] = k
}

// initKernels builds the override table: every kernel of the range table
// (kernels.RangeKernels, Softmax and the element-wise table's ops among
// them) in one loop, and the one kernel outside it, GatherV2.
func (b *Backend) initKernels() {
	b.kernelsTable = map[string]kernels.OverrideKernel{}
	for _, k := range kernels.RangeKernels() {
		b.register(k.Name, b.rangeKernel(k))
	}
	// GatherV2 is no range kernel: node declines an index out of range,
	// which this backend cannot see without a readback; it writes 0.
	b.register("GatherV2", b.gather)
}

// rangeKernel is k's shader program: k's body over the texel range the
// device hands it, its inputs read from their textures inside the program
// (a texture's host slice exists once the device queue reaches it). It
// declares k's work plus what only this backend's shaders cost: the
// compiled samplers' terms, which squeezing cuts, and a packed matmul's
// shared A samples.
func (b *Backend) rangeKernel(k kernels.RangeKernel) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		r, err := k.Resolve(k.Name, inputs, attrs, res)
		if err != nil {
			return err
		}
		tex := b.textures(inputs)
		out, err := b.output(res.Shape, res.DType, res)
		if err != nil {
			return err
		}
		terms, squeeze := 0, b.cfg.SqueezeLogicalShapes
		if k.Sampled == kernels.SamplesOutput {
			terms = samplerTerms(res.Shape, res.Shape, squeeze)
		}
		for _, in := range k.Sampled.Inputs(inputs, res.Shape) {
			terms += samplerTerms(in.Shape, res.Shape, squeeze)
		}
		r.Work.ALU += int64(out.size) * int64(kernels.ALUTerm*terms)
		name := k.Name
		if name == "BatchMatMul" && out.tex.Format == glsim.RGBA32F && !attrs.TransposeA && !attrs.TransposeB {
			// Packed matmul: a texel's four consecutive output columns share
			// their A row samples — the vec4 dot-product trick of the paper's
			// packed shaders, which the device's clock sees as fewer fetches.
			rank := len(res.Shape)
			name, r.Work = name+"(packed)", packedMatMulWork(r.Work, out.size, res.Shape[rank-1], inputs[0].Shape[rank-1])
		}
		b.run(name, out, r, tex)
		return nil
	}
}

// input resolves a kernel input to its live texture (paging it back in when
// needed) and refreshes its LRU tick.
func (b *Backend) input(in kernels.Input) (*texData, *glsim.Texture) {
	td := b.lookup(in.DataID)
	tex := b.touch(td)
	return td, tex
}

// textures resolves a kernel's inputs to their live textures, in order.
func (b *Backend) textures(inputs []kernels.Input) []*glsim.Texture {
	tex := make([]*glsim.Texture, len(inputs))
	for i, in := range inputs {
		_, tex[i] = b.input(in)
	}
	return tex
}

// output allocates a data container for a kernel result, describes it in
// res — what the kernel hands back to its dispatcher — and returns its
// record. The shape is copied into res, never aliased.
func (b *Backend) output(shape []int, dtype tensor.DataType, res *kernels.TensorInfo) (*texData, error) {
	id := tensor.NewDataID()
	td, err := b.newTexData(id, shape, dtype)
	if err != nil {
		return nil, err
	}
	res.Set(id, shape, dtype)
	return td, nil
}

// run executes a program that computes out's logical values with r's
// body from the textures tex, which the device binds: the body reads their
// host slices, which exist once the device queue reaches the program. It
// is the one place the two texel layouts differ: the device hands out
// texel ranges — a quarter as many invocations when packed (§3.9) — and
// run turns them into value ranges, clips them to the logical size and
// zeroes the padding values of the last texels. The body inherits the
// fragment-shader contract from glsim.Program.Main: what it writes for a
// value depends only on that value's index (TestKernelContract). A staged
// buffer (kernels.Stage) is the program's Setup, computed on the device
// once, before the ranges.
func (b *Backend) run(name string, out *texData, r kernels.Range, tex []*glsim.Texture) {
	size, channels, fill := out.size, out.tex.Format.Channels(), r.Fill
	p := &glsim.Program{Name: name, Work: device(r.Work), Inputs: tex, Main: func(in [][]float32, lo, hi int, dst []float32) {
		lo, hi = lo*channels, min(hi*channels, size)
		n := max(hi-lo, 0)
		if n > 0 {
			fill(in, lo, dst[:n])
		}
		clear(dst[n:])
	}}
	if n, stage := r.Stage.Len(), r.Stage; n > 0 {
		p.Setup = func(in [][]float32) []float32 {
			staged := make([]float32, n)
			stage.Run(in, staged)
			return staged
		}
	}
	b.device.Execute(p, out.tex)
}

// gather is the GatherV2 program, on its range body (kernels.Gather): two
// fetches per value behind two div/mod pairs and the index's bounds check.
func (b *Backend) gather(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
	g, err := kernels.ResolveGather(inputs, attrs, res)
	if err != nil {
		return err
	}
	tex := b.textures(inputs)
	out, err := b.output(res.Shape, res.DType, res)
	if err != nil {
		return err
	}
	b.run("GatherV2", out, kernels.Range{Fill: func(in [][]float32, lo int, dst []float32) {
		g.Fill(in[0], in[1], lo, dst)
	}, Work: kernels.PerValue(out.size, 2, 2*kernels.ALUDecode+2)}, tex)
	return nil
}

// InputTexture resolves a kernel input to its live device texture, paging
// it back in when needed. Exported for backends layered on this one (the
// experimental WebGPU backend reuses the WebGL data plane).
func (b *Backend) InputTexture(in kernels.Input) *glsim.Texture {
	_, tex := b.input(in)
	return tex
}

// Output allocates a device container for a kernel result, describes it in
// res and returns its texture. Exported for layered backends.
func (b *Backend) Output(shape []int, dtype tensor.DataType, res *kernels.TensorInfo) (*glsim.Texture, error) {
	td, err := b.output(shape, dtype, res)
	if err != nil {
		return nil, err
	}
	return td.tex, nil
}
