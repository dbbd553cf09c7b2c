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

// rangeKernel is k's shader program (programs.go), compiled on a call's
// first dispatch and looked up on every later one.
func (b *Backend) rangeKernel(k kernels.RangeKernel) kernels.OverrideKernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		c, err := b.program(k, inputs, &attrs)
		if err != nil {
			return err
		}
		return b.dispatch(c.prog, inputs, c.shape, c.dtype, res)
	}
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

// dispatch runs p on a call's inputs into a new output of the given shape
// and dtype, described in res: it binds the inputs' live textures to the
// command, in order, allocates the output and enqueues.
func (b *Backend) dispatch(p *glsim.Program, inputs []kernels.Input, shape []int, dtype tensor.DataType, res *kernels.TensorInfo) error {
	var bound [glsim.InlineInputs]*glsim.Texture
	tex := bound[:0]
	for _, in := range inputs {
		tex = append(tex, b.InputTexture(in))
	}
	out, err := b.output(shape, dtype, res)
	if err != nil {
		return err
	}
	b.device.Execute(p, tex, out.tex)
	return nil
}

// shader is the program that computes an output of size logical values
// with r's body from its inputs' host slices, which the device binds per
// dispatch. It is the one place the two texel layouts differ: the device
// hands out texel ranges — a quarter as many invocations when packed
// (§3.9) — and the program turns them into value ranges, clips them to the
// logical size and zeroes the padding values of the last texels. The body
// inherits the fragment-shader contract from glsim.Program.Main: what it
// writes for a value depends only on that value's index
// (TestKernelContract). A staged buffer (kernels.Stage) is the program's
// Setup, computed on the device once per dispatch, before the ranges.
func (b *Backend) shader(name string, size int, r kernels.Range) *glsim.Program {
	channels, fill := b.format().Channels(), r.Fill
	p := &glsim.Program{Name: name, Work: device(r.Work), Main: func(in [][]float32, lo, hi int, dst []float32) {
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
	return p
}

// gather is the GatherV2 program, on its range body (kernels.Gather): two
// fetches per value behind two div/mod pairs and the index's bounds check.
// It is compiled per dispatch: GatherV2 is no entry of the range table.
func (b *Backend) gather(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
	g, err := kernels.ResolveGather(inputs, attrs, res)
	if err != nil {
		return err
	}
	size := tensor.ShapeSize(res.Shape)
	p := b.shader("GatherV2", size, kernels.Range{Fill: func(in [][]float32, lo int, dst []float32) {
		g.Fill(in[0], in[1], lo, dst)
	}, Work: kernels.PerValue(size, 2, 2*kernels.ALUDecode+2)})
	return b.dispatch(p, inputs, res.Shape, res.DType, res)
}

// InputTexture resolves a kernel input to its live device texture, paging
// it back in when needed, and refreshes its LRU tick. Exported for
// backends layered on this one (the experimental WebGPU backend reuses the
// WebGL data plane).
func (b *Backend) InputTexture(in kernels.Input) *glsim.Texture {
	return b.touch(b.lookup(in.DataID))
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
