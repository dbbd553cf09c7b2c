package webgl

import (
	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// This file holds the kernel plumbing. Each kernel plays the
// role of a compiled GLSL fragment shader (Listing 2 of the paper): a
// function of each output texel's index, run over ranges of texels.

// initKernels builds the kernel table: every kernel of the range table
// (kernels.RangeKernels, Softmax, GatherV2 and the element-wise table's ops
// among them) in one loop. A call's Range.Check (GatherV2's indices) is not
// run: this backend cannot read its inputs without a readback, and writes
// what the body writes for a value the check rejects (0, for an index out
// of range).
func (b *Backend) initKernels() {
	b.kernelsTable = map[string]kernels.Kernel{}
	for _, k := range kernels.RangeKernels() {
		b.kernelsTable[k.Name] = b.rangeKernel(k)
	}
}

// rangeKernel is k's shader program (programs.go), compiled on a call's
// first dispatch and looked up in the backend's memo on every later one:
// it binds the inputs' live textures to the command, in order, allocates
// the output, described in res, and enqueues.
func (b *Backend) rangeKernel(k kernels.RangeKernel) kernels.Kernel {
	return func(inputs []kernels.Input, attrs kernels.Attrs, res *kernels.TensorInfo) error {
		c, err := b.programs.Get(k, inputs, &attrs)
		if err != nil {
			return err
		}
		var bound [glsim.InlineInputs]*glsim.Texture
		tex := bound[:0]
		for _, in := range inputs {
			tex = append(tex, b.InputTexture(in))
		}
		out, err := b.output(c.shape, c.dtype, res)
		if err != nil {
			return err
		}
		b.device.Execute(c.prog, tex, out.tex)
		return nil
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

// shader is the program that computes an output of size logical values
// with r's body from its inputs' host slices, which the device binds per
// dispatch. It is the one place the two texel layouts differ: the device
// hands out texel ranges — a quarter as many invocations when packed
// (§3.9) — and the program turns them into value ranges, clips them to the
// logical size and zeroes the padding values of the last texels. The body
// inherits the fragment-shader contract from glsim.Program.Main: what it
// writes for a value depends only on that value's index
// (TestKernelContract). A staged buffer (kernels.Stage) is the program's
// Setup, computed on the device once per dispatch, before the ranges, into
// the device's own staging buffer.
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
	if n := r.Stage.Len(); n > 0 {
		p.Setup, p.Staged = r.Stage.Run, n
	}
	return p
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
