package webgl

import (
	"fmt"

	"repro/internal/glsim"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// This file holds the kernel-override plumbing; the program builders for
// each kernel family live in the kernels_*.go files. Each override plays
// the role of a compiled GLSL fragment shader (Listing 2 of the paper): a
// per-output-texel function assembled from compiler-provided samplers.

// register installs one kernel override.
func (b *Backend) register(name string, k kernels.OverrideKernel) {
	if _, dup := b.kernelsTable[name]; dup {
		//lint:ignore operr init-time registration invariant (duplicate override); no dispatch in flight to attribute
		panic(fmt.Sprintf("webgl: duplicate kernel %q", name))
	}
	b.kernelsTable[name] = k
}

// initKernels builds the override table.
func (b *Backend) initKernels() {
	b.kernelsTable = map[string]kernels.OverrideKernel{}
	b.registerElementwise()
	b.registerMatMul()
	b.registerConv()
	b.registerReduce()
	b.registerShape()
	b.registerGather()
	b.registerConvGrad()
	b.registerFused()
	b.registerTrain()
}

// input resolves a kernel input to its live texture (paging it back in when
// needed) and refreshes its LRU tick.
func (b *Backend) input(in kernels.Input) (*texData, *glsim.Texture) {
	td := b.lookup(in.DataID)
	tex := b.touch(td)
	return td, tex
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

// run executes a program whose body computes the output's logical values
// [lo, hi), in flat row-major order, into dst (len hi-lo). It is the one
// place the two texel layouts differ: the device hands out texel ranges —
// a quarter as many invocations when packed (§3.9) — and run turns them
// into value ranges, clips them to the logical size and zeroes the padding
// values of the last texels. The body inherits the fragment-shader
// contract from glsim.Program.Main: what it writes for a value depends
// only on that value's index (TestKernelContract).
func (b *Backend) run(name string, out *texData, work glsim.Work, body func(lo, hi int, dst []float32)) {
	size, channels := out.size, out.tex.Format.Channels()
	b.device.Execute(&glsim.Program{Name: name, Work: work, Main: func(lo, hi int, dst []float32) {
		lo, hi = lo*channels, min(hi*channels, size)
		n := max(hi-lo, 0)
		if n > 0 {
			body(lo, hi, dst[:n])
		}
		clear(dst[n:])
	}}, out.tex)
}

// runFlat executes a program whose value at flat output index i is
// valueAt(i): the per-value form of the paper's shaders, which the long
// tail of cold kernels keeps.
func (b *Backend) runFlat(name string, out *texData, work glsim.Work, valueAt func(flat int) float32) {
	b.run(name, out, work, func(lo, hi int, dst []float32) {
		for i := range dst {
			dst[i] = valueAt(lo + i)
		}
	})
}

// indexTerm is one dimension's contribution when mapping an output flat
// index to an input flat index: (flat / div % dim) * stride.
type indexTerm struct {
	div    int
	dim    int
	stride int
}

// broadcastSamplers compiles, for each input shape, a mapper from output
// flat index to input flat index. This is the Go analogue of the shader
// compiler's generated getA(...) samplers: with SqueezeLogicalShapes
// enabled, size-1 output dimensions produce no term at all — the "ignores a
// and c" optimization of Section 4.1 — and stride-0 (broadcast) dimensions
// are likewise dropped.
func (b *Backend) broadcastSamplers(outShape []int, inShapes [][]int) []func(outFlat int) int {
	outStrides := tensor.ComputeStrides(outShape)
	mappers := make([]func(int) int, len(inShapes))
	for k, inShape := range inShapes {
		aligned := compileSampler(inShape, outShape, b.cfg.SqueezeLogicalShapes, nil).strides
		var terms []indexTerm
		for i, dim := range outShape {
			if b.cfg.SqueezeLogicalShapes && (dim == 1 || aligned[i] == 0) {
				continue
			}
			terms = append(terms, indexTerm{div: outStrides[i], dim: dim, stride: aligned[i]})
		}
		mappers[k] = func(outFlat int) int {
			idx := 0
			for _, t := range terms {
				idx += (outFlat / t.div % t.dim) * t.stride
			}
			return idx
		}
	}
	return mappers
}

// sameShape reports whether every input has exactly the output's shape, the
// condition for the no-decode fast path.
func sameShape(outShape []int, inShapes [][]int) bool {
	for _, s := range inShapes {
		if !tensor.ShapesEqual(s, outShape) {
			return false
		}
	}
	return true
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
